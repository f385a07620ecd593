// Command perfbench is the Hobbit pipeline's end-to-end benchmark. One
// run times one workload — a pinned netsim world driven through
// core.Pipeline.Run or a monitor.Monitor — checks every output against
// reference.json and the harness accuracy floors, and prints its
// metrics as the last line of standard output:
//
//	{"correct": true, "attempted": 8, "failed": 0, "metrics": {"run_s": {"value": 3.1, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the
// run adds one traced timed region (wrapped layer boundaries, a CPU
// profile, Go runtime counters) and prints the per-layer set. README.md
// lists every metric. Usage:
//
//	perfbench -workload NAME [-seed N] [-seconds S] [-trace 0|1]
//	perfbench -workload NAME -record reference.json
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

//go:embed reference.json
var referenceJSON []byte

// references maps each workload to its reference outcomes: one for a
// batch workload, epochs 0..Epochs for a monitor workload.
type references map[string][]outcome

func main() {
	var (
		name   = flag.String("workload", "", "workload to run (batch-clean, batch-churn, monitor-churn)")
		seed   = flag.String("seed", "0", "run seed; the inputs are pinned per workload, so it only labels the run")
		secs   = flag.Int("seconds", 25, "nominal length of the measured part of the run")
		trace  = flag.Int("trace", 0, "1 adds a traced region and prints the per-layer metrics instead")
		record = flag.String("record", "", "run once and write this workload's outcomes into this reference file")
	)
	flag.Parse()
	runtime.GOMAXPROCS(workers)
	wl, ok := findWorkload(*name)
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload batch-clean|batch-churn|monitor-churn, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	ctx := context.Background()
	if *record != "" {
		if err := recordReference(ctx, wl, *record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var refs references
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reference.json:", err)
		os.Exit(1)
	}
	r := &runner{wl: wl, ref: refs[wl.Name]}
	if len(r.ref) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: reference.json has no entry for %s\n", wl.Name)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%s reps=%d trace=%d\n", wl.Name, *seed, wl.reps(*secs), *trace)
	res, err := r.run(ctx, wl.reps(*secs), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// recordReference runs the workload once, checks the accuracy floors,
// and stores its outcomes under the workload's name in path.
func recordReference(ctx context.Context, wl workload, path string) error {
	r := &runner{wl: wl}
	if _, err := r.run(ctx, 1, false); err != nil {
		return err
	}
	if r.failed > 0 {
		return errors.New("an output failed its accuracy floors; nothing recorded")
	}
	refs := references{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &refs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	refs[wl.Name] = r.recorded
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// now is the benchmark's one wall-clock read; everything it times goes
// through here.
func now() time.Time {
	//lint:ignore wallclock the benchmark harness measures elapsed real time
	return time.Now()
}

// cpuNow returns the process's user plus system CPU time in seconds.
func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB is the operating system's resident-set high-water mark for
// this process, in MiB (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
