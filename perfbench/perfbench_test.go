package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
)

// Small versions of the benchmark's workloads: same run shapes, worlds
// small enough for a unit test.
var (
	smallClean = workload{Name: "small-clean", Blocks: 2000, Scale: 0.02, Seed: 7,
		StreamChunk: 64, Floors: "baseline", RepSeconds: 1, MinReps: 1}
	smallChurn = workload{Name: "small-churn", Blocks: 2000, Scale: 0.02, Seed: 7,
		Plan: "churn", Floors: "flap", RepSeconds: 1, MinReps: 1}
	smallMonitor = workload{Name: "small-monitor", Blocks: 2000, Scale: 0.02, Seed: 7,
		Plan: "churn", Epochs: 3, Floors: "flap", RepSeconds: 1, MinReps: 1}
)

// outcomes runs one set-up env of the workload and returns every
// checked outcome: the run's for a batch workload, the bootstrap's and
// each epoch's for a monitor workload.
func outcomes(t *testing.T, wl workload, traced bool) []outcome {
	t.Helper()
	ctx := context.Background()
	e, err := setUp(ctx, wl, traced)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if wl.Epochs == 0 {
		_, o, err := e.batchRun(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return []outcome{o}
	}
	outs := []outcome{e.bootOutcome()}
	for k := 1; k <= wl.Epochs; k++ {
		ep, err := e.monitorEpoch(ctx)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, ep.out)
	}
	return outs
}

// The traced run must do exactly the untraced run's work: the wrappers
// observe, they never change an answer.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, wl := range []workload{smallClean, smallChurn, smallMonitor} {
		t.Run(wl.Name, func(t *testing.T) {
			plain, traced := outcomes(t, wl, false), outcomes(t, wl, true)
			if len(plain) != len(traced) {
				t.Fatalf("%d outcomes untraced, %d traced", len(plain), len(traced))
			}
			for i := range plain {
				if plain[i].brief() != traced[i].brief() {
					t.Errorf("output %d: untraced %s, traced %s", i, plain[i].brief(), traced[i].brief())
				}
			}
		})
	}
}

// Under the fault-view wrapper the monitor must still get the plan's
// epoch delta: an epoch reporting All would reprobe every block.
func TestMonitorEpochsUnderWrappersNeverAll(t *testing.T) {
	ctx := context.Background()
	e, err := setUp(ctx, smallMonitor, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	eligible := len(e.boot.Output.Eligible)
	for k := 1; k <= smallMonitor.Epochs; k++ {
		rep, err := e.mon.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.All || rep.Reprobed >= eligible {
			t.Fatalf("epoch %d: All=%v, reprobed %d of %d eligible", rep.Epoch, rep.All, rep.Reprobed, eligible)
		}
	}
	if n := e.tr.faults.queries[qEpochDelta].calls(); n != float64(smallMonitor.Epochs) {
		t.Errorf("wrapper saw %v EpochDelta calls, want %d", n, smallMonitor.Epochs)
	}
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// benchmarkSpec is the part of BENCHMARK.json the metric sets must
// match.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// Every workload prints exactly the metrics BENCHMARK.json declares,
// under well-formed names and the declared units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range []workload{smallClean, smallMonitor} {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			r := &runner{wl: wl}
			res, err := r.run(context.Background(), 1, traced)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d", wl.Name, traced, res.Correct, res.Attempted)
			}
			var got []string
			for name, m := range res.Metrics {
				if !metricNameRE.MatchString(name) {
					t.Errorf("bad metric name %q", name)
				}
				got = append(got, name+" "+m.Unit)
			}
			var declared []string
			for _, m := range want {
				declared = append(declared, m.Name+" "+m.Unit)
			}
			sort.Strings(got)
			sort.Strings(declared)
			if len(got) != len(declared) {
				t.Fatalf("%s traced=%v: %d metrics printed, %d declared\nprinted  %v\ndeclared %v",
					wl.Name, traced, len(got), len(declared), got, declared)
			}
			for i := range got {
				if got[i] != declared[i] {
					t.Errorf("%s traced=%v: printed %q, declared %q", wl.Name, traced, got[i], declared[i])
				}
			}
		}
	}
}

// The embedded reference covers every workload in the table, with one
// outcome per checked output.
func TestReferenceCoversWorkloads(t *testing.T) {
	var refs references
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		if got, want := len(refs[wl.Name]), wl.Epochs+1; got != want {
			t.Errorf("%s: %d reference outcomes, want %d", wl.Name, got, want)
		}
	}
}
