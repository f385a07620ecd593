package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"

	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/faultplan"
	"github.com/hobbitscan/hobbit/internal/harness"
	"github.com/hobbitscan/hobbit/internal/monitor"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/telemetry"
	"github.com/hobbitscan/hobbit/internal/zmap"
)

// workers is every stage's worker count: the benchmark host has two
// cores, and GOMAXPROCS is pinned to match (see main).
const workers = 2

// workload is one pinned input: the world, the run shape, and the
// accuracy floors its output must clear. The world and pipeline seed
// are part of the workload, not of the command line, so every run of a
// workload does exactly the same work and its counts can be checked
// against reference.json.
type workload struct {
	Name string
	// Blocks, Scale, and Seed build the netsim world (Seed also seeds
	// the pipeline, as cmd/hobbit does).
	Blocks int
	Scale  float64
	Seed   uint64
	// Plan is the built-in fault plan installed in the world; "" runs a
	// clean world. A plan turns on adaptive MDA, as the CLI does.
	Plan string
	// StreamChunk is core.Pipeline.StreamChunk (0 = materialized).
	StreamChunk int
	// Epochs, when > 0, makes this a monitor workload: set-up
	// bootstraps a monitor.Monitor and the timed region is its
	// incremental epochs 1..Epochs.
	Epochs int
	// Floors names the harness.BuiltinScenarios entry whose accuracy
	// floors every output must clear.
	Floors string
	// RepSeconds sets how many regions a run times: --seconds /
	// RepSeconds, so the rep count depends only on the command line,
	// never on how fast the program happens to be. It is about one
	// timed region's wall time on the reference host.
	RepSeconds float64
	// MinReps bounds the rep count from below.
	MinReps int
}

// workloads is the benchmark's workload table.
var workloads = []workload{
	{Name: "batch-clean", Blocks: 100000, Scale: 0.25, Seed: 0x40bb17,
		StreamChunk: 1024, Floors: "baseline", RepSeconds: 3.2, MinReps: 5},
	{Name: "batch-churn", Blocks: 30000, Scale: 0.25, Seed: 0x40bb17,
		Plan: "churn", Floors: "flap", RepSeconds: 3.8, MinReps: 5},
	{Name: "monitor-churn", Blocks: 30000, Scale: 0.25, Seed: 0x40bb17,
		Plan: "churn", Epochs: 10, Floors: "flap", RepSeconds: 10, MinReps: 3},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.Name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// reps returns how many timed regions a run of the given length makes.
func (wl workload) reps(seconds int) int {
	return max(wl.MinReps, int(math.Round(float64(seconds)/wl.RepSeconds)))
}

func (wl workload) floors() (harness.Floors, error) {
	for _, sc := range harness.BuiltinScenarios() {
		if sc.Plan == wl.Floors {
			return sc.Floors, nil
		}
	}
	return harness.Floors{}, fmt.Errorf("no harness scenario %q", wl.Floors)
}

// env is one set-up world with its pipeline, ready for a timed region.
type env struct {
	wl    workload
	world *netsim.World
	sched *faultplan.Schedule // nil on a clean world
	reg   *telemetry.Registry
	pnet  *probe.Instrumented
	pipe  *core.Pipeline
	mon   *monitor.Monitor // monitor workloads only, bootstrapped
	boot  *monitor.EpochReport
	tr    *tracer // nil when untraced
	// setupS is the wall time of the whole set-up; compileS the part
	// spent compiling the fault plan.
	setupS, compileS float64
}

// setUp builds the workload's world and pipeline the way cmd/hobbit
// does and, for a monitor workload, runs the bootstrap epoch. A traced
// env stacks the tracer's wrappers beneath probe.Instrument, around
// the census scanner, and around the fault plan.
func setUp(ctx context.Context, wl workload, traced bool) (*env, error) {
	start := now()
	cfg := netsim.DefaultConfig(wl.Blocks)
	cfg.BigBlockScale = wl.Scale
	cfg.Seed = wl.Seed
	w, err := netsim.New(cfg)
	if err != nil {
		return nil, err
	}
	e := &env{wl: wl, world: w, reg: telemetry.NewRegistry()}
	if traced {
		e.tr = newTracer()
	}
	if wl.Plan != "" {
		t0 := now()
		e.sched, err = faultplan.CompileBuiltin(wl.Plan, w)
		if err != nil {
			return nil, err
		}
		e.compileS = now().Sub(t0).Seconds()
		if e.tr != nil {
			e.tr.faults = &timedFaults{inner: e.sched}
			w.SetFaults(e.tr.faults)
		} else {
			w.SetFaults(e.sched)
		}
	}

	opts := core.Options{
		Workers:        workers,
		CensusWorkers:  workers,
		ClusterWorkers: workers,
		ValidatePairs:  20000,
	}
	if wl.Plan != "" {
		opts.MDA.Adaptive = true
	}
	var net probe.Network = probe.NewSimNetwork(w)
	var scanner zmap.Scanner = w
	if e.tr != nil {
		e.tr.net = &timedNet{inner: net}
		e.tr.scan = &timedScanner{inner: w}
		net, scanner = e.tr.net, e.tr.scan
	}
	e.pnet = probe.Instrument(net, e.reg, core.StageMeasure)
	e.pipe = &core.Pipeline{
		Net:         e.pnet,
		Scanner:     scanner,
		Blocks:      w.Blocks(),
		Seed:        wl.Seed,
		Options:     opts,
		StreamChunk: wl.StreamChunk,
		Telemetry:   e.reg,
	}
	if e.tr != nil {
		e.tr.net.outer = e.pnet
		e.pipe.ResultSink = e.tr.sink
	}
	if wl.Epochs > 0 {
		e.mon = &monitor.Monitor{Pipeline: e.pipe, Source: &monitor.WorldSource{W: w}}
		e.boot, err = e.mon.Step(ctx)
		if err != nil {
			e.close()
			return nil, err
		}
	}
	e.setupS = now().Sub(start).Seconds()
	return e, nil
}

func (e *env) close() {
	if e.mon != nil {
		e.mon.Close()
	}
}

func (e *env) packets() int64 { return e.pnet.Pings() + e.pnet.Probes() }

// timing is one timed region's wall and process CPU time, in seconds.
type timing struct{ wall, cpu float64 }

// timed runs f as a timed region: a full collection first, so garbage
// from set-up or an earlier region is not collected on the clock, then
// wall and process CPU time around f alone. A traced env also opens a
// tracer region around f.
func (e *env) timed(f func() error) (timing, error) {
	runtime.GC()
	if e.tr != nil {
		if err := e.tr.begin(); err != nil {
			return timing{}, err
		}
	}
	c0, t0 := cpuNow(), now()
	err := f()
	t := timing{wall: now().Sub(t0).Seconds(), cpu: cpuNow() - c0}
	if e.tr != nil {
		if terr := e.tr.end(); err == nil {
			err = terr
		}
	}
	return t, err
}

// outcome is one checked pipeline output: an end-to-end run on a batch
// workload, one epoch on a monitor workload.
type outcome struct {
	Digest   string `json:"digest"`
	Eligible int    `json:"eligible"`
	Final    int    `json:"final"`
	// Packets are the measurement and validation probes and pings the
	// output cost; census scan pings are not packets of the campaign.
	Packets int64 `json:"packets"`
	// Reprobed is the monitor epoch's reprobed-block count.
	Reprobed int `json:"reprobed,omitempty"`
	// aggregates is the identical-set aggregate count; report the
	// accuracy score against netsim truth.
	aggregates int
	report     *harness.Report
}

func (e *env) outcome(out *core.Output, packets int64, reprobed int) outcome {
	sum := sha256.Sum256(harness.EncodeOutput(out))
	return outcome{
		Digest:   hex.EncodeToString(sum[:]),
		Eligible: len(out.Eligible),
		Final:    len(out.Final),
		Packets:  packets,
		Reprobed: reprobed,

		aggregates: len(out.Aggregates),
		report:     harness.Score(e.wl.Floors, e.world, out),
	}
}

// check compares an outcome against its reference and the workload's
// accuracy floors; a nil ref skips the reference comparison (recording).
func (o outcome) check(ref *outcome, floors harness.Floors) error {
	if err := o.report.Check(floors); err != nil {
		return err
	}
	if ref == nil {
		return nil
	}
	if o.Digest != ref.Digest || o.Eligible != ref.Eligible || o.Final != ref.Final ||
		o.Packets != ref.Packets || o.Reprobed != ref.Reprobed {
		return fmt.Errorf("output differs from the reference: got %s, want %s",
			o.brief(), ref.brief())
	}
	return nil
}

func (o outcome) brief() string {
	return fmt.Sprintf("digest=%.12s eligible=%d final=%d packets=%d reprobed=%d",
		o.Digest, o.Eligible, o.Final, o.Packets, o.Reprobed)
}

// batchRun times one end-to-end Pipeline.Run.
func (e *env) batchRun(ctx context.Context) (timing, outcome, error) {
	var out *core.Output
	t, err := e.timed(func() error {
		var err error
		out, err = e.pipe.Run(ctx)
		return err
	})
	if err != nil {
		return t, outcome{}, err
	}
	return t, e.outcome(out, e.packets(), 0), nil
}

// epochRun is one timed incremental monitor epoch.
type epochRun struct {
	timing
	rep *monitor.EpochReport
	out outcome
}

// monitorEpoch times the next incremental epoch. An epoch whose change
// set degraded to All is an error: it would reprobe everything, and a
// timing of that is not the workload's.
func (e *env) monitorEpoch(ctx context.Context) (epochRun, error) {
	var rep *monitor.EpochReport
	p0 := e.packets()
	t, err := e.timed(func() error {
		var err error
		rep, err = e.mon.Step(ctx)
		return err
	})
	if err != nil {
		return epochRun{}, err
	}
	if rep.All {
		return epochRun{}, fmt.Errorf("epoch %d reported All: every block reprobed", rep.Epoch)
	}
	return epochRun{timing: t, rep: rep, out: e.outcome(rep.Output, e.packets()-p0, rep.Reprobed)}, nil
}

// bootOutcome is the bootstrap epoch's checked outcome.
func (e *env) bootOutcome() outcome {
	return e.outcome(e.boot.Output, e.packets(), e.boot.Reprobed)
}
