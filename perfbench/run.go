package main

import (
	"context"
	"fmt"
	"os"
	"runtime"

	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/harness"
	"github.com/hobbitscan/hobbit/internal/monitor"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner runs one workload's reps and keeps what the metrics need.
// An operation is one checked output: a pipeline run on a batch
// workload, one epoch (bootstrap included) on a monitor workload. A
// failed operation's region contributes no timing.
type runner struct {
	wl     workload
	ref    []outcome // nil while recording
	floors harness.Floors

	attempted, failed int
	recorded          []outcome

	// cals are the calibration kernel's times. setup, wall, cpu, and
	// epochWall hold raw seconds; the metrics scale them by hostScale.
	cals           []float64
	setup, compile []float64
	// wall and cpu hold one entry per passing timed region.
	wall, cpu []float64
	// epochWall[k] and epochPackets[k] hold incremental epoch k+1's
	// wall time and packets, one entry per passing region.
	epochWall, epochPackets [][]float64
	// last is the last passing outcome; regionPackets the packets one
	// timed region sends (every region sends the same).
	last          outcome
	regionPackets int64
}

// region is one set-up env and its timed region.
type region struct {
	env *env
	timing
	ok     bool
	epochs []epochRun
	// counters0 and spans0 are the registry's state when the region
	// started, so traced metrics cover the region alone.
	counters0 map[string]int64
	spans0    int
}

func (r *runner) run(ctx context.Context, reps int, traced bool) (*result, error) {
	floors, err := r.wl.floors()
	if err != nil {
		return nil, err
	}
	r.floors = floors
	// The first kernel run warms the table and the cores; it is not
	// kept.
	calibrate()
	for i := 0; i < reps; i++ {
		g, err := r.region(ctx, false)
		if err != nil {
			return nil, err
		}
		g.env.close()
		r.setup = append(r.setup, g.env.setupS)
		if g.ok {
			r.wall = append(r.wall, g.wall)
			r.cpu = append(r.cpu, g.cpu)
			if r.epochWall == nil {
				r.epochWall = make([][]float64, len(g.epochs))
				r.epochPackets = make([][]float64, len(g.epochs))
			}
			for k, ep := range g.epochs {
				r.epochWall[k] = append(r.epochWall[k], ep.wall)
				r.epochPackets[k] = append(r.epochPackets[k], float64(ep.out.Packets))
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: rep %d setup %.3fs run %.3fs cpu %.3fs ok=%v\n",
			i, g.env.setupS, g.wall, g.cpu, g.ok)
	}
	res := &result{}
	if traced {
		g, err := r.region(ctx, true)
		if err != nil {
			return nil, err
		}
		g.env.close()
		fmt.Fprintf(os.Stderr, "perfbench: traced setup %.3fs run %.3fs cpu %.3fs ok=%v\n",
			g.env.setupS, g.wall, g.cpu, g.ok)
		res.Metrics = r.layerMetrics(g)
	} else {
		res.Metrics = r.endToEnd()
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0 && r.attempted > 0
	return res, nil
}

// region sets up an env and runs its timed region, checking every
// output. Set-up errors are returned; output errors fail the region.
func (r *runner) region(ctx context.Context, traced bool) (*region, error) {
	e, err := setUp(ctx, r.wl, traced)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if e.sched != nil {
		r.compile = append(r.compile, e.compileS)
	}
	g := &region{env: e}
	if e.tr != nil {
		e.tr.reset()
	}
	// The calibration kernel runs after set-up and after every timed
	// run or epoch, so its samples spread over the whole run.
	if r.wl.Epochs == 0 {
		r.calibrate()
		g.snapshot()
		t, o, err := e.batchRun(ctx)
		g.timing = t
		if g.ok = r.check(o, 0, err); g.ok {
			r.regionPackets = o.Packets
		}
		r.calibrate()
		return g, nil
	}
	ok := r.check(e.bootOutcome(), 0, nil)
	r.calibrate()
	if !ok {
		return g, nil
	}
	g.snapshot()
	var packets int64
	for k := 1; k <= r.wl.Epochs; k++ {
		ep, err := e.monitorEpoch(ctx)
		passed := r.check(ep.out, k, err)
		r.calibrate()
		if !passed {
			return g, nil
		}
		g.wall += ep.wall
		g.cpu += ep.cpu
		g.epochs = append(g.epochs, ep)
		packets += ep.out.Packets
	}
	g.ok = true
	r.regionPackets = packets
	return g, nil
}

// calibrate runs the calibration kernel after a full collection, so no
// leftover garbage is marked on its clock, and records its time.
func (r *runner) calibrate() {
	runtime.GC()
	r.cals = append(r.cals, calibrate())
}

// hostScale converts this run's raw seconds to reference-host seconds
// (see calibrate.go). The median over every kernel sample of the run
// follows the host's speed across runs; a region's own few samples
// would mostly add the kernel's noise.
func (r *runner) hostScale() float64 { return calRef / median(r.cals) }

func (g *region) snapshot() {
	g.counters0 = g.env.reg.Snapshot().Counters
	g.spans0 = len(g.env.reg.Spans())
}

// check scores one operation against the reference (outcome idx) and
// the accuracy floors.
func (r *runner) check(o outcome, idx int, err error) bool {
	r.attempted++
	if err == nil {
		var ref *outcome
		if r.ref != nil {
			if idx >= len(r.ref) {
				err = fmt.Errorf("no reference outcome %d", idx)
			} else {
				ref = &r.ref[idx]
			}
		}
		if err == nil {
			err = o.check(ref, r.floors)
		}
	}
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s output %d failed: %v\n", r.wl.Name, idx, err)
		return false
	}
	if r.ref == nil {
		r.recorded = append(r.recorded, o)
	}
	r.last = o
	return true
}

// endToEnd assembles the untraced metrics.
func (r *runner) endToEnd() map[string]metric {
	rep := r.last.report
	eligible := float64(max(r.last.Eligible, 1))
	k := r.hostScale()
	m := map[string]metric{
		"setup_s":     {k * median(r.setup), "s"},
		"run_s":       {k * median(r.wall), "s"},
		"cpu_s":       {k * median(r.cpu), "s"},
		"peak_rss_mb": {peakRSSMB(), "MiB"},
	}
	if rep != nil {
		m["precision"] = metric{rep.Precision, "ratio"}
		m["recall"] = metric{rep.Recall, "ratio"}
		m["purity"] = metric{rep.Purity, "ratio"}
		m["no_verdict_ratio"] = metric{float64(rep.NoVerdict) / eligible, "ratio"}
	}
	if r.wl.Epochs == 0 {
		// A batch run is one from-scratch epoch.
		m["packets_per_block"] = metric{float64(r.regionPackets) / eligible, "packets"}
		m["epoch_s_p50"] = metric{k * median(r.wall), "s"}
		m["packets_per_epoch"] = metric{float64(r.regionPackets), "packets"}
	} else {
		// Epochs differ in how much churn they repair, so pooling every
		// epoch's time would put the median between epochs of unlike
		// work, where noise moves it most. Each epoch index's median
		// over the regions comes first; the metric is the median epoch.
		m["packets_per_block"] = metric{float64(r.regionPackets) / (eligible * float64(r.wl.Epochs)), "packets"}
		m["epoch_s_p50"] = metric{k * medianOfMedians(r.epochWall), "s"}
		m["packets_per_epoch"] = metric{medianOfMedians(r.epochPackets), "packets"}
	}
	return m
}

// medianOfMedians is the median over the rows of each row's median.
func medianOfMedians(rows [][]float64) float64 {
	meds := make([]float64, len(rows))
	for i, row := range rows {
		meds[i] = median(row)
	}
	return median(meds)
}

// Stage names grouped as the per-layer metrics split them.
var (
	measureStages  = []string{core.StageMeasure, monitor.StageReprobe}
	validateStages = []string{core.StageValidate, monitor.StageValidate}
)

// layerMetrics assembles the per-layer metrics of a traced region.
func (r *runner) layerMetrics(g *region) map[string]metric {
	e, tr := g.env, g.env.tr
	m := map[string]metric{}
	count := func(name string, v float64) { m[name] = metric{v, "count"} }
	secs := func(name string, v float64) { m[name] = metric{v, "s"} }
	ratio := func(name string, num, den float64) {
		v := 0.0
		if den > 0 {
			v = num / den
		}
		m[name] = metric{v, "ratio"}
	}

	after := e.reg.Snapshot().Counters
	cnt := func(name string) float64 { return float64(after[name] - g.counters0[name]) }
	stageCnt := func(stages []string, suffix string) float64 {
		t := 0.0
		for _, s := range stages {
			t += cnt("probe." + s + "." + suffix)
		}
		return t
	}
	spans := e.reg.Spans()[g.spans0:]
	spanS := func(names ...string) []float64 {
		var d []float64
		for _, s := range spans {
			for _, n := range names {
				if s.Name == n {
					d = append(d, s.DurationMS/1e3)
				}
			}
		}
		return d
	}

	// netsim, through the probing and census wrappers.
	var probes, pings, busy float64
	for i, gname := range groupNames {
		p, q := &tr.net.probes[i], &tr.net.pings[i]
		b := p.busy() + q.busy()
		count("netsim.probe_calls."+gname, p.calls())
		count("netsim.ping_calls."+gname, q.calls())
		secs("netsim.probe_busy_s."+gname, b)
		probes, pings, busy = probes+p.calls(), pings+q.calls(), busy+b
	}
	count("netsim.probe_calls", probes)
	count("netsim.ping_calls", pings)
	secs("netsim.probe_busy_s", busy)
	count("netsim.scan_calls", tr.scan.calls.calls())
	secs("netsim.scan_busy_s", tr.scan.calls.busy())

	// faultplan, through the fault-view wrapper.
	events, fbusy := 0.0, 0.0
	var queries [numQueries]float64
	if e.sched != nil {
		events = float64(len(e.sched.Events()))
		for i := range queries {
			queries[i] = tr.faults.queries[i].calls()
			fbusy += tr.faults.queries[i].busy()
		}
	}
	count("faultplan.events", events)
	secs("faultplan.compile_s", median(r.compile))
	for i, q := range queryNames {
		count("faultplan.queries."+q, queries[i])
	}
	secs("faultplan.busy_s", fbusy)

	// zmap census.
	count("census.pings", cnt("census.scan_pings"))
	count("census.responders", cnt("census.responders"))
	count("census.eligible_blocks", cnt("census.eligible_blocks"))
	secs("census.window_s", sum(spanS(core.StageCensus)))

	// probe and hobbit: the measurement campaign (monitor reprobe).
	mprobes := stageCnt(measureStages, "probes")
	count("measure.probes", mprobes)
	count("measure.pings", stageCnt(measureStages, "pings"))
	ratio("measure.retry_ratio", stageCnt(measureStages, "probe_retries"), mprobes)
	count("measure.degraded_windows", stageCnt(measureStages, "degraded_windows"))
	secs("measure.first_result_s", median(tr.firstS))
	secs("measure.last_result_s", median(tr.lastS))

	// aggregate and cluster.
	count("aggregate.blocks_out", float64(r.last.aggregates))
	count("cluster.sealed_components", cnt("cluster.sealed_components"))
	count("cluster.seal_invalidations", cnt("cluster.seal_invalidations"))
	secs("cluster.tail_s", sum(spanS(core.StageCluster, monitor.StageCluster)))

	// validation.
	vtail := sum(spanS(core.StageValidate, monitor.StageValidate))
	secs("validate.tail_s", vtail)
	ratio("validate.tail_share", vtail, g.wall)
	count("validate.probes", stageCnt(validateStages, "probes"))
	count("validate.blocks_reprobed", cnt("validate.blocks_reprobed"))
	count("validate.pairs_checked", cnt("validate.pairs_checked"))

	// monitor, per-epoch medians (zero on batch workloads).
	perEpoch := func(f func(*monitor.EpochReport) int) float64 {
		var v []float64
		for _, ep := range g.epochs {
			v = append(v, float64(f(ep.rep)))
		}
		return median(v)
	}
	count("monitor.changed_blocks", perEpoch(func(r *monitor.EpochReport) int { return r.Changed }))
	count("monitor.reprobed_blocks", perEpoch(func(r *monitor.EpochReport) int { return r.Reprobed }))
	count("monitor.components_recomputed", perEpoch(func(r *monitor.EpochReport) int { return r.Cluster.Recomputed }))
	count("monitor.validations_reused", perEpoch(func(r *monitor.EpochReport) int { return r.ValReused }))
	count("monitor.validations_recomputed", perEpoch(func(r *monitor.EpochReport) int { return r.ValRecomputed }))
	secs("monitor.reprobe_s", median(spanS(monitor.StageReprobe)))
	secs("monitor.cluster_s", median(spanS(monitor.StageCluster)))
	secs("monitor.validate_s", median(spanS(monitor.StageValidate)))

	// Go runtime.
	secs("gc.cpu_s", tr.runtime[0])
	count("gc.cycles", tr.runtime[1])
	m["alloc_mb"] = metric{tr.runtime[2] / (1 << 20), "MiB"}

	// Self CPU per package, from the region's CPU profile.
	total := 0.0
	for _, b := range cpuBuckets {
		v := float64(tr.cpuNS[b]) / 1e9
		secs("cpu_self."+b, v)
		total += v
	}
	secs("cpu_profile.total_s", total)

	secs("host.cal_s", median(r.cals))
	k := r.hostScale()
	secs("trace.run_s", k*g.wall)
	secs("trace.overhead_s", k*(g.wall-median(r.wall)))
	return m
}
