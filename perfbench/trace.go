package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/hobbit"
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/monitor"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/zmap"
)

// The traced run's wrappers sit at the layer boundaries the program
// already has interfaces for: probe.Network (beneath probe.Instrument,
// so SetStage and the retry and degradation observers stay on the
// outer value the pipeline type-asserts), zmap.Scanner, and the
// netsim.FaultView a fault plan installs. Each counts every call and
// the wall time spent inside them, summed over workers.

// sampleEvery is the call stride at which the wrappers read the clock.
// A clock read costs about as much as a simulated probe, so timing
// every call would more than double the traced run; busy time is the
// sampled calls' time scaled by the stride.
const sampleEvery = 32

// numShards spreads a counter over cache lines keyed by the call's
// destination, so the two workers, which probe different blocks,
// rarely contend on one line.
const numShards = 16

type shard struct {
	calls, busyNS atomic.Int64
	_             [48]byte
}

// callCounter counts calls and sampled busy time at one boundary.
type callCounter struct{ shards [numShards]shard }

// start counts one call under key and reports whether to time it.
func (c *callCounter) start(key uint32) (*shard, bool) {
	s := &c.shards[key%numShards]
	return s, s.calls.Add(1)%sampleEvery == 0
}

// stop records a timed call that began at t0.
func (s *shard) stop(t0 time.Time) { s.busyNS.Add(int64(now().Sub(t0)) * sampleEvery) }

func (c *callCounter) calls() float64 {
	var n int64
	for i := range c.shards {
		n += c.shards[i].calls.Load()
	}
	return float64(n)
}

// busy returns the estimated busy time in seconds.
func (c *callCounter) busy() float64 {
	var n int64
	for i := range c.shards {
		n += c.shards[i].busyNS.Load()
	}
	return float64(n) / 1e9
}

func (c *callCounter) reset() {
	for i := range c.shards {
		c.shards[i].calls.Store(0)
		c.shards[i].busyNS.Store(0)
	}
}

// Probing-stage groups the netsim counters split by: the pipeline's
// measurement campaign and the monitor's reprobe are one group, the
// pipeline's and the monitor's validation the other.
const (
	groupMeasure = iota
	groupValidate
	numGroups
)

var groupNames = [numGroups]string{"measure", "validate"}

func stageGroup(stage string) int {
	if stage == core.StageValidate || stage == monitor.StageValidate {
		return groupValidate
	}
	return groupMeasure
}

// timedNet times the simulated probing surface.
type timedNet struct {
	inner probe.Network
	// outer is the probe.Instrument stacked on top; its current stage
	// attributes each call.
	outer         *probe.Instrumented
	probes, pings [numGroups]callCounter
}

func (t *timedNet) Ping(dst iputil.Addr, seq int) (probe.PingResult, bool) {
	s, timeIt := t.pings[stageGroup(t.outer.Stage())].start(uint32(dst) >> 8)
	if !timeIt {
		return t.inner.Ping(dst, seq)
	}
	t0 := now()
	r, ok := t.inner.Ping(dst, seq)
	s.stop(t0)
	return r, ok
}

func (t *timedNet) Probe(dst iputil.Addr, ttl int, flowID uint16, salt uint32) probe.Result {
	s, timeIt := t.probes[stageGroup(t.outer.Stage())].start(uint32(dst) >> 8)
	if !timeIt {
		return t.inner.Probe(dst, ttl, flowID, salt)
	}
	t0 := now()
	r := t.inner.Probe(dst, ttl, flowID, salt)
	s.stop(t0)
	return r
}

// timedScanner times the census surface.
type timedScanner struct {
	inner zmap.Scanner
	calls callCounter
}

func (t *timedScanner) ScanPing(a iputil.Addr) bool {
	s, timeIt := t.calls.start(uint32(a) >> 8)
	if !timeIt {
		return t.inner.ScanPing(a)
	}
	t0 := now()
	ok := t.inner.ScanPing(a)
	s.stop(t0)
	return ok
}

// Fault-plan query methods, in metric order.
const (
	qBlackholed = iota
	qRateBoost
	qLossBoost
	qFlapKey
	qEpochDelta
	numQueries
)

var queryNames = [numQueries]string{"blackholed", "rate_boost", "loss_boost", "flap_key", "epoch_delta"}

// timedFaults times the installed fault plan. It forwards EpochDelta
// too: netsim.World.EpochDelta reports every block changed when the
// installed view is not a netsim.DeltaView, which would silently turn
// every monitor epoch into a full reprobe.
type timedFaults struct {
	inner   netsim.DeltaView
	queries [numQueries]callCounter
}

var _ netsim.DeltaView = (*timedFaults)(nil)

func (f *timedFaults) Blackholed(epoch int, dst iputil.Addr) bool {
	s, timeIt := f.queries[qBlackholed].start(uint32(dst) >> 8)
	if !timeIt {
		return f.inner.Blackholed(epoch, dst)
	}
	t0 := now()
	ok := f.inner.Blackholed(epoch, dst)
	s.stop(t0)
	return ok
}

func (f *timedFaults) RateBoost(epoch int, popID int32) float64 {
	s, timeIt := f.queries[qRateBoost].start(uint32(popID))
	if !timeIt {
		return f.inner.RateBoost(epoch, popID)
	}
	t0 := now()
	v := f.inner.RateBoost(epoch, popID)
	s.stop(t0)
	return v
}

func (f *timedFaults) LossBoost(epoch int, vantage int) float64 {
	s, timeIt := f.queries[qLossBoost].start(uint32(vantage))
	if !timeIt {
		return f.inner.LossBoost(epoch, vantage)
	}
	t0 := now()
	v := f.inner.LossBoost(epoch, vantage)
	s.stop(t0)
	return v
}

func (f *timedFaults) FlapKey(epoch int, b iputil.Block24) (uint64, bool) {
	s, timeIt := f.queries[qFlapKey].start(uint32(b))
	if !timeIt {
		return f.inner.FlapKey(epoch, b)
	}
	t0 := now()
	k, ok := f.inner.FlapKey(epoch, b)
	s.stop(t0)
	return k, ok
}

// EpochDelta is called once per monitor epoch, so every call is timed.
func (f *timedFaults) EpochDelta(e1, e2 int) netsim.RouteDelta {
	s, _ := f.queries[qEpochDelta].start(0)
	t0 := now()
	d := f.inner.EpochDelta(e1, e2)
	s.busyNS.Add(int64(now().Sub(t0)))
	return d
}

// runtimeMetrics are the Go runtime's cumulative counters the traced
// run reports as deltas, in order: GC CPU seconds, GC cycles, heap
// bytes allocated.
var runtimeMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

func readRuntime() [3]float64 {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	var v [3]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		}
	}
	return v
}

// tracer owns a traced env's wrappers and accumulates what they, the
// Go runtime, and a CPU profile record over the traced timed regions.
type tracer struct {
	net    *timedNet
	scan   *timedScanner
	faults *timedFaults // nil on a clean world

	rt0     [3]float64
	runtime [3]float64
	prof    bytes.Buffer
	// cpuNS is self CPU time per package bucket (see pkgBucket).
	cpuNS map[string]int64

	// Result-sink timestamps, relative to the current region's start.
	start       time.Time
	first, last time.Duration
	seen        bool
	// firstS and lastS collect each region's first and last result.
	firstS, lastS []float64
}

func newTracer() *tracer { return &tracer{cpuNS: make(map[string]int64)} }

// sink is the pipeline's ResultSink: it runs on the collector
// goroutine, never concurrently.
func (tr *tracer) sink(*hobbit.BlockResult) {
	d := now().Sub(tr.start)
	if !tr.seen {
		tr.first, tr.seen = d, true
	}
	tr.last = d
}

// reset forgets what the wrappers counted during set-up.
func (tr *tracer) reset() {
	for i := range tr.net.probes {
		tr.net.probes[i].reset()
		tr.net.pings[i].reset()
	}
	tr.scan.calls.reset()
	if tr.faults != nil {
		for i := range tr.faults.queries {
			tr.faults.queries[i].reset()
		}
	}
}

// begin opens a traced region: runtime counters, a CPU profile, and
// the result-sink clock.
func (tr *tracer) begin() error {
	tr.rt0 = readRuntime()
	tr.prof.Reset()
	if err := pprof.StartCPUProfile(&tr.prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	tr.seen = false
	tr.start = now()
	return nil
}

// end closes the region begin opened and folds its numbers in.
func (tr *tracer) end() error {
	pprof.StopCPUProfile()
	rt := readRuntime()
	for i := range rt {
		tr.runtime[i] += rt[i] - tr.rt0[i]
	}
	if tr.seen {
		tr.firstS = append(tr.firstS, tr.first.Seconds())
		tr.lastS = append(tr.lastS, tr.last.Seconds())
	}
	self, err := selfCPU(tr.prof.Bytes())
	if err != nil {
		return err
	}
	for fn, ns := range self {
		tr.cpuNS[pkgBucket(fn)] += ns
	}
	return nil
}
