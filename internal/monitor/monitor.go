// Package monitor is the continuous-monitoring mode: instead of
// re-running the whole pipeline when the network moves, a Monitor
// watches epochs advance, asks the probing surface which /24s could
// have changed routes since the previous epoch, reprobes exactly those,
// and repairs the aggregation and clustering incrementally.
//
// The headline contract is byte-identity (DESIGN.md §4j): every epoch's
// Output is exactly what a from-scratch core.Pipeline.Run would produce
// against the same surface pinned at that epoch. The incremental path
// is an execution strategy, never a different answer. Three properties
// of the stack carry it: per-/24 measurements are pure in the block
// (unchanged blocks' cached results equal a fresh measurement), the
// census ignores fault state (the /24 universe and eligibility are
// epoch-invariant), and the rolling clusterer (cluster.Rolling)
// guarantees per-epoch results identical to a from-scratch clustering
// of the same aggregate list.
package monitor

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"

	"github.com/hobbitscan/hobbit/internal/aggregate"
	"github.com/hobbitscan/hobbit/internal/cluster"
	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/hobbit"
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/zmap"
)

// Stage names for monitor spans and probe attribution.
const (
	StageReprobe  = "monitor.reprobe"
	StageCluster  = "monitor.cluster"
	StageValidate = "monitor.validate"
)

// Source is the epoch feed: Advance pins the probing surface at an
// epoch, Changed answers which /24s could have changed routes between
// two pinned epochs. A conservative superset is always safe — extra
// blocks cost reprobes, never correctness; all=true degrades to a full
// reprobe.
type Source interface {
	Advance(epoch int)
	Changed(prev, next int) (blocks []iputil.Block24, all bool)
}

// WorldSource adapts a simulated world to the Source interface through
// the fault-epoch pin: the world's measurement epoch stays fixed (so
// availability draws — and with them the census — never move), while
// the fault schedule alone advances, and the schedule's own delta
// analysis bounds the changed set.
type WorldSource struct {
	W *netsim.World
}

func (s *WorldSource) Advance(epoch int) { s.W.SetFaultEpoch(epoch) }

func (s *WorldSource) Changed(prev, next int) ([]iputil.Block24, bool) {
	return s.W.EpochDelta(prev, next)
}

// EpochReport accounts one epoch's incremental work.
type EpochReport struct {
	// Epoch is the epoch index this report covers (0 = bootstrap).
	Epoch int
	// Changed is the size of the changed-block superset the source
	// reported; All whether it degraded to the full universe. Reprobed
	// is the eligible subset actually re-measured.
	Changed  int
	All      bool
	Reprobed int
	// Cluster is the rolling clusterer's work accounting.
	Cluster cluster.EpochStats
	// ValReused and ValRecomputed count validation-cache hits and the
	// clusters revalidated with live reprobes.
	ValReused, ValRecomputed int
	// Output is the epoch's full artifact set, byte-identical to a
	// from-scratch run at this epoch.
	Output *core.Output
}

// valEntry is one cached cluster validation: the outcome plus the
// member /24s whose reprobe responses it rests on, kept for eviction
// against later change sets.
type valEntry struct {
	v       cluster.Validation
	members []iputil.Block24
}

// Monitor runs the continuous-monitoring loop over a pipeline
// configuration. A Pipeline plus a Source makes it ready; the first
// Step bootstraps (census plus full measurement), later Steps cost work
// proportional to the churned blocks. End with Close.
type Monitor struct {
	// Pipeline supplies the probing surface, universe, seed, and run
	// options. The monitor never calls its Run; it drives Run's stage
	// functions (Measure, Aggregator, ValidateClusters) incrementally.
	Pipeline *core.Pipeline
	// Source feeds epochs and change sets.
	Source Source

	epoch    int
	ds       *zmap.Dataset
	eligible []iputil.Block24
	results  map[iputil.Block24]*hobbit.BlockResult
	roll     *cluster.Rolling
	vals     map[string]valEntry
	// lastHops caches exhaustive validation reprobes across epochs,
	// evicted by the same conservative change sets as the validation
	// cache. Validation is the epoch's dominant probe cost — every
	// recomputed cluster reprobes up to 2·ValidatePairs members — and
	// per-/24 measurement purity makes an unchanged block's cached
	// response exactly what a live reprobe would return.
	lastHops map[iputil.Block24][]iputil.Addr
}

// Step advances to the next epoch: pins the source, reprobes the
// changed eligible blocks, replays aggregation over the merged result
// set, repairs the clustering, and revalidates only clusters touched by
// the change set. The returned report's Output is byte-identical to a
// from-scratch run at the new epoch; on error the report carries
// whatever completed.
func (m *Monitor) Step(ctx context.Context) (*EpochReport, error) {
	p := m.Pipeline
	if p == nil || m.Source == nil {
		return nil, errors.New("monitor: Monitor needs Pipeline and Source")
	}
	if err := p.Check(); err != nil {
		return nil, err
	}
	e := m.epoch
	m.Source.Advance(e)
	rep := &EpochReport{Epoch: e}
	var err error
	if m.results == nil {
		err = m.bootstrap(ctx, rep)
	} else {
		err = m.reprobe(ctx, rep)
	}
	if err != nil {
		return rep, err
	}
	reg := p.Telemetry
	reg.Counter("monitor.epochs").Inc()
	reg.Counter("monitor.changed_blocks").Add(int64(rep.Changed))
	reg.Counter("monitor.reprobed_blocks").Add(int64(rep.Reprobed))

	out, err := m.assemble(ctx, rep)
	rep.Output = out
	if err != nil {
		return rep, err
	}
	if p.ResultSink != nil {
		for _, b := range out.Campaign.Order {
			p.ResultSink(out.Campaign.Blocks[b])
		}
	}
	m.epoch++
	return rep, nil
}

// bootstrap runs the front end of a from-scratch run — census plus a
// campaign over every eligible block — and sets up the caches. The
// census ignores fault state, so its one sweep serves every epoch: the
// universe and eligibility never move. A cancelled bootstrap leaves the
// monitor unbootstrapped.
func (m *Monitor) bootstrap(ctx context.Context, rep *EpochReport) error {
	p := m.Pipeline
	out, err := p.Measure(ctx, StageReprobe, nil)
	if err != nil {
		return err
	}
	m.ds, m.eligible, m.results = out.Dataset, out.Eligible, out.Campaign.Blocks
	if !p.SkipClustering {
		m.roll = (&cluster.Pipeline{Seed: p.Seed, Workers: p.ClusterWorkers, Telemetry: p.Telemetry}).Rolling()
	}
	m.vals = make(map[string]valEntry)
	m.lastHops = make(map[iputil.Block24][]iputil.Addr)
	rep.All = true
	rep.Reprobed = len(m.eligible)
	return nil
}

// reprobe re-measures the eligible blocks in the source's change set
// since the previous epoch. It first evicts what the change set makes
// stale: the changed blocks' cached reprobe responses and every cached
// validation with a changed member (everything when the delta degraded
// to All), because their responses may differ this epoch.
func (m *Monitor) reprobe(ctx context.Context, rep *EpochReport) error {
	p := m.Pipeline
	changed, all := m.Source.Changed(rep.Epoch-1, rep.Epoch)
	rep.All, rep.Changed = all, len(changed)
	blocks := m.eligible
	if all {
		rep.Changed = len(p.Blocks)
		clear(m.vals)
		clear(m.lastHops)
	} else {
		changedSet := make(map[iputil.Block24]bool, len(changed))
		for _, b := range changed {
			changedSet[b] = true
			delete(m.lastHops, b)
		}
		for k, ent := range m.vals {
			for _, b := range ent.members {
				if changedSet[b] {
					delete(m.vals, k)
					break
				}
			}
		}
		// Intersect with the eligible list in eligible order, so the
		// sub-campaign is a strict subsequence of the from-scratch one.
		blocks = nil
		for _, b := range m.eligible {
			if changedSet[b] {
				blocks = append(blocks, b)
			}
		}
	}
	rep.Reprobed = len(blocks)

	span := p.Telemetry.StartSpan(StageReprobe)
	res, err := p.Campaign(StageReprobe, m.ds).Run(ctx, blocks)
	span.End()
	for b, br := range res.Blocks {
		m.results[b] = br
	}
	return err
}

// assemble replays aggregation over the merged per-block results and
// repairs clustering and validation, producing the epoch's Output.
func (m *Monitor) assemble(ctx context.Context, rep *EpochReport) (*core.Output, error) {
	p := m.Pipeline
	reg := p.Telemetry
	out := &core.Output{Dataset: m.ds, Eligible: m.eligible}
	blocks := make(map[iputil.Block24]*hobbit.BlockResult, len(m.results))
	for b, br := range m.results {
		blocks[b] = br
	}
	out.Campaign = &hobbit.Result{Blocks: blocks, Order: m.eligible}

	// Aggregation replay: cheap string grouping over cached results, in
	// campaign order through the same stage a from-scratch run feeds — a
	// block whose reprobe exhausted its budget this epoch drops out of
	// aggregation this epoch.
	agg := p.NewAggregator(nil)
	for _, b := range m.eligible {
		agg.Add(blocks[b])
	}
	agg.Finish(out)
	if p.SkipClustering {
		out.Final = out.Aggregates
		return out, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}

	span := reg.StartSpan(StageCluster)
	clRes, stats := m.roll.Epoch(out.Aggregates)
	out.Clustering = clRes
	rep.Cluster = stats
	reg.Counter("monitor.components_reused").Add(int64(stats.Reused))
	reg.Counter("monitor.components_recomputed").Add(int64(stats.Recomputed))
	reg.Counter("monitor.delta_edges").Add(int64(stats.DeltaEdges))
	span.End()
	if err := ctx.Err(); err != nil {
		return out, err
	}

	return out, m.validate(ctx, out, rep, agg.Interner())
}

// validate runs the validation stage with the monitor's caches as hooks.
// A cached validation is keyed by cluster identity — ID plus member
// /24s, because the reprobe pair sampling is keyed by cluster ID — and
// entries whose members appeared in any change set since computation
// were already evicted, so a hit is provably what a live revalidation
// would return. Reprobes consult the cross-epoch response cache first.
func (m *Monitor) validate(ctx context.Context, out *core.Output, rep *EpochReport, interner *aggregate.Interner) error {
	p := m.Pipeline
	reg := p.Telemetry
	clusters := out.Clustering.Clusters
	keys := make([]string, len(clusters))
	for i, c := range clusters {
		keys[i] = valKey(c)
	}
	err := p.ValidateClusters(ctx, StageValidate, out, interner, core.ValidateHooks{
		Cached: func(i int) (cluster.Validation, bool) {
			ent, ok := m.vals[keys[i]]
			if ok {
				rep.ValReused++
			}
			return ent.v, ok
		},
		Reprober: func(live cluster.Reprober) cluster.Reprober {
			return &reprober{live: live, mon: m}
		},
	})
	rep.ValRecomputed = len(clusters) - rep.ValReused
	reg.Counter("monitor.validations_reused").Add(int64(rep.ValReused))
	reg.Counter("monitor.validations_recomputed").Add(int64(rep.ValRecomputed))
	if err != nil {
		// Cancelled mid-validation: keep the old cache (it stays sound —
		// eviction already happened against this epoch's change set).
		return err
	}
	// Rebuild the cache from this epoch's validations only, so clusters
	// that dissolved do not accumulate.
	next := make(map[string]valEntry, len(clusters))
	for i, c := range clusters {
		next[keys[i]] = valEntry{v: out.Validations[c.ID], members: c.Blocks24()}
	}
	m.vals = next
	return nil
}

// valKey is a cluster's validation-cache identity: the ID (the reprobe
// pair sampling is keyed by it) plus the member /24 list.
func valKey(c *cluster.Cluster) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(c.ID))
	for _, blk := range c.Blocks24() {
		b.WriteByte(0)
		b.WriteString(blk.String())
	}
	return b.String()
}

// Epoch returns the next epoch Step will pin (equivalently, how many
// epochs have completed).
func (m *Monitor) Epoch() int { return m.epoch }

// Run steps through n epochs and returns their reports; on error the
// reports completed so far are returned alongside it.
func (m *Monitor) Run(ctx context.Context, n int) ([]*EpochReport, error) {
	var reps []*EpochReport
	for i := 0; i < n; i++ {
		rep, err := m.Step(ctx)
		if rep != nil {
			reps = append(reps, rep)
		}
		if err != nil {
			return reps, err
		}
	}
	return reps, nil
}

// Close releases the rolling clusterer's worker pool. The Monitor is
// dead afterwards.
func (m *Monitor) Close() {
	if m.roll != nil {
		m.roll.Close()
		m.roll = nil
	}
}

// reprober consults the monitor's cross-epoch reprobe cache before the
// live exhaustive reprober: a block absent from every change set since
// its last reprobe answers from the cache (purity makes the bytes
// identical), so a revalidated cluster only pays live probes for its
// churned members.
type reprober struct {
	live cluster.Reprober
	mon  *Monitor

	mu sync.Mutex
}

func (r *reprober) Reprobe(b iputil.Block24) []iputil.Addr {
	r.mu.Lock()
	lhs, ok := r.mon.lastHops[b]
	r.mu.Unlock()
	if !ok {
		// A concurrent miss on the same block measures twice; purity makes
		// both answers identical, so last-write-wins is safe.
		lhs = r.live.Reprobe(b)
		r.mu.Lock()
		r.mon.lastHops[b] = lhs
		r.mu.Unlock()
	}
	// Callers sort the returned slice in place, and concurrent
	// validations may share a member: hand each its own copy.
	if lhs == nil {
		return nil
	}
	out := make([]iputil.Addr, len(lhs))
	copy(out, lhs)
	return out
}
