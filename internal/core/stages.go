package core

import (
	"context"
	"sync"

	"github.com/hobbitscan/hobbit/internal/aggregate"
	"github.com/hobbitscan/hobbit/internal/cluster"
	"github.com/hobbitscan/hobbit/internal/hobbit"
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/parallel"
	"github.com/hobbitscan/hobbit/internal/telemetry"
	"github.com/hobbitscan/hobbit/internal/zmap"
)

// Measure runs the pipeline's front end, the census pipelined into the
// measurement campaign: census chunks of StreamChunk blocks stream off
// zmap.Stream, a feeder filters each chunk for eligibility and hands the
// eligible blocks — with their chunk-local actives — to the campaign
// workers, and sink (nil allowed) observes every result in campaign
// order, on the collector goroutine, as soon as it is final. Chunks
// arrive in block order, so the eligible list and the campaign Order
// are the same at any chunk size or worker count.
//
// Probes, progress events, and the campaign span are attributed to
// stage. The returned Output carries Dataset, Eligible, and Campaign; on
// cancellation they hold the completed prefix and the error is
// ctx.Err(). Peak memory is bounded by the stream window plus the
// campaign handout window; the merged dataset and the campaign result
// are retained, because validation reprobes against the full census.
func (p *Pipeline) Measure(ctx context.Context, stage string, sink func(*hobbit.BlockResult)) (*Output, error) {
	reg := p.Telemetry
	// The pipelined stages overlap, so their spans do too: each span
	// covers the window its stage was active in.
	censusSpan := reg.StartSpan(StageCensus)
	measureSpan := reg.StartSpan(stage)
	defer measureSpan.End()
	campaign := p.Campaign(stage, nil)

	// The stream's context is cancelled as soon as the campaign stops
	// consuming (error or not), so scan workers never outlive the run.
	sctx, cancelScan := context.WithCancel(ctx)
	defer cancelScan()
	chunks := zmap.Stream(sctx, p.Scanner, p.Blocks, zmap.StreamOptions{
		Workers:   p.CensusWorkers,
		ChunkSize: p.StreamChunk,
		Telemetry: reg,
	})

	// The feeder owns dataset and eligible until feedWG.Wait below, then
	// hands them to this goroutine with the Wait as the memory barrier.
	dataset := zmap.NewDataset()
	var eligible []iputil.Block24
	feed := make(chan hobbit.FeedItem)
	var feedWG sync.WaitGroup
	feedWG.Add(1)
	go func() {
		defer feedWG.Done()
		defer close(feed)
		defer censusSpan.End() // idempotent; covers cancelled sweeps too
		for c := range chunks {
			dataset.MergeChunk(c)
			for _, b := range c.Data.EligibleBlocks(c.Blocks, p.minActive()) {
				eligible = append(eligible, b)
				select {
				case feed <- hobbit.FeedItem{Block: b, By26: c.Data.ActivesBy26(b)}:
				case <-ctx.Done():
					return
				}
			}
		}
		// The census stage ends when its last chunk has been handed
		// over; the eligibility counter lands here, after the full
		// universe was filtered.
		reg.Counter("census.eligible_blocks").Add(int64(len(eligible)))
		censusSpan.End()
	}()

	res, err := campaign.RunStream(ctx, feed, sink)
	cancelScan()
	feedWG.Wait()
	return &Output{Dataset: dataset, Eligible: eligible, Campaign: res}, err
}

// Aggregator is the Section 5 aggregation stage: it groups homogeneous
// results by identical last-hop set, one Add per result in campaign
// order. Graceful degradation happens here: verdicts that rest on
// budget-exhausted measurements (hobbit.BlockResult.LowConfidence) are
// reported but kept out of aggregation, so one faulted window cannot
// poison a multi-/24 aggregate. Run feeds it from the campaign's
// collector; the monitor replays its cached results through it.
type Aggregator struct {
	reg      *telemetry.Registry
	span     *telemetry.Span
	interner *aggregate.Interner
	builder  *aggregate.Builder
	str      *cluster.Streamer
	lowConf  []iputil.Block24
	in       int
}

// NewAggregator starts an aggregation stage. str, when non-nil, observes
// every aggregate delta, so clustering overlaps whatever stage is still
// producing results; sealing runs on the logical clock of those Observe
// calls, so its output does not depend on when they happen.
func (p *Pipeline) NewAggregator(str *cluster.Streamer) *Aggregator {
	// One interner backs both the aggregation and the post-validation
	// merge, so every block that shares a last-hop set — before and after
	// cluster merging — shares one canonical slice.
	interner := aggregate.NewInterner()
	return &Aggregator{
		reg:      p.Telemetry,
		interner: interner,
		builder:  aggregate.NewBuilder(interner),
		str:      str,
	}
}

// Add takes the next result in campaign order; non-homogeneous results
// are ignored. The stage's span opens at the first Add.
func (a *Aggregator) Add(br *hobbit.BlockResult) {
	if a.span == nil {
		a.span = a.reg.StartSpan(StageAggregate)
	}
	if !br.Class.Homogeneous() {
		return
	}
	if br.LowConfidence() {
		a.lowConf = append(a.lowConf, br.Block)
		return
	}
	a.in++
	blk, isNew := a.builder.Add(br)
	if a.str != nil && blk != nil {
		a.str.Observe(blk, isNew)
	}
}

// Finish sets out.Aggregates and out.LowConfidence, records the
// aggregate.* counters, and ends the stage's span.
func (a *Aggregator) Finish(out *Output) {
	if a.span == nil {
		a.span = a.reg.StartSpan(StageAggregate)
	}
	out.Aggregates = a.builder.Finish()
	out.LowConfidence = a.lowConf
	a.reg.Counter("aggregate.homogeneous_in").Add(int64(a.in))
	a.reg.Counter("aggregate.low_confidence_excluded").Add(int64(len(a.lowConf)))
	a.reg.Counter("aggregate.blocks_out").Add(int64(len(out.Aggregates)))
	a.span.End()
}

// Abort ends the stage's span without producing aggregates, for a run
// cancelled before Finish.
func (a *Aggregator) Abort() { a.span.End() }

// Interner is the canonical last-hop-set table the aggregates share;
// ValidateClusters merges validated clusters through it.
func (a *Aggregator) Interner() *aggregate.Interner { return a.interner }

// ValidateHooks let an incremental driver reuse earlier validation work.
// The zero value validates every cluster with live exhaustive reprobes.
type ValidateHooks struct {
	// Cached returns a still-sound earlier validation of cluster i of
	// out.Clustering, if there is one. It is called serially, in
	// cluster order, before the fan-out.
	Cached func(i int) (cluster.Validation, bool)
	// Reprober wraps the live exhaustive reprober, e.g. with a cache of
	// reprobe responses. It must be safe for concurrent use.
	Reprober func(live cluster.Reprober) cluster.Reprober
}

// ValidateClusters is the Section 6.5 validation stage: it reprobes
// every cluster of out.Clustering not answered by h.Cached, merges the
// results in cluster-ID order into out.Validations and out.Validated,
// records the validate.* counters over every merged validation, and
// sets out.Final to the validated clusters merged through interner.
// Probes and the stage's span are attributed to stage. On cancellation
// the merged prefix stays in out, out.Final stays nil, and the error is
// ctx.Err().
func (p *Pipeline) ValidateClusters(ctx context.Context, stage string, out *Output, interner *aggregate.Interner, h ValidateHooks) error {
	reg := p.Telemetry
	span := reg.StartSpan(stage)
	defer span.End()
	p.setStage(stage)
	var rp cluster.Reprober = &exhaustiveReprober{m: p.newMeasurer(true), ds: out.Dataset}
	if h.Reprober != nil {
		rp = h.Reprober(rp)
	}

	// Clusters validate independently (each owns its member /24s, and
	// reprobe randomness is keyed by cluster ID), so they fan out over
	// the pool; the measurer and probing surface are the same
	// concurrency-safe objects the measurement campaign already shares
	// across workers. Results land in per-cluster slots and merge below
	// in cluster-ID order, so counters and maps tally identically whether
	// the run was serial or sharded.
	clusters := out.Clustering.Clusters
	vals := make([]cluster.Validation, len(clusters))
	done := make([]bool, len(clusters))
	todo := make([]int, 0, len(clusters))
	for i := range clusters {
		if h.Cached != nil {
			if v, ok := h.Cached(i); ok {
				vals[i], done[i] = v, true
				continue
			}
		}
		todo = append(todo, i)
	}
	pool := parallel.Pool{Workers: p.ClusterWorkers, Telemetry: reg, Stage: StageValidate}
	perr := pool.ForEach(ctx, len(todo), func(k int) {
		i := todo[k]
		vals[i] = cluster.Validate(clusters[i], rp, p.ValidatePairs, p.Seed)
		done[i] = true
	})

	pairsChecked := reg.Counter("validate.pairs_checked")
	identicalPairs := reg.Counter("validate.identical_pairs")
	reprobed := reg.Counter("validate.blocks_reprobed")
	accepted := reg.Counter("validate.clusters_validated")
	out.Validations = make(map[int]cluster.Validation, len(clusters))
	out.Validated = make(map[int]bool)
	for i, c := range clusters {
		if !done[i] {
			continue
		}
		v := vals[i]
		out.Validations[c.ID] = v
		pairsChecked.Add(int64(v.PairsChecked))
		identicalPairs.Add(int64(v.IdenticalPairs))
		reprobed.Add(int64(v.Reprobed))
		if v.Passes() {
			out.Validated[c.ID] = true
			accepted.Inc()
		}
	}
	if perr != nil {
		// Cancelled mid-validation: the merged prefix stays inspectable,
		// but no final block list is produced.
		return perr
	}
	out.Final = cluster.ApplyValidatedInterned(out.Clustering, out.Validated, interner)
	reg.Counter("validate.final_blocks").Add(int64(len(out.Final)))
	return nil
}

// exhaustiveReprober adapts the Section 6.5 modified probing strategy to
// the cluster.Reprober interface.
type exhaustiveReprober struct {
	m  *hobbit.Measurer
	ds *zmap.Dataset
}

// Reprobe measures the block exhaustively and returns its observed
// last-hop set (nil when the block no longer answers usefully).
func (r *exhaustiveReprober) Reprobe(b iputil.Block24) []iputil.Addr {
	br := r.m.MeasureBlock(b, r.ds.ActivesBy26(b))
	return br.LastHops
}
