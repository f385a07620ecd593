package hobbit

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// FeedItem is one block handed to a streaming campaign: the /24 to
// measure and its census actives split by /26. Carrying the actives on
// the item lets a census stream feed the campaign chunk by chunk, with
// no materialized dataset behind the feeder.
type FeedItem struct {
	Block iputil.Block24
	By26  [4][]iputil.Addr
}

// RunStream measures blocks as a feeder produces them, instead of taking
// the full block list up front. Workers drain feed through a bounded
// handout window; results are re-sequenced so that the sink — and the
// Result's Order — observe them strictly in feed order, no matter how
// the workers interleaved. A sink consuming results incrementally (the
// pipeline's aggregation stage) therefore sees exactly the sequence a
// serial loop over the fed blocks would produce
// (TestRunStreamMatchesRun pins this).
//
// The re-sequencing window is bounded: a worker may hold at most one
// out-of-order result and at most 4×Workers items are in flight beyond
// the emitted prefix, so a single slow block stalls the feeder rather
// than buffering the campaign.
//
// Progress events report Total 0 while the feed is open, because the
// number of blocks is not known until it closes; once it has closed they
// report the final count, and the last event of a completed campaign
// always reads Done == Total.
//
// sink may be nil. On cancellation RunStream stops consuming the feed,
// drains in-flight blocks, and returns the emitted prefix together with
// ctx.Err(); Order then lists only the emitted blocks.
func (c *Campaign) RunStream(ctx context.Context, feed <-chan FeedItem, sink func(*BlockResult)) (*Result, error) {
	return c.runStream(ctx, feed, 0, sink)
}

// runStream is RunStream with the block count known up front when total
// is > 0 (Run's list feeder), so progress events carry it from the
// first block on.
func (c *Campaign) runStream(ctx context.Context, feed <-chan FeedItem, total int, sink func(*BlockResult)) (*Result, error) {
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	res := &Result{Blocks: make(map[iputil.Block24]*BlockResult, total)}
	met := c.metrics()
	load, _ := c.Measurer.Net.(loadReporter)

	type job struct {
		seq int
		it  FeedItem
	}
	type item struct {
		seq int
		br  *BlockResult
	}
	// gate holds one token per item handed out but not yet emitted to
	// the sink; the feeder takes a token before forwarding an item and
	// the collector returns it when the item leaves the reorder buffer.
	gate := make(chan struct{}, 4*workers)
	in := make(chan job)
	out := make(chan item)
	// fed is the block count once the feed has closed (0 before).
	var fed atomic.Int64
	fed.Store(int64(total))
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for j := range in {
				br := c.Measurer.MeasureBlock(j.it.Block, j.it.By26)
				met.record(&br)
				out <- item{seq: j.seq, br: &br}
			}
		}()
	}
	go func() {
		defer func() {
			close(in)
			wg.Wait()
			close(out)
		}()
		seq := 0
		for {
			var it FeedItem
			var ok bool
			select {
			case it, ok = <-feed:
				if !ok {
					fed.Store(int64(seq))
					return
				}
			case <-ctx.Done():
				return
			}
			// select picks among ready cases at random, so a ready item
			// can win over an already-cancelled context: check it here so
			// nothing is handed out once cancellation is visible.
			if ctx.Err() != nil {
				return
			}
			select {
			case gate <- struct{}{}:
			case <-ctx.Done():
				return
			}
			select {
			case in <- job{seq: seq, it: it}:
			case <-ctx.Done():
				return
			}
			seq++
		}
	}()

	var classes map[string]int
	if c.Progress != nil {
		classes = make(map[string]int)
	}
	emit := func(done, total int) {
		ev := telemetry.ProgressEvent{
			Stage:   c.stage(),
			Done:    done,
			Total:   total,
			Classes: classes,
		}
		if load != nil {
			ev.Pings = load.Pings()
			ev.Probes = load.Probes()
		}
		c.Progress.Emit(ev)
	}
	pending := make(map[int]*BlockResult)
	next, lastTotal := 0, 0
	for it := range out {
		pending[it.seq] = it.br
		// Drain the contiguous prefix: bounded by len(pending), which the
		// gate caps at 4×workers, so no ctx check is needed per step.
		for br, ok := pending[next]; ok; br, ok = pending[next] {
			delete(pending, next)
			next++
			// A token was banked before this item was handed out, so the
			// receive never blocks on a healthy run; the Done case only
			// matters after cancellation, when tokens stop circulating.
			select {
			case <-gate:
			case <-ctx.Done():
			}
			res.Blocks[br.Block] = br
			res.Order = append(res.Order, br.Block)
			if sink != nil {
				sink(br)
			}
			if c.Progress != nil {
				classes[br.Class.String()]++
				lastTotal = int(fed.Load())
				emit(next, lastTotal)
			}
		}
	}
	// The feed may close only after the last result was emitted (its
	// producer can still be filtering blocks it does not forward), so the
	// closing event may not have carried the total yet: repeat it once
	// the count is known, so a completed stream always ends on N/N.
	if c.Progress != nil && next > 0 && lastTotal != next {
		if total := int(fed.Load()); total == next {
			emit(next, total)
		}
	}
	return res, ctx.Err()
}
