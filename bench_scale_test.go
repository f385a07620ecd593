// Scale benchmarks: the 100k-block census, pipelined campaign,
// isolated clustering, and full streamed-pipeline legs that
// BENCH_SCALE.json gates in CI (the bench-scale job; see ci.yml and
// cmd/benchdiff for the refresh procedure). Beyond ns/op and B/op these
// legs guard peak heap: the streaming census must hold chunks, not the
// universe, and the streaming clusterer must hold component snapshots,
// not the pairwise graph, so a regression that re-materializes
// per-block state shows up here as a ceiling breach long before it
// shows up as an OOM at 1M blocks.
//
// Run with: go test -run xxx -bench '^BenchmarkScale$' -benchtime=1x -count=3 -benchmem .
package hobbit

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hobbitscan/hobbit/internal/aggregate"
	"github.com/hobbitscan/hobbit/internal/cluster"
	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/zmap"
)

// scaleBlocks is the universe size of the scale legs: large enough that
// materializing per-block intermediates would dominate memory, small
// enough for a per-PR CI job.
const scaleBlocks = 100_000

// Peak-heap ceilings, in bytes, for the scale legs — checked-in budgets
// the same way BENCH_SCALE.json pins wall clock. Measured peaks (world +
// streamed run): ~50 MB census, ~130 MB pipeline, ~230 MB isolated
// clustering (100k aggregates with per-component MCL snapshots in
// flight), ~145 MB full streamed run; the ~2.5x headroom absorbs GC
// timing and host variance, while a change that rematerializes
// per-block state (the census used to allocate millions of record
// pointers) blows through it immediately. The clustering legs guard the
// streaming clusterer the same way: the incremental graph plus
// sealed-component snapshots must stay a small multiple of the
// aggregate count, never quadratic in it.
const (
	scaleCensusHeapCeiling   = 128 << 20
	scalePipelineHeapCeiling = 320 << 20
	scaleClusterHeapCeiling  = 512 << 20
	scaleFullHeapCeiling     = 384 << 20
)

// scaleChunk is the stream chunk size used by both legs; at 100k blocks
// it keeps ~98 chunks in flight across the pipeline windows.
const scaleChunk = 1024

var (
	scaleOnce  sync.Once
	scaleWorld *netsim.World
	scaleErr   error
)

// scaleLab builds the shared 100k-block world once; benchmarks must not
// mutate it.
func scaleLab(b *testing.B) *netsim.World {
	b.Helper()
	scaleOnce.Do(func() {
		cfg := netsim.DefaultConfig(scaleBlocks)
		cfg.BigBlockScale = 0.05
		scaleWorld, scaleErr = netsim.New(cfg)
	})
	if scaleErr != nil {
		b.Fatal(scaleErr)
	}
	return scaleWorld
}

// heapPeak samples runtime.ReadMemStats on a short interval and tracks
// the maximum live heap observed, approximating the run's peak RSS.
// Sampling (rather than a post-run reading) is what catches transient
// materialization: a stage that briefly holds the whole universe and
// frees it again leaves no trace in the final heap size.
type heapPeak struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func trackHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				h.sample()
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

func (h *heapPeak) sample() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	for {
		old := h.peak.Load()
		if m.HeapAlloc <= old || h.peak.CompareAndSwap(old, m.HeapAlloc) {
			return
		}
	}
}

// Stop ends sampling and returns the peak live heap in bytes.
func (h *heapPeak) Stop() uint64 {
	close(h.stop)
	<-h.done
	h.sample()
	return h.peak.Load()
}

// guardHeap reports the observed peak as a metric and fails the leg when
// it exceeds its checked-in ceiling.
func guardHeap(b *testing.B, peak, ceiling uint64) {
	b.Helper()
	b.ReportMetric(float64(peak)/(1<<20), "peak-heap-MB")
	if peak > ceiling {
		b.Fatalf("peak heap %d MB exceeds the checked-in ceiling %d MB",
			peak>>20, ceiling>>20)
	}
}

// BenchmarkScale exercises the streaming census and the fully pipelined
// census→campaign→aggregation run at 100k blocks. Output equivalence
// with the one-shot census and the barrier-stage reference is pinned by
// TestStreamMatchesScanWith and TestPipelineStreamedIdentical; these
// legs pin the resource envelope.
func BenchmarkScale(b *testing.B) {
	w := scaleLab(b)
	blocks := w.Blocks()

	b.Run(fmt.Sprintf("census-%dk-blocks", scaleBlocks/1000), func(b *testing.B) {
		b.ReportAllocs()
		runtime.GC()
		hp := trackHeapPeak()
		b.ResetTimer()
		var actives int
		for i := 0; i < b.N; i++ {
			ds := zmap.Collect(zmap.Stream(context.Background(), w, blocks, zmap.StreamOptions{
				Workers:   8,
				ChunkSize: scaleChunk,
			}))
			actives = ds.TotalActive()
			if actives == 0 {
				b.Fatal("census found no responders")
			}
		}
		b.StopTimer()
		guardHeap(b, hp.Stop(), scaleCensusHeapCeiling)
		b.ReportMetric(float64(actives), "responders")
	})

	b.Run(fmt.Sprintf("pipeline-%dk-blocks", scaleBlocks/1000), func(b *testing.B) {
		b.ReportAllocs()
		runtime.GC()
		hp := trackHeapPeak()
		b.ResetTimer()
		var eligible, final int
		for i := 0; i < b.N; i++ {
			p := &core.Pipeline{
				Net:     probe.NewSimNetwork(w),
				Scanner: w,
				Blocks:  blocks,
				Seed:    7,
				Options: core.Options{
					Workers:        8,
					CensusWorkers:  8,
					SkipClustering: true,
				},
				StreamChunk: scaleChunk,
			}
			out, err := p.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			eligible, final = len(out.Eligible), len(out.Final)
			if eligible == 0 || final == 0 {
				b.Fatalf("pipeline produced %d eligible, %d final blocks", eligible, final)
			}
		}
		b.StopTimer()
		guardHeap(b, hp.Stop(), scalePipelineHeapCeiling)
		b.ReportMetric(float64(eligible), "eligible-blocks")
		b.ReportMetric(float64(final), "final-blocks")
	})

	b.Run(fmt.Sprintf("cluster-%dk-aggregates", scaleBlocks/1000), func(b *testing.B) {
		// The clustering stage in isolation at 100k aggregates: the
		// incremental graph build over the inverted index plus
		// per-component MCL at every sweep inflation. The input is the
		// similarity-graph shape the campaign produces — small families of
		// near-identical last-hop sets and a long singleton tail — fed
		// through Pipeline.Run, which streams Observe deltas exactly as
		// the core pipeline does.
		aggs := syntheticAggregates(scaleBlocks)
		b.ReportAllocs()
		runtime.GC()
		hp := trackHeapPeak()
		b.ResetTimer()
		var clusters int
		for i := 0; i < b.N; i++ {
			res := (&cluster.Pipeline{Seed: 7, Workers: 8}).Run(aggs)
			clusters = len(res.Clusters)
			if clusters == 0 {
				b.Fatal("clustering found no clusters")
			}
		}
		b.StopTimer()
		guardHeap(b, hp.Stop(), scaleClusterHeapCeiling)
		b.ReportMetric(float64(clusters), "clusters")
	})

	b.Run(fmt.Sprintf("full-%dk-blocks", scaleBlocks/1000), func(b *testing.B) {
		// The complete streamed pipeline — census, campaign, aggregation,
		// clustering, and bounded reprobe validation all overlapped — the
		// exact shape the nightly 1M job runs with -output.
		b.ReportAllocs()
		runtime.GC()
		hp := trackHeapPeak()
		b.ResetTimer()
		var clusters, final int
		for i := 0; i < b.N; i++ {
			p := &core.Pipeline{
				Net:     probe.NewSimNetwork(w),
				Scanner: w,
				Blocks:  blocks,
				Seed:    7,
				Options: core.Options{
					Workers:        8,
					CensusWorkers:  8,
					ClusterWorkers: 8,
					ValidatePairs:  200,
				},
				StreamChunk: scaleChunk,
			}
			out, err := p.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if out.Clustering == nil {
				b.Fatal("clustering did not run")
			}
			clusters, final = len(out.Clustering.Clusters), len(out.Final)
			if final == 0 {
				b.Fatal("pipeline produced no final blocks")
			}
		}
		b.StopTimer()
		guardHeap(b, hp.Stop(), scaleFullHeapCeiling)
		b.ReportMetric(float64(clusters), "clusters")
		b.ReportMetric(float64(final), "final-blocks")
	})
}

// syntheticAggregates builds n aggregate blocks shaped like a real
// campaign's output: 70% in families of 3-8 sharing most of a last-hop
// set (the clusterable mass), 30% singletons with unique sets (the
// unclustered tail). Deterministic in n.
func syntheticAggregates(n int) []*aggregate.Block {
	aggs := make([]*aggregate.Block, 0, n)
	hop := uint32(0x0a000000)
	base := uint32(0)
	for len(aggs) < n {
		r := uint32(len(aggs))*2654435761 + 12345
		if r%10 < 7 {
			// A family: k hops, members each missing one element.
			k := 3 + int(r%6)
			family := make([]iputil.Addr, k)
			for i := range family {
				family[i] = iputil.Addr(hop)
				hop++
			}
			members := 3 + int((r>>8)%6)
			for m := 0; m < members && len(aggs) < n; m++ {
				blk := &aggregate.Block{ID: len(aggs)}
				for i, h := range family {
					if i == m%k {
						continue
					}
					blk.LastHops = append(blk.LastHops, h)
				}
				blk.Blocks24 = append(blk.Blocks24, iputil.Block24(base))
				base += 4
				aggs = append(aggs, blk)
			}
		} else {
			blk := &aggregate.Block{ID: len(aggs)}
			blk.LastHops = []iputil.Addr{iputil.Addr(hop), iputil.Addr(hop + 1)}
			hop += 2
			blk.Blocks24 = append(blk.Blocks24, iputil.Block24(base))
			base += 4
			aggs = append(aggs, blk)
		}
	}
	return aggs
}
