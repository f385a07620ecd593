package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/hobbitscan/hobbit/internal/aggregate"
	"github.com/hobbitscan/hobbit/internal/faultplan"
	"github.com/hobbitscan/hobbit/internal/telemetry"
	"github.com/hobbitscan/hobbit/internal/zmap"
)

// referenceRun is the barrier-stage composition Run must reproduce byte
// for byte: a materialized zmap.ScanWith census, a campaign over the
// full eligible list, aggregation once the campaign is done, clustering
// fed after the campaign, then the shared validation stage. Every
// artifact and counter of a pipelined Run, at any chunk size and worker
// count, must equal this reference's.
func referenceRun(t *testing.T, p *Pipeline) *Output {
	t.Helper()
	ctx := context.Background()
	reg := p.Telemetry
	out := &Output{}
	out.Dataset = zmap.ScanWith(p.Scanner, p.Blocks, zmap.ScanOptions{Workers: p.CensusWorkers, Telemetry: reg})
	out.Eligible = out.Dataset.EligibleBlocks(p.Blocks, p.minActive())
	reg.Counter("census.eligible_blocks").Add(int64(len(out.Eligible)))
	res, err := p.Campaign(StageMeasure, out.Dataset).Run(ctx, out.Eligible)
	if err != nil {
		t.Fatal(err)
	}
	out.Campaign = res

	interner := aggregate.NewInterner()
	builder := aggregate.NewBuilder(interner)
	str := p.clusterStream()
	homogeneousIn := 0
	for _, br := range res.HomogeneousBlocks() {
		if br.LowConfidence() {
			out.LowConfidence = append(out.LowConfidence, br.Block)
			continue
		}
		homogeneousIn++
		blk, isNew := builder.Add(br)
		if str != nil && blk != nil {
			str.Observe(blk, isNew)
		}
	}
	out.Aggregates = builder.Finish()
	reg.Counter("aggregate.homogeneous_in").Add(int64(homogeneousIn))
	reg.Counter("aggregate.low_confidence_excluded").Add(int64(len(out.LowConfidence)))
	reg.Counter("aggregate.blocks_out").Add(int64(len(out.Aggregates)))
	out.Clustering = str.Finish()
	if err := p.ValidateClusters(ctx, StageValidate, out, interner, ValidateHooks{}); err != nil {
		t.Fatal(err)
	}
	return out
}

// marshalOutput serializes every deterministic artifact of a run the way
// TestPipelineOutputDeterministic does, so a pipelined run and the
// reference can be compared byte for byte.
func marshalOutput(t *testing.T, out *Output) []byte {
	t.Helper()
	j, err := json.Marshal(struct {
		Eligible      interface{}
		Campaign      interface{}
		Aggregates    interface{}
		LowConfidence interface{}
		Validations   interface{}
		Validated     interface{}
		Final         interface{}
	}{out.Eligible, out.Campaign.Order, out.Aggregates, out.LowConfidence,
		out.Validations, out.Validated, out.Final})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestPipelineStreamedIdentical pins the invariant of the pipelined run
// (census chunks feeding the campaign feeding incremental aggregation):
// it must produce byte-identical artifacts — and an identical telemetry
// counter state — to the barrier-stage reference, at 1 and 8 workers
// and across chunk sizes that do and do not divide the universe.
func TestPipelineStreamedIdentical(t *testing.T) {
	run := func(streamChunk, workers int, reference bool) ([]byte, *telemetry.Snapshot, *Output) {
		_, p := testPipeline(t, 300)
		reg := telemetry.NewRegistry()
		p.Telemetry = reg
		p.Workers = workers
		p.CensusWorkers = workers
		p.ClusterWorkers = workers
		p.StreamChunk = streamChunk
		var out *Output
		if reference {
			out = referenceRun(t, p)
		} else {
			var err error
			if out, err = p.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		snap := reg.Snapshot()
		return marshalOutput(t, out), &snap, out
	}

	wantJSON, wantSnap, wantOut := run(0, 4, true)
	if len(wantOut.Eligible) == 0 || len(wantOut.Final) == 0 {
		t.Fatal("reference run produced no output")
	}
	for _, tc := range []struct {
		name           string
		chunk, workers int
	}{
		{"default-chunk", 0, 4},
		{"chunk=32/workers=1", 32, 1},
		{"chunk=32/workers=8", 32, 8},
		{"odd-chunk", 7, 8},
		{"one-chunk", 1 << 20, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gotJSON, gotSnap, gotOut := run(tc.chunk, tc.workers, false)
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("streamed output differs from the reference:\n%.300s\n%.300s", gotJSON, wantJSON)
			}
			if !gotOut.Dataset.Equal(wantOut.Dataset) {
				t.Error("streamed dataset differs from the reference census")
			}
			if !reflect.DeepEqual(gotSnap.Counters, wantSnap.Counters) {
				t.Errorf("counters differ:\nstreamed:  %v\nreference: %v",
					gotSnap.Counters, wantSnap.Counters)
			}
			if !reflect.DeepEqual(gotSnap.Histograms, wantSnap.Histograms) {
				t.Error("histograms differ between the streamed run and the reference")
			}
		})
	}
}

// TestPipelineClusteringMatrix is the PR's acceptance matrix for the
// streaming clustering stage: {ClusterWorkers 1, 8} × {StreamChunk 1,
// 64, 4096}, on an unfaulted world and on a blackhole-faulted world with
// adaptive probing (the shape that produces low-confidence exclusions),
// each compared byte for byte — artifacts, counters, histograms —
// against that world's barrier-stage reference (referenceRun).
func TestPipelineClusteringMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("14 full pipeline runs are slow")
	}
	for _, faulted := range []bool{false, true} {
		name := "unfaulted"
		if faulted {
			name = "faulted"
		}
		t.Run(name, func(t *testing.T) {
			run := func(streamChunk, clusterWorkers int, reference bool) ([]byte, *telemetry.Snapshot) {
				w, p := testPipeline(t, 300)
				if faulted {
					sched, err := faultplan.CompileBuiltin("blackhole", w)
					if err != nil {
						t.Fatal(err)
					}
					w.SetFaults(sched)
					p.MDA.Adaptive = true
				}
				reg := telemetry.NewRegistry()
				p.Telemetry = reg
				p.ClusterWorkers = clusterWorkers
				p.StreamChunk = streamChunk
				if reference {
					out := referenceRun(t, p)
					snap := reg.Snapshot()
					return marshalOutput(t, out), &snap
				}
				out, err := p.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				snap := reg.Snapshot()
				return marshalOutput(t, out), &snap
			}
			wantJSON, wantSnap := run(0, 4, true)
			if wantSnap.Counters["cluster.clusters"] == 0 {
				t.Fatal("baseline run produced no clusters; the matrix would compare nothing")
			}
			for _, cw := range []int{1, 8} {
				for _, chunk := range []int{1, 64, 4096} {
					gotJSON, gotSnap := run(chunk, cw, false)
					if !bytes.Equal(gotJSON, wantJSON) {
						t.Errorf("chunk=%d workers=%d: output differs from the reference", chunk, cw)
					}
					if !reflect.DeepEqual(gotSnap.Counters, wantSnap.Counters) {
						t.Errorf("chunk=%d workers=%d: counters differ:\ngot:  %v\nwant: %v",
							chunk, cw, gotSnap.Counters, wantSnap.Counters)
					}
					if !reflect.DeepEqual(gotSnap.Histograms, wantSnap.Histograms) {
						t.Errorf("chunk=%d workers=%d: histograms differ", chunk, cw)
					}
				}
			}
		})
	}
}

// TestPipelineStreamedCancel: cancelling a streamed run returns the
// partial artifacts with ctx.Err and leaves no stage wedged.
func TestPipelineStreamedCancel(t *testing.T) {
	_, p := testPipeline(t, 200)
	p.StreamChunk = 8
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := p.Run(ctx)
	if err == nil {
		t.Fatal("cancelled streamed run returned nil error")
	}
	if out == nil {
		t.Fatal("cancelled streamed run returned nil output")
	}
}

// TestPipelineProgressThrottled: while the census is still feeding the
// campaign, progress events must not report Done == Total, or every
// throttling sink (telemetry.LineSink, hobbitd's event log) prints a
// line each time the collector catches up with the feeder. At every
// chunk size the line count stays within one per 100 blocks plus the
// first and last, and a completed run's last line reads N/N.
func TestPipelineProgressThrottled(t *testing.T) {
	for _, chunk := range []int{1, 64, 0} {
		_, p := testPipeline(t, 300)
		var buf bytes.Buffer
		p.Progress = telemetry.NewLineSink(&buf, 100)
		p.StreamChunk = chunk
		p.SkipClustering = true
		out, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		n := len(out.Eligible)
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if limit := (n+99)/100 + 2; len(lines) > limit {
			t.Errorf("chunk=%d: %d progress lines for %d blocks, want <= %d", chunk, len(lines), n, limit)
		}
		last := lines[len(lines)-1] + " "
		if want := fmt.Sprintf("%s: %d/%d ", StageMeasure, n, n); !strings.HasPrefix(last, want) {
			t.Errorf("chunk=%d: last progress line %q, want prefix %q", chunk, last, want)
		}
	}
}
