// Package core is the public face of the Hobbit reproduction: one Pipeline
// that runs the paper end to end — census scan, per-/24 homogeneity
// measurement, identical-set aggregation, MCL clustering of similar
// blocks, and reprobe validation — over any probing surface.
//
// A run has one shape: the census streams in chunks into the
// measurement campaign, whose in-order results feed aggregation and the
// incremental clusterer as they land; validation then runs over the
// complete cluster set. Each stage has one function here — Measure (the
// census and campaign front end), Aggregator, and ValidateClusters —
// which Run composes and the monitor package drives incrementally. A run
// is observable through the optional telemetry registry (per-stage
// spans, probe/ping counters, progress events) and cancellable through
// its context, returning the artifacts completed so far alongside
// ctx.Err().
package core

import (
	"context"
	"errors"

	"github.com/hobbitscan/hobbit/internal/aggregate"
	"github.com/hobbitscan/hobbit/internal/cluster"
	"github.com/hobbitscan/hobbit/internal/hobbit"
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/telemetry"
	"github.com/hobbitscan/hobbit/internal/zmap"
)

// Stage names used for spans and per-stage probe attribution.
const (
	StageCensus    = "census"
	StageMeasure   = "measure"
	StageAggregate = "aggregate"
	StageCluster   = "cluster"
	StageValidate  = "validate"
)

// Pipeline configures an end-to-end run.
type Pipeline struct {
	// Net answers measurement-time probes; Scanner answers census-time
	// echo requests. A netsim.World (wrapped in probe.SimNetwork for
	// Net) satisfies both. Wrapping Net in probe.Instrument additionally
	// attributes every probe to the pipeline stage that sent it.
	Net     probe.Network
	Scanner zmap.Scanner
	// Blocks is the /24 universe to consider.
	Blocks []iputil.Block24
	// Seed drives the deterministic shuffles and samples.
	Seed uint64
	// Options are the serializable run knobs (worker bounds, MDA tuning,
	// eligibility threshold, validation budget, clustering switch). The
	// embedding promotes every knob, so p.Workers and friends read and
	// assign exactly as they did when the fields lived on Pipeline
	// directly; construction sites spell the nested literal.
	Options
	// StreamChunk is the number of /24s per census chunk (0 = 1024, the
	// zmap.StreamOptions default). Census chunks feed the measurement
	// campaign as they complete, so the chunk size and the stream window
	// bound the census memory. It is an execution strategy like the
	// worker counts, not behaviour: every artifact and counter is
	// byte-identical at any chunk size (DESIGN.md §4d), which is why it
	// lives on Pipeline next to the other local resource-shaping fields
	// rather than in the serializable Options.
	StreamChunk int
	// ResultSink, when non-nil, receives every per-/24 measurement result
	// in campaign order as soon as it is final — before clustering and
	// validation run — so callers can stream results to disk instead of
	// holding a rendered report for the whole run. The callback runs on
	// the collector goroutine (never concurrently) and must not retain
	// the pointer past the call if it mutates.
	ResultSink func(*hobbit.BlockResult)
	// Terminator overrides the hierarchical-sufficiency rule (nil uses
	// the MDA stopping rule; a confidence.Table reproduces Figure 4's).
	Terminator hobbit.Terminator
	// Telemetry records per-stage spans, counters, and histograms for
	// the run; nil disables observation. Counter state is deterministic
	// for a fixed Seed (see telemetry.Registry.MarshalCounters).
	Telemetry *telemetry.Registry
	// Progress receives live measurement progress events; nil disables
	// them.
	Progress telemetry.Sink
}

// Output carries every intermediate and final artifact of a run.
type Output struct {
	// Dataset is the census result; Eligible the /24s meeting the
	// selection criteria.
	Dataset  *zmap.Dataset
	Eligible []iputil.Block24
	// Campaign is the per-/24 measurement result.
	Campaign *hobbit.Result
	// Aggregates are the Section 5 identical-set blocks.
	Aggregates []*aggregate.Block
	// LowConfidence lists homogeneous-looking blocks excluded from
	// aggregation because their measurements exhausted the adaptive
	// probing budget (hobbit.BlockResult.LowConfidence), in campaign
	// order. Empty unless a fault plan (or real adversity) degraded the
	// run.
	LowConfidence []iputil.Block24
	// Clustering and Validations are the Section 6 artifacts (nil when
	// SkipClustering). Validated records which clusters were accepted
	// for merging.
	Clustering  *cluster.Result
	Validations map[int]cluster.Validation
	Validated   map[int]bool
	// Final is the post-validation block list: validated clusters
	// merged, everything else passed through.
	Final []*aggregate.Block
}

func (p *Pipeline) minActive() int {
	if p.MinActive > 0 {
		return p.MinActive
	}
	return 4
}

// newMeasurer builds the per-block Measurer shared by the measurement
// campaign (exhaustive=false) and the Section 6.5 reprobe validation
// (exhaustive=true), so every option — probing surface, MDA tuning,
// terminator, eligibility threshold, seed — is set in exactly one place.
func (p *Pipeline) newMeasurer(exhaustive bool) *hobbit.Measurer {
	return &hobbit.Measurer{
		Net:        p.Net,
		Opts:       p.MDA,
		Term:       p.Terminator,
		MinActive:  p.minActive(),
		Seed:       p.Seed,
		Exhaustive: exhaustive,
	}
}

// Campaign builds the measurement campaign a run uses over ds, with
// progress events and probes attributed to stage. Incremental drivers
// reprobe through it, so their measurements are byte-identical to a
// from-scratch run's.
func (p *Pipeline) Campaign(stage string, ds *zmap.Dataset) *hobbit.Campaign {
	p.setStage(stage)
	return &hobbit.Campaign{
		Measurer:  p.newMeasurer(false),
		Dataset:   ds,
		Workers:   p.Workers,
		Telemetry: p.Telemetry,
		Progress:  p.Progress,
		Stage:     stage,
	}
}

// setStage attributes subsequent probes on the probing surface to the
// named stage, when the surface supports attribution.
func (p *Pipeline) setStage(stage string) {
	if s, ok := p.Net.(interface{ SetStage(string) }); ok {
		s.SetStage(stage)
	}
}

// Check reports whether the pipeline can run: it needs a probing
// surface, a scanner, a non-empty universe, valid Options, and a valid
// StreamChunk. Run and incremental drivers call it before any stage.
func (p *Pipeline) Check() error {
	if p.Net == nil || p.Scanner == nil {
		return errors.New("core: Pipeline needs Net and Scanner")
	}
	if len(p.Blocks) == 0 {
		return errors.New("core: no blocks to measure")
	}
	if err := p.Options.Validate(); err != nil {
		return err
	}
	return ValidateStreamChunk(p.StreamChunk)
}

// Run executes the pipeline. The census, measurement, aggregation, and
// clustering stages run pipelined (Measure); validation then runs over
// the complete cluster set. Run checks ctx throughout: on cancellation
// it returns the Output artifacts completed so far together with
// ctx.Err(), so a partial run remains inspectable.
func (p *Pipeline) Run(ctx context.Context) (*Output, error) {
	if err := p.Check(); err != nil {
		return nil, err
	}
	// The clustering stage streams too: every aggregate delta flows into
	// the incremental graph on the spot, and components that go quiet are
	// sealed and dispatched onto the MCL pool while the campaign is still
	// probing (DESIGN.md §4i).
	str := p.clusterStream()
	agg := p.NewAggregator(str)
	out, err := p.Measure(ctx, StageMeasure, func(br *hobbit.BlockResult) {
		if p.ResultSink != nil {
			p.ResultSink(br)
		}
		agg.Add(br)
	})
	if err != nil {
		agg.Abort()
		str.Abort()
		return out, err
	}
	agg.Finish(out)
	if p.SkipClustering {
		out.Final = out.Aggregates
		return out, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		str.Abort()
		return out, err
	}

	// Finish joins the clusterer's worker pool, runs MCL on whatever
	// components were not sealed early, and merges the inflation sweep.
	span := p.Telemetry.StartSpan(StageCluster)
	out.Clustering = str.Finish()
	span.End()
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, p.ValidateClusters(ctx, StageValidate, out, agg.Interner(), ValidateHooks{})
}

// clusterStream starts the incremental clustering stage — nil when the
// run skips clustering.
func (p *Pipeline) clusterStream() *cluster.Streamer {
	if p.SkipClustering {
		return nil
	}
	pipe := &cluster.Pipeline{Seed: p.Seed, Workers: p.ClusterWorkers, Telemetry: p.Telemetry}
	return pipe.Stream()
}
