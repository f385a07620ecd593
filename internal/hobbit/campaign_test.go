package hobbit

import (
	"context"
	"testing"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/telemetry"
	"github.com/hobbitscan/hobbit/internal/zmap"
)

func campaignWorld(t *testing.T, n int) (*netsim.World, *Campaign, []iputil.Block24) {
	t.Helper()
	cfg := netsim.DefaultConfig(n)
	cfg.BigBlockScale = 0.02
	w, err := netsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := zmap.ScanWith(w, w.Blocks(), zmap.ScanOptions{Workers: 1})
	c := &Campaign{
		Measurer: &Measurer{Net: probe.NewSimNetwork(w), Seed: 1},
		Dataset:  ds,
	}
	return w, c, ds.EligibleBlocks(w.Blocks(), 4)
}

func TestCampaignAgainstGroundTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test is slow")
	}
	w, c, eligible := campaignWorld(t, 700)
	if len(eligible) < 200 {
		t.Fatalf("only %d eligible blocks", len(eligible))
	}
	res, err := c.Run(context.Background(), eligible)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary()
	if sum.Total != len(eligible) {
		t.Fatalf("summary total = %d, want %d", sum.Total, len(eligible))
	}

	// Verdicts must agree with planted truth at high rates.
	var homTrue, homCalledHet, hetTrue, hetDetected int
	for b, br := range res.Blocks {
		hom, _ := w.TrueHomogeneous(b)
		if !br.Class.Analyzable() {
			continue
		}
		if hom {
			homTrue++
			if !br.Class.Homogeneous() {
				homCalledHet++
			}
		} else {
			hetTrue++
			if br.Class == ClassHierarchical {
				hetDetected++
			}
		}
	}
	if homTrue == 0 {
		t.Fatal("no analyzable homogeneous blocks")
	}
	// The paper bounds the misclassification of homogeneous blocks at
	// the 5% confidence level.
	if frac := float64(homCalledHet) / float64(homTrue); frac > 0.12 {
		t.Errorf("homogeneous misclassified as hierarchical: %.1f%%", 100*frac)
	}
	// Planted heterogeneous blocks that were analyzable should land in
	// the hierarchical class.
	if hetTrue > 0 && hetDetected < hetTrue/2 {
		t.Errorf("heterogeneous detected %d of %d", hetDetected, hetTrue)
	}

	// All five classes should be populated in a default world.
	for _, cls := range []Class{ClassTooFewActive, ClassSameLastHop, ClassNonHierarchical} {
		if sum.Counts[cls] == 0 {
			t.Errorf("class %v empty", cls)
		}
	}
}

func TestMeasureBlockSameLastHop(t *testing.T) {
	w, c, eligible := campaignWorld(t, 600)
	// Find an eligible K=1 block with responsive last hop.
	var target iputil.Block24
	for _, b := range eligible {
		if w.TrueLastHopCardinality(b) == 1 && !w.UnresponsiveLastHop(b) {
			if hom, _ := w.TrueHomogeneous(b); hom && !w.IsStarved(b) {
				target = b
				break
			}
		}
	}
	if target == 0 {
		t.Skip("no K=1 block eligible")
	}
	br := c.Measurer.MeasureBlock(target, c.Dataset.ActivesBy26(target))
	if br.Class != ClassSameLastHop && br.Class != ClassTooFewActive {
		t.Errorf("K=1 block classified %v", br.Class)
	}
	if br.Class == ClassSameLastHop {
		if len(br.LastHops) != 1 {
			t.Errorf("LastHops = %v", br.LastHops)
		}
		trueLH, _ := w.TrueLastHops(target.Addr(1))
		if br.LastHops[0] != trueLH[0] {
			t.Errorf("last hop %v, truth %v", br.LastHops[0], trueLH)
		}
		// Early termination: 6 probes suffice for a single last hop.
		if br.Responded > 8 {
			t.Errorf("probed %d responsive destinations for a K=1 block", br.Responded)
		}
	}
}

func TestMeasureBlockHetero(t *testing.T) {
	w, c, _ := campaignWorld(t, 1500)
	found := 0
	for _, b := range w.HeteroBlocks() {
		if !c.Dataset.Eligible(b, 4) {
			continue
		}
		br := c.Measurer.MeasureBlock(b, c.Dataset.ActivesBy26(b))
		if !br.Class.Analyzable() {
			continue
		}
		found++
		if br.Class.Homogeneous() {
			t.Errorf("hetero block %v classified %v", b, br.Class)
			continue
		}
		if br.VeryLikelyHetero {
			// Sub-blocks must be consistent with planted entries:
			// every observed sub-prefix lies within one true entry.
			entries := w.TrueEntries(b)
			for _, sub := range br.SubBlocks {
				inside := false
				for _, e := range entries {
					if e.ContainsPrefix(sub) {
						inside = true
					}
				}
				if !inside {
					t.Errorf("block %v sub %v not within any true entry %v", b, sub, entries)
				}
			}
		}
		if found >= 5 {
			break
		}
	}
	if found == 0 {
		t.Skip("no analyzable hetero blocks at this scale")
	}
}

func TestExhaustiveReprobe(t *testing.T) {
	w, c, eligible := campaignWorld(t, 600)
	// On a K>=2 block, the exhaustive strategy should observe at least
	// as many last hops as the normal strategy.
	var target iputil.Block24
	for _, b := range eligible {
		if w.TrueLastHopCardinality(b) >= 3 && !w.UnresponsiveLastHop(b) && !w.IsStarved(b) {
			if hom, _ := w.TrueHomogeneous(b); hom {
				target = b
				break
			}
		}
	}
	if target == 0 {
		t.Skip("no K>=3 block eligible")
	}
	by26 := c.Dataset.ActivesBy26(target)
	normal := c.Measurer.MeasureBlock(target, by26)
	ex := *c.Measurer
	ex.Exhaustive = true
	exhaustive := ex.MeasureBlock(target, by26)
	if len(exhaustive.LastHops) < len(normal.LastHops) {
		t.Errorf("exhaustive found %d last hops, normal %d",
			len(exhaustive.LastHops), len(normal.LastHops))
	}
	if exhaustive.Responded < normal.Responded {
		t.Errorf("exhaustive responded %d < normal %d", exhaustive.Responded, normal.Responded)
	}
}

func TestOrderCoversAllActives(t *testing.T) {
	_, c, eligible := campaignWorld(t, 300)
	b := eligible[0]
	by26 := c.Dataset.ActivesBy26(b)
	order := c.Measurer.Order(b, by26)
	seen := make(map[iputil.Addr]bool, len(order))
	for _, a := range order {
		if seen[a] {
			t.Fatalf("duplicate %v in order", a)
		}
		seen[a] = true
	}
	total := 0
	for q := 0; q < 4; q++ {
		total += len(by26[q])
		for _, a := range by26[q] {
			if !seen[a] {
				t.Fatalf("active %v missing from order", a)
			}
		}
	}
	if len(order) != total {
		t.Fatalf("order length %d, want %d", len(order), total)
	}
	// First round visits each /26 once before revisiting any.
	quarterSeen := map[int]bool{}
	for i := 0; i < 4 && i < len(order); i++ {
		q := order[i].Block26()
		if quarterSeen[q] {
			t.Errorf("quarter %d revisited within first round", q)
		}
		quarterSeen[q] = true
	}
}

// TestCampaignTelemetry runs an instrumented campaign with many workers —
// the -race half of the concurrent-registry guarantee — and checks the
// accounting against the result.
func TestCampaignTelemetry(t *testing.T) {
	w, c, eligible := campaignWorld(t, 400)
	if len(eligible) > 120 {
		eligible = eligible[:120]
	}
	reg := telemetry.NewRegistry()
	c.Telemetry = reg
	c.Workers = 8
	c.Measurer.Net = probe.Instrument(probe.NewSimNetwork(w), reg, "measure")
	var events int
	var last telemetry.ProgressEvent
	c.Progress = telemetry.SinkFunc(func(ev telemetry.ProgressEvent) {
		events++
		last = ev
	})
	res, err := c.Run(context.Background(), eligible)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary()
	snap := reg.Snapshot()
	if got := snap.Counters["campaign.blocks_measured"]; got != int64(sum.Total) {
		t.Errorf("blocks_measured = %d, summary total = %d", got, sum.Total)
	}
	for cls, n := range sum.Counts {
		if got := snap.Counters["campaign.class."+cls.MetricName()]; got != int64(n) {
			t.Errorf("class counter %v = %d, summary = %d", cls, got, n)
		}
	}
	if snap.Histograms["campaign.probed_per_block"].Count != int64(sum.Total) {
		t.Errorf("histogram count = %d, want %d",
			snap.Histograms["campaign.probed_per_block"].Count, sum.Total)
	}
	if events != len(eligible) {
		t.Errorf("progress events = %d, want %d", events, len(eligible))
	}
	if last.Done != len(eligible) || last.Total != len(eligible) || last.Stage != "measure" {
		t.Errorf("final event = %+v", last)
	}
	if last.Probes == 0 || last.Pings == 0 {
		t.Errorf("final event missing probe load: %+v", last)
	}
}

func TestCampaignCancellation(t *testing.T) {
	_, c, eligible := campaignWorld(t, 400)
	if len(eligible) < 20 {
		t.Fatalf("only %d eligible blocks", len(eligible))
	}
	c.Workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	done := 0
	c.Progress = telemetry.SinkFunc(func(telemetry.ProgressEvent) {
		if done++; done == 3 {
			cancel()
		}
	})
	res, err := c.Run(ctx, eligible)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.Blocks) == 0 {
		t.Error("partial result lost")
	}
	if len(res.Blocks) == len(eligible) {
		t.Error("campaign ran to completion despite cancellation")
	}
	// The partial result stays consistent: every measured block is in
	// Order, and the class accessors skip unmeasured ones.
	if got := len(res.HomogeneousBlocks()); got > len(res.Blocks) {
		t.Errorf("HomogeneousBlocks returned %d of %d measured", got, len(res.Blocks))
	}
}

func TestCampaignDeterministic(t *testing.T) {
	_, c1, elig1 := campaignWorld(t, 250)
	_, c2, elig2 := campaignWorld(t, 250)
	r1, err1 := c1.Run(context.Background(), elig1[:50])
	r2, err2 := c2.Run(context.Background(), elig2[:50])
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for b, br1 := range r1.Blocks {
		br2 := r2.Blocks[b]
		if br2 == nil || br1.Class != br2.Class || len(br1.LastHops) != len(br2.LastHops) {
			t.Fatalf("nondeterministic result for %v", b)
		}
	}
}
