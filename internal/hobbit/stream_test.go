package hobbit

import (
	"context"
	"reflect"
	"testing"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// feedBlocks pushes the blocks (with their dataset actives) through a
// fresh feed channel the way the core pipeline's census feeder does.
func feedBlocks(c *Campaign, blocks []iputil.Block24) <-chan FeedItem {
	feed := make(chan FeedItem)
	go func() {
		defer close(feed)
		for _, b := range blocks {
			feed <- FeedItem{Block: b, By26: c.Dataset.ActivesBy26(b)}
		}
	}()
	return feed
}

// TestRunStreamMatchesRun pins the streaming campaign's half of the
// determinism contract against a serial reference written here: a plain
// MeasureBlock loop over the same blocks, tallying the same counters.
// RunStream at 8 workers must produce that loop's exact Result — same
// verdicts, same Order — with the sink observing results strictly in
// feed order, and an identical telemetry state.
func TestRunStreamMatchesRun(t *testing.T) {
	_, c, eligible := campaignWorld(t, 300)
	if len(eligible) < 40 {
		t.Fatalf("only %d eligible blocks", len(eligible))
	}
	regWant := telemetry.NewRegistry()
	met := (&Campaign{Telemetry: regWant}).metrics()
	want := &Result{Blocks: make(map[iputil.Block24]*BlockResult)}
	for _, b := range eligible {
		br := c.Measurer.MeasureBlock(b, c.Dataset.ActivesBy26(b))
		met.record(&br)
		want.Blocks[b] = &br
		want.Order = append(want.Order, b)
	}
	snapWant := regWant.Snapshot()

	reg := telemetry.NewRegistry()
	c.Workers, c.Telemetry = 8, reg
	var sunk []iputil.Block24
	got, err := c.RunStream(context.Background(), feedBlocks(c, eligible), func(br *BlockResult) {
		sunk = append(sunk, br.Block)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Order, want.Order) {
		t.Fatal("Order differs from the serial loop")
	}
	if !reflect.DeepEqual(sunk, eligible) {
		t.Fatal("sink did not observe results in feed order")
	}
	if len(got.Blocks) != len(want.Blocks) {
		t.Fatalf("%d blocks, want %d", len(got.Blocks), len(want.Blocks))
	}
	for b, br := range want.Blocks {
		if !reflect.DeepEqual(got.Blocks[b], br) {
			t.Fatalf("block %v result differs", b)
		}
	}
	snap := reg.Snapshot()
	if !reflect.DeepEqual(snap.Counters, snapWant.Counters) {
		t.Errorf("counters differ:\nstream: %v\nserial: %v", snap.Counters, snapWant.Counters)
	}
	if !reflect.DeepEqual(snap.Histograms, snapWant.Histograms) {
		t.Error("histograms differ")
	}
}

// TestRunStreamCancel: cancelling mid-campaign returns the emitted
// prefix (in feed order) with ctx.Err, and the feeder is not wedged.
func TestRunStreamCancel(t *testing.T) {
	_, c, eligible := campaignWorld(t, 300)
	c.Workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	feed := make(chan FeedItem)
	go func() {
		defer close(feed)
		for i, b := range eligible {
			if i == 10 {
				cancel()
			}
			select {
			case feed <- FeedItem{Block: b, By26: c.Dataset.ActivesBy26(b)}:
			case <-ctx.Done():
				return
			}
		}
	}()
	res, err := c.RunStream(ctx, feed, nil)
	if err == nil {
		t.Fatal("cancelled RunStream returned nil error")
	}
	for i, b := range res.Order {
		if b != eligible[i] {
			t.Fatalf("partial Order[%d] = %v, want %v", i, b, eligible[i])
		}
	}
}

// TestRunStreamEmptyFeed: a feed that closes without items completes
// with an empty result.
func TestRunStreamEmptyFeed(t *testing.T) {
	_, c, _ := campaignWorld(t, 60)
	feed := make(chan FeedItem)
	close(feed)
	res, err := c.RunStream(context.Background(), feed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 0 || len(res.Order) != 0 {
		t.Fatalf("empty feed produced %d blocks", len(res.Blocks))
	}
}
