package harness

import (
	"fmt"
	"testing"
)

// TestCheckIncrementalMatrix is the tier-1 differential gate for the
// monitoring mode: every fault plan × worker count × reference stream
// chunk must produce epoch-by-epoch byte-identical Outputs between the
// incremental monitor and a from-scratch run. Workers exercise the
// monitor's internal concurrency; the stream chunk exercises the
// reference's census chunking (the monitor's own bootstrap runs at the
// default chunk).
func TestCheckIncrementalMatrix(t *testing.T) {
	plans := []string{"baseline", "flap", "blackhole", "rate-storm"}
	for _, plan := range plans {
		for _, workers := range []int{1, 8} {
			for _, chunk := range []int{1, 4096} {
				plan, workers, chunk := plan, workers, chunk
				t.Run(fmt.Sprintf("%s/w%d/c%d", plan, workers, chunk), func(t *testing.T) {
					t.Parallel()
					opt := DefaultOptions()
					opt.Workers = workers
					opt.CensusWorkers = workers
					opt.ClusterWorkers = workers
					sc := IncrementalScenario{Plan: plan, Epochs: 3, StreamChunk: chunk}
					if err := CheckIncremental(sc, opt); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestCheckIncrementalChurn runs the monitoring-specific churn plan —
// the one the nightly scale session uses — through the same
// differential check, over more epochs so flap windows open and close
// while the session is live.
func TestCheckIncrementalChurn(t *testing.T) {
	opt := DefaultOptions()
	opt.Workers = 8
	opt.ClusterWorkers = 8
	sc := IncrementalScenario{Plan: "churn", Epochs: 5, StreamChunk: 4096}
	if err := CheckIncremental(sc, opt); err != nil {
		t.Fatal(err)
	}
}
