package experiments

import (
	"reflect"
	"testing"

	"tradeoff/internal/nsga2"
	"tradeoff/internal/rng"
)

// TestCacheMatchesUncachedOnDataSets runs, on each of the three paper
// data sets, an engine stepped generation after generation and an
// uncached reference rebuilt cold from a snapshot before every
// generation — so no buffer, slot array or worker session survives
// between generations — with the same rng stream, across worker counts
// and repair strategies, and requires bitwise-identical Pareto fronts at
// every generation. Nothing the engine carries between generations may
// show on any system/trace shape, not just the unit-test instances.
func TestCacheMatchesUncachedOnDataSets(t *testing.T) {
	if testing.Short() {
		t.Skip("full data-set construction is slow")
	}
	for _, ds := range smallDataSets(t) {
		for _, workers := range []int{1, 4} {
			for _, repair := range []nsga2.Repair{nsga2.RerankRepair, nsga2.ShuffleRepair} {
				mk := func() *nsga2.Engine {
					eng, err := nsga2.New(ds.Evaluator, nsga2.Config{
						PopulationSize: 20,
						Workers:        workers,
						Repair:         repair,
					}, rng.NewStream(3, hashName(ds.Name)))
					if err != nil {
						t.Fatal(err)
					}
					return eng
				}
				warm, cold := mk(), mk()
				for gen := 0; gen < 6; gen++ {
					fresh := mk()
					if err := fresh.Restore(cold.Snapshot()); err != nil {
						t.Fatal(err)
					}
					cold = fresh
					warm.Step()
					cold.Step()
					if !reflect.DeepEqual(warm.FrontPoints(), cold.FrontPoints()) {
						t.Fatalf("%s workers=%d repair=%v gen %d: front diverged from the cold-rebuilt engine's",
							ds.Name, workers, repair, gen+1)
					}
				}
			}
		}
	}
}
