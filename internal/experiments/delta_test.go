package experiments

import (
	"reflect"
	"testing"

	"tradeoff/internal/nsga2"
	"tradeoff/internal/rng"
)

// smallDataSets builds scaled-down instances of all three paper data
// sets: the real 9x5 system and the enlarged 30x13 system with two trace
// sizes. Full-size traces would make the cross-check needlessly slow;
// the system/trace structure is what varies between the data sets.
func smallDataSets(t *testing.T) []*DataSet {
	t.Helper()
	var out []*DataSet
	for i, build := range []func(uint64) (*DataSet, error){DataSet1, DataSet2, DataSet3} {
		ds, err := build(uint64(50 + i))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ds)
	}
	return out
}

// TestDeltaEvaluationMatchesFullOnDataSets checks the engine's
// incremental evaluation on each of the three paper data sets, across
// worker counts and repair strategies: every front point must carry, bit
// for bit, the objectives a full evaluation of its allocation gives
// (the engine evaluates offspring from the slot arrays variation
// maintains), and the fronts must not depend on the worker count. The
// incremental path must be invisible on every system/trace shape, not
// just the unit-test instances.
func TestDeltaEvaluationMatchesFullOnDataSets(t *testing.T) {
	if testing.Short() {
		t.Skip("full data-set construction is slow")
	}
	for _, ds := range smallDataSets(t) {
		sess := ds.Evaluator.NewSlotSession()
		for _, repair := range []nsga2.Repair{nsga2.RerankRepair, nsga2.ShuffleRepair} {
			run := func(workers int) [][]float64 {
				eng, err := nsga2.New(ds.Evaluator, nsga2.Config{
					PopulationSize: 20,
					Workers:        workers,
					Repair:         repair,
				}, rng.NewStream(3, hashName(ds.Name)))
				if err != nil {
					t.Fatal(err)
				}
				eng.Run(6)
				for _, ind := range eng.ParetoFront() {
					full := sess.Evaluate(ind.Alloc)
					if ind.Objectives[0] != full.Utility || ind.Objectives[1] != full.Energy {
						t.Fatalf("%s repair=%v workers=%d: front point %v vs full evaluation (%v, %v)",
							ds.Name, repair, workers, ind.Objectives, full.Utility, full.Energy)
					}
				}
				return eng.FrontPoints()
			}
			if serial, parallel := run(1), run(4); !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("%s repair=%v: 4-worker front diverged from serial", ds.Name, repair)
			}
		}
	}
}

// TestRunRepeatsWorkerInvariance checks that the parallel variant × run
// fan-out reproduces the serial sweep exactly for every worker count.
func TestRunRepeatsWorkerInvariance(t *testing.T) {
	ds, err := DataSet1(22)
	if err != nil {
		t.Fatal(err)
	}
	base := RunConfig{PopulationSize: 10, Checkpoints: []int{8}, Seed: 23}
	run := func(workers int) *RepeatResult {
		cfg := base
		cfg.Workers = workers
		res, err := RunRepeats(ds, cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, workers := range []int{2, 4, 7} {
		if got := run(workers); !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d: RunRepeats diverged from serial sweep", workers)
		}
	}
}
