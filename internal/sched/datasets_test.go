package sched_test

import (
	"testing"

	"tradeoff/internal/experiments"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
)

// TestEvaluateSlotsMatchesReferenceOnDataSets runs the slot-order
// kernel's oracle on the paper's data sets 1-3 under their default TUF
// policy, where most tasks share a deduplicated TUF program.
func TestEvaluateSlotsMatchesReferenceOnDataSets(t *testing.T) {
	for n := 1; n <= 3; n++ {
		ds, err := experiments.ByNumber(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		e, err := sched.NewEvaluator(ds.System, ds.Trace)
		if err != nil {
			t.Fatal(err)
		}
		sess := e.NewSlotSession()
		src := rng.New(uint64(n))
		for trial := 0; trial < 3; trial++ {
			a := e.RandomAllocation(src)
			if got, want := sess.Evaluate(a), sched.ReferenceSlots(e, a); got != want {
				t.Fatalf("data set %d trial %d: slots %+v vs reference %+v", n, trial, got, want)
			}
		}
	}
}
