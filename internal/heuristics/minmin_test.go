package heuristics_test

import (
	"fmt"
	"testing"

	"tradeoff/internal/data"
	"tradeoff/internal/datagen"
	"tradeoff/internal/experiments"
	"tradeoff/internal/hcs"
	"tradeoff/internal/heuristics"
	"tradeoff/internal/sched"
	"tradeoff/internal/utility"
	"tradeoff/internal/workload"
)

// sameAllocation fails t unless got and want agree on every task's
// machine and global order.
func sameAllocation(t *testing.T, got, want *sched.Allocation) {
	t.Helper()
	if len(got.Machine) != len(want.Machine) || len(got.Order) != len(want.Order) {
		t.Fatalf("allocation covers %d tasks, oracle %d", len(got.Machine), len(want.Machine))
	}
	for i := range want.Machine {
		if got.Machine[i] != want.Machine[i] || got.Order[i] != want.Order[i] {
			t.Fatalf("task %d: (machine %d, order %d), oracle (machine %d, order %d)",
				i, got.Machine[i], got.Order[i], want.Machine[i], want.Order[i])
		}
	}
}

func TestMinMinMatchesNaiveOracle(t *testing.T) {
	type instance struct {
		name string
		eval func(t *testing.T) *sched.Evaluator
	}
	var cases []instance
	for _, n := range []int{1, 2, 250, 1000, 3000} {
		for seed := uint64(1); seed <= 4; seed++ {
			cases = append(cases, instance{fmt.Sprintf("datagen-%d-seed%d", n, seed), func(t *testing.T) *sched.Evaluator {
				sys, tr, err := datagen.Instance(data.RealSystem(), datagen.Default(), n, 0, seed)
				if err != nil {
					t.Fatal(err)
				}
				e, err := sched.NewEvaluator(sys, tr)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}})
		}
	}
	for ds := 1; ds <= 3; ds++ {
		cases = append(cases, instance{fmt.Sprintf("dataset%d", ds), func(t *testing.T) *sched.Evaluator {
			d, err := experiments.ByNumber(ds, 1)
			if err != nil {
				t.Fatal(err)
			}
			return d.Evaluator
		}})
	}
	cases = append(cases, instance{"ties", func(t *testing.T) *sched.Evaluator {
		// Every task arrives at 0 and types 0 and 1 share an ETC row, so
		// their heads tie on completion and the lower index must win.
		types := []int{1, 0, 1, 0, 2, 1, 0, 2, 2, 0, 1, 1, 0, 2, 0, 1}
		return tieEvaluator(t, types, make([]float64, len(types)))
	}})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			e := c.eval(t)
			got := heuristics.BuildMinMin(e)
			if err := e.Validate(got); err != nil {
				t.Fatal(err)
			}
			sameAllocation(t, got, heuristics.NaiveMinMin(e))
		})
	}
}

func TestMinMinBreaksCrossTypeTiesByIndex(t *testing.T) {
	// Tasks 0 (type 1) and 1 (type 0) have identical ETC rows and both
	// arrive at 0: task 0 takes machine 0 first, then task 1 ties task 2
	// (type 1's next head) on machine 1 and wins on index.
	e := tieEvaluator(t, []int{1, 0, 1}, []float64{0, 0, 0})
	a := heuristics.BuildMinMin(e)
	want := &sched.Allocation{Machine: []int32{0, 1, 2}, Order: []int32{0, 1, 2}}
	sameAllocation(t, a, want)
}

// tieSystem has two general-purpose machine types — two instances of
// the fastest, so machine choices tie too — plus special-purpose type C,
// and three task types, of which types 0 and 1 have identical ETC rows.
// Type 2 cannot run on C.
func tieSystem(t testing.TB) *hcs.System {
	t.Helper()
	inf := hcs.Incapable
	etc, _ := hcs.MatrixFromRows([][]float64{
		{4, 6, 8},
		{4, 6, 8},
		{3, 9, inf},
	})
	epc, _ := hcs.MatrixFromRows([][]float64{
		{100, 50, 20},
		{100, 50, 20},
		{80, 40, inf},
	})
	gp := hcs.GeneralPurpose
	s := &hcs.System{
		MachineTypes: []hcs.MachineType{{Name: "A", Category: gp}, {Name: "B", Category: gp}, {Name: "C", Category: hcs.SpecialPurpose}},
		TaskTypes:    []hcs.TaskType{{Name: "t0", Category: gp}, {Name: "t1", Category: gp}, {Name: "t2", Category: gp}},
		ETC:          etc,
		EPC:          epc,
		Machines:     []hcs.Machine{{ID: 0, Type: 0}, {ID: 1, Type: 0}, {ID: 2, Type: 1}, {ID: 3, Type: 2}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// tieEvaluator builds an evaluator over tieSystem for tasks of the given
// types and (non-decreasing) arrivals.
func tieEvaluator(t testing.TB, types []int, arrivals []float64) *sched.Evaluator {
	t.Helper()
	tr := &workload.Trace{Window: 100, Tasks: make([]workload.Task, len(types))}
	for i, ty := range types {
		tr.Tasks[i] = workload.Task{ID: i, Type: ty, Arrival: arrivals[i], TUF: utility.LinearDecay(10, 1000)}
	}
	e, err := sched.NewEvaluator(tieSystem(t), tr)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// FuzzMinMin decodes each byte as one task: the low bits pick one of
// three task types, and a set high bit steps the arrival up by 5 s, up
// to 15 s — few distinct arrivals and integer ETCs, so completion ties
// across types and machines are common.
func FuzzMinMin(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 1, 0, 2})
	f.Add([]byte{0x01, 0x80, 0x02, 0x81, 0x00, 0x82, 0x01, 0x80, 0x02})
	f.Add([]byte{2, 2, 2, 0x80, 1, 1, 0, 0, 0x81, 2, 0x80, 0x80, 1, 0, 2, 1, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 || len(in) > 64 {
			return
		}
		types := make([]int, len(in))
		arrivals := make([]float64, len(in))
		level := 0
		for i, b := range in {
			if b&0x80 != 0 && level < 3 {
				level++
			}
			types[i] = int(b&0x7f) % 3
			arrivals[i] = 5 * float64(level)
		}
		e := tieEvaluator(t, types, arrivals)
		sameAllocation(t, heuristics.BuildMinMin(e), heuristics.NaiveMinMin(e))
	})
}
