package sched

import (
	"math"
	"testing"

	"tradeoff/internal/data"
	"tradeoff/internal/datagen"
	"tradeoff/internal/rng"
	"tradeoff/internal/utility"
	"tradeoff/internal/workload"
)

// randomTUF draws a randomized but valid time-utility function: 1-4
// segments of random shape (Constant, Linear or Exponential) with
// non-increasing fractions, and a tail that is zero a third of the time
// and otherwise not above the last segment's end.
func randomTUF(t testing.TB, src *rng.Source) *utility.Function {
	t.Helper()
	nseg := 1 + src.Intn(4)
	segs := make([]utility.Segment, 0, nseg)
	prevEnd := 1.0
	for i := 0; i < nseg; i++ {
		start := prevEnd * (0.2 + 0.8*src.Float64())
		end := start * (0.2 + 0.8*src.Float64())
		shape := utility.Shape(src.Intn(3))
		if shape == utility.Constant {
			end = start
		}
		segs = append(segs, utility.Segment{
			Duration:  1 + 200*src.Float64(),
			StartFrac: start,
			EndFrac:   end,
			Shape:     shape,
		})
		prevEnd = end
	}
	tail := 0.0
	if !src.Bool(1.0 / 3) {
		tail = prevEnd * src.Float64()
	}
	f, err := utility.New(1+99*src.Float64(), tail, segs...)
	if err != nil {
		t.Fatalf("random TUF invalid: %v", err)
	}
	return f
}

// degenerateTUF draws one of the edge shapes the hoisted tail guard
// special-cases: a single-segment zero-tail step function, or a
// zero-penalty function that earns full priority whenever the task
// completes.
func degenerateTUF(t testing.TB, src *rng.Source) *utility.Function {
	t.Helper()
	tail := 0.0 // single segment, zero tail: a hard-deadline step
	if src.Bool(0.5) {
		tail = 1 // zero penalty: constant at priority forever
	}
	f, err := utility.New(1+9*src.Float64(), tail,
		utility.Segment{Duration: 1 + 50*src.Float64(), StartFrac: 1, EndFrac: 1, Shape: utility.Constant})
	if err != nil {
		t.Fatalf("degenerate TUF invalid: %v", err)
	}
	return f
}

// kernelEval builds an evaluator over the real system with n tasks whose
// TUFs are replaced by randomized shapes: degenerateFrac of the tasks
// receive a degenerate function, and a quarter of the rest reuse a copy
// of an earlier task's function, so the compiled table deduplicates.
func kernelEval(t testing.TB, n int, seed uint64, degenerateFrac float64) *Evaluator {
	t.Helper()
	sys := data.RealSystem()
	tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: n, Window: 600}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(seed ^ 0x9e3779b97f4a7c15)
	for i := range tr.Tasks {
		switch {
		case src.Bool(degenerateFrac):
			tr.Tasks[i].TUF = degenerateTUF(t, src)
		case i > 0 && src.Bool(0.25):
			tr.Tasks[i].TUF = tr.Tasks[src.Intn(i)].TUF.Clone()
		default:
			tr.Tasks[i].TUF = randomTUF(t, src)
		}
	}
	e, err := NewEvaluator(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// setIdle turns the idle-energy extension on with distinct per-type
// wattages.
func setIdle(t testing.TB, e *Evaluator) {
	t.Helper()
	watts := make([]float64, e.System().NumMachineTypes())
	for i := range watts {
		watts[i] = 2 + 1.5*float64(i)
	}
	if err := e.SetIdlePower(watts); err != nil {
		t.Fatal(err)
	}
}

// randomAlloc draws a random allocation, dropping each task with
// probability dropFrac (which requires AllowDropping).
func randomAlloc(e *Evaluator, src *rng.Source, dropFrac float64) *Allocation {
	a := e.RandomAllocation(src)
	if dropFrac > 0 {
		for i := range a.Machine {
			if src.Bool(dropFrac) {
				a.Machine[i] = Dropped
			}
		}
	}
	return a
}

// checkAgainstReference fails unless the slot-order kernel reproduces
// the per-machine reference bit for bit on trials random allocations.
func checkAgainstReference(t testing.TB, label string, e *Evaluator, src *rng.Source, trials int, dropFrac float64) {
	t.Helper()
	sess := e.NewSlotSession()
	slots := make([]uint64, e.NumTasks())
	for trial := 0; trial < trials; trial++ {
		a := randomAlloc(e, src, dropFrac)
		want := referenceSlots(e, a)
		if got := sess.Evaluate(a); got != want {
			t.Fatalf("%s trial %d: Evaluate %+v vs reference %+v", label, trial, got, want)
		}
		ScatterSlots(a, slots)
		if got := sess.EvaluateSlots(slots); got != want {
			t.Fatalf("%s trial %d: EvaluateSlots %+v vs reference %+v", label, trial, got, want)
		}
	}
}

// TestKernelsBitIdentical is the slot-order kernel's oracle property: on
// randomized TUF shapes (Exponential, single-segment, zero-tail and
// zero-penalty functions, many of them shared), random allocations with
// and without drops, and idle power on and off, it must evaluate bit for
// bit like the per-machine reference kernel and fold.
func TestKernelsBitIdentical(t *testing.T) {
	for _, cfg := range []struct {
		n       int
		degFrac float64
		drops   bool
	}{
		{1, 0, false},
		{30, 0, false},
		{30, 1, false}, // all degenerate
		{120, 0.3, false},
		{120, 0.3, true},
		{400, 0.5, true},
	} {
		for _, idle := range []bool{false, true} {
			e := kernelEval(t, cfg.n, uint64(9000+cfg.n), cfg.degFrac)
			e.AllowDropping = cfg.drops
			if idle {
				setIdle(t, e)
			}
			drop := 0.0
			if cfg.drops {
				drop = 0.15
			}
			checkAgainstReference(t, "random TUFs", e, rng.New(uint64(31+cfg.n)), 20, drop)
		}
	}
}

// TestKernelListMatchesPerMachine checks the walk below the fold: one
// pass over the slot list, with every machine's queue interleaved, must
// leave each machine's accumulators (ready, busy, utility, energy)
// bitwise equal to simulating that machine's queue on its own.
func TestKernelListMatchesPerMachine(t *testing.T) {
	for _, drops := range []bool{false, true} {
		e := kernelEval(t, 150, 42, 0.25)
		e.AllowDropping = drops
		dropFrac := 0.0
		if drops {
			dropFrac = 0.2
		}
		sess := e.NewSlotSession()
		src := rng.New(7)
		for trial := 0; trial < 10; trial++ {
			a := randomAlloc(e, src, dropFrac)
			sess.Evaluate(a)
			rows, _ := referenceRows(e, a)
			for m := range rows {
				if sess.acc[m] != rows[m] {
					t.Fatalf("drops=%v trial %d machine %d: walk row %+v vs per-machine %+v",
						drops, trial, m, sess.acc[m], rows[m])
				}
			}
		}
	}
}

// TestEvaluateSlotsOnDatagenInstances runs the oracle on datagen's
// synthesized special-purpose systems, whose Incapable cells and many
// machine types the real system lacks.
func TestEvaluateSlotsOnDatagenInstances(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		sys, tr, err := datagen.Instance(data.RealSystem(), datagen.Default(), 300, 900, seed)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEvaluator(sys, tr)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, "datagen", e, rng.New(seed+10), 10, 0)
		setIdle(t, e)
		e.AllowDropping = true
		checkAgainstReference(t, "datagen idle+drops", e, rng.New(seed+20), 10, 0.1)
	}
}

// TestEvaluateFullMatchesSession cross-checks a full slot-order
// evaluation of an allocation against the task-major Session sweep. The
// two sum the same per-task terms in different orders, so they agree to
// rounding, not bitwise.
func TestEvaluateFullMatchesSession(t *testing.T) {
	near := func(x, y float64) bool {
		diff := math.Abs(x - y)
		return diff <= 1e-9 || diff <= 1e-12*math.Max(math.Abs(x), math.Abs(y))
	}
	for _, n := range []int{40, 250} {
		for _, idle := range []bool{false, true} {
			e := kernelEval(t, n, uint64(1000+n), 0.2)
			e.AllowDropping = true
			if idle {
				setIdle(t, e)
			}
			sess, slot := e.NewSession(), e.NewSlotSession()
			src := rng.New(uint64(7 + n))
			for trial := 0; trial < 25; trial++ {
				a := randomAlloc(e, src, 0.2)
				want, got := sess.Evaluate(a), slot.Evaluate(a)
				if !near(got.Utility, want.Utility) || !near(got.Energy, want.Energy) ||
					!near(got.Makespan, want.Makespan) || got.Completed != want.Completed {
					t.Fatalf("n=%d idle=%v trial %d: slots %+v vs session %+v", n, idle, trial, got, want)
				}
			}
		}
	}
}

// TestSlotSessionStats checks the work counters: one evaluation, every
// machine, and the executed tasks per Evaluate call.
func TestSlotSessionStats(t *testing.T) {
	e := kernelEval(t, 50, 3, 0)
	e.AllowDropping = true
	sess := e.NewSlotSession()
	var want Stats
	src := rng.New(4)
	for trial := 0; trial < 3; trial++ {
		ev := sess.Evaluate(randomAlloc(e, src, 0.3))
		want.Add(Stats{Evals: 1, Machines: uint64(e.NumMachines()), Tasks: uint64(ev.Completed)})
	}
	if got := sess.Stats(); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
}

// TestTUFDedupSharesPrograms checks that the evaluator compiles one
// program per distinct function: cloned functions share a program.
func TestTUFDedupSharesPrograms(t *testing.T) {
	sys := data.RealSystem()
	tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: 40, Window: 300}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Tasks {
		tr.Tasks[i].TUF = tr.Tasks[i%4].TUF.Clone()
	}
	e, err := NewEvaluator(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.tufs.Len(); got > 4 {
		t.Fatalf("%d compiled programs for 4 distinct functions", got)
	}
	for i := range tr.Tasks {
		if e.meta[i].prog != e.meta[i%4].prog {
			t.Fatalf("task %d program %d, want task %d's %d", i, e.meta[i].prog, i%4, e.meta[i%4].prog)
		}
	}
}

// FuzzEvaluateSlots drives arbitrary instances through the oracle:
// trace size, seed, idle power and dropping.
func FuzzEvaluateSlots(f *testing.F) {
	f.Add(uint64(1), uint8(20), false, false)
	f.Add(uint64(99), uint8(60), true, true)
	f.Add(uint64(3), uint8(1), true, false)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, idle, drop bool) {
		n := 1 + int(nRaw)%120
		e := kernelEval(t, n, seed|1, float64(seed%4)/4)
		e.AllowDropping = drop
		if idle {
			setIdle(t, e)
		}
		dropFrac := 0.0
		if drop {
			dropFrac = 0.25
		}
		checkAgainstReference(t, "fuzz", e, rng.New(seed^0x9e3779b97f4a7c15), 4, dropFrac)
	})
}
