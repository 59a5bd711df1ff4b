package sched

import (
	"slices"
	"testing"

	"tradeoff/internal/data"
	"tradeoff/internal/rng"
	"tradeoff/internal/workload"
)

// The NSGA-II engine never re-derives an offspring's slot array from
// scratch: order repair after crossover writes it as a by-product, and
// mutation patches it in O(1) per edit. The tests in this file drive
// such edit sequences — each child a small delta from its parent —
// through one reused SlotSession, and check every child against the
// per-machine reference bit for bit: the objective totals, each
// machine's row, and the patched slot array itself.

// deltaEval builds an evaluator over the real system with n tasks.
func deltaEval(t testing.TB, n int, seed uint64) *Evaluator {
	t.Helper()
	sys := data.RealSystem()
	tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: n, Window: 600}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// mutateAlloc applies the engine's mutation operator — reassign one gene
// to a random eligible machine (or drop it), and swap two genes' global
// orders — patching the slot array in place the way the engine does.
func mutateAlloc(e *Evaluator, a *Allocation, slots []uint64, src *rng.Source, allowDrop bool) {
	n := a.Len()
	g := src.Intn(n)
	if allowDrop && src.Bool(0.3) {
		a.Machine[g] = Dropped
	} else {
		el := e.Eligible(e.Trace().Tasks[g].Type)
		a.Machine[g] = int32(el[src.Intn(len(el))])
	}
	slots[a.Order[g]] = PackSlot(a.Machine[g], g)
	x, y := src.Intn(n), src.Intn(n)
	ox, oy := a.Order[x], a.Order[y]
	a.Order[x], a.Order[y] = oy, ox
	slots[ox], slots[oy] = slots[oy], slots[ox]
}

// crossAlloc applies the engine's segment-swap crossover with re-rank
// repair to two allocations in place.
func crossAlloc(a, b *Allocation, src *rng.Source) {
	n := a.Len()
	i, j := src.Intn(n), src.Intn(n)
	if i > j {
		i, j = j, i
	}
	for k := i; k <= j; k++ {
		a.Machine[k], b.Machine[k] = b.Machine[k], a.Machine[k]
		a.Order[k], b.Order[k] = b.Order[k], a.Order[k]
	}
	repairRerank(a.Order)
	repairRerank(b.Order)
}

// repairRerank mirrors the engine's re-rank repair: rank genes by
// (order value, gene index).
func repairRerank(ord []int32) {
	n := len(ord)
	keys := make([]int, n)
	for i, v := range ord {
		keys[i] = int(v)*n + i
	}
	slices.Sort(keys)
	for pos, key := range keys {
		ord[key%n] = int32(pos)
	}
}

// requireChildMatches fails unless evaluating the child's slot array
// with sess reproduces the reference bit for bit, totals and every
// machine's row.
func requireChildMatches(t *testing.T, label string, e *Evaluator, sess *SlotSession, a *Allocation, slots []uint64) {
	t.Helper()
	got, want := sess.EvaluateSlots(slots), referenceSlots(e, a)
	if got != want {
		t.Fatalf("%s: slot walk %+v != reference %+v", label, got, want)
	}
	rows, _ := referenceRows(e, a)
	for m := range rows {
		if sess.acc[m] != rows[m] {
			t.Fatalf("%s machine %d: row %+v != reference %+v", label, m, sess.acc[m], rows[m])
		}
	}
}

// runDeltaSequence drives a random variation sequence — crossover with
// repair (the slot array rewritten, as repair does), mutation (the slot
// array patched), or both — and checks every child with one reused
// session.
func runDeltaSequence(t *testing.T, e *Evaluator, seed uint64, steps int, allowDrop bool) {
	t.Helper()
	e.AllowDropping = e.AllowDropping || allowDrop
	src := rng.New(seed)
	sess := e.NewSlotSession()

	cur := e.RandomAllocation(src)
	other := e.RandomAllocation(src)
	curSlots := make([]uint64, cur.Len())
	ScatterSlots(cur, curSlots)
	requireChildMatches(t, "initial", e, sess, cur, curSlots)
	fresh := make([]uint64, cur.Len())

	for s := 0; s < steps; s++ {
		next := cur.Clone()
		nextSlots := slices.Clone(curSlots)
		if src.Bool(0.6) {
			crossAlloc(next, other, src)
			ScatterSlots(next, nextSlots)
		}
		if src.Bool(0.5) {
			mutateAlloc(e, next, nextSlots, src, allowDrop)
		}
		if err := e.Validate(next); err != nil {
			t.Fatalf("step %d: child invalid: %v", s, err)
		}
		ScatterSlots(next, fresh)
		if !slices.Equal(nextSlots, fresh) {
			t.Fatalf("step %d: patched slot array diverged from a fresh scatter", s)
		}
		requireChildMatches(t, "step", e, sess, next, nextSlots)
		cur, other = next, cur
		curSlots = nextSlots
	}
}

// TestEvaluateDeltaBitIdenticalToFull is the incremental-evaluation
// property: over random crossover/mutation sequences, with idle power
// and dropping both on and off, evaluating each child from its edited
// slot array must reproduce the full per-machine reference bit for bit.
func TestEvaluateDeltaBitIdenticalToFull(t *testing.T) {
	for _, n := range []int{1, 7, 60, 250} {
		for _, idle := range []bool{false, true} {
			for _, drop := range []bool{false, true} {
				e := deltaEval(t, n, uint64(40+n))
				if idle {
					setIdle(t, e)
				}
				runDeltaSequence(t, e, uint64(n)*31+7, 40, drop)
			}
		}
	}
}

// TestEvaluateDeltaFallsBackWithoutParent checks that a child's
// evaluation owes nothing to its parent's: the session carries no state
// from one call to the next. A fresh session, one that has just
// evaluated the parent, one holding garbage accumulators, and one fed
// its own Evaluate scratch must all match the reference.
func TestEvaluateDeltaFallsBackWithoutParent(t *testing.T) {
	e := deltaEval(t, 30, 9)
	setIdle(t, e)
	src := rng.New(11)
	parent := e.RandomAllocation(src)
	child := parent.Clone()
	childSlots := make([]uint64, child.Len())
	ScatterSlots(child, childSlots)
	mutateAlloc(e, child, childSlots, src, false)
	want := referenceSlots(e, child)

	if got := e.NewSlotSession().EvaluateSlots(childSlots); got != want {
		t.Fatalf("fresh session: %+v != %+v", got, want)
	}
	warm := e.NewSlotSession()
	warm.Evaluate(parent)
	requireChildMatches(t, "after parent", e, warm, child, childSlots)

	for m := range warm.acc {
		warm.acc[m] = machineAcc{ready: 1e300, busy: -1, util: 7, energy: 1e9}
	}
	requireChildMatches(t, "garbage accumulators", e, warm, child, childSlots)

	// The session's own scatter scratch as input must not be disturbed.
	warm.Evaluate(child)
	requireChildMatches(t, "own scratch", e, warm, child, warm.slots)
}

// FuzzEvaluateDelta drives arbitrary-seeded variation sequences through
// the incremental-vs-reference cross-check.
func FuzzEvaluateDelta(f *testing.F) {
	f.Add(uint64(1), uint8(20), false, false)
	f.Add(uint64(99), uint8(60), true, true)
	f.Add(uint64(3), uint8(1), true, false)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, idle, drop bool) {
		n := 1 + int(nRaw)%120
		e := deltaEval(t, n, seed|1)
		if idle {
			setIdle(t, e)
		}
		runDeltaSequence(t, e, seed^0x9e3779b97f4a7c15, 12, drop)
	})
}
