package sched

import (
	"math"
	"testing"

	"tradeoff/internal/data"
	"tradeoff/internal/rng"
	"tradeoff/internal/workload"
)

// simMachine is the per-machine scalar reference for the slot-order
// kernel: it simulates one machine's task sequence in execution order,
// reading ETC/EEC from the per-type tables and utility from each task's
// source Function (not the compiled, deduplicated table).
func simMachine(e *Evaluator, m int, tasks []int) machineAcc {
	var acc machineAcc
	for _, ti := range tasks {
		task := &e.trace.Tasks[ti]
		start := acc.ready
		if task.Arrival > start {
			start = task.Arrival // machine idles until the task arrives
		}
		etc := e.ETCInstance(task.Type, m)
		completion := start + etc
		acc.ready = completion
		acc.busy += etc
		acc.util += task.TUF.Value(completion - task.Arrival)
		acc.energy += e.EECInstance(task.Type, m)
	}
	return acc
}

// referenceRows gathers every machine's queue in execution order and
// simulates each machine with simMachine. It returns the per-machine
// rows and the number of executed tasks.
func referenceRows(e *Evaluator, a *Allocation) ([]machineAcc, int) {
	n, nm := a.Len(), e.NumMachines()
	byOrder := make([]int, n)
	for i := 0; i < n; i++ {
		byOrder[a.Order[i]] = i
	}
	queues := make([][]int, nm)
	done := 0
	for _, ti := range byOrder {
		if m := a.Machine[ti]; m != Dropped {
			queues[m] = append(queues[m], ti)
			done++
		}
	}
	rows := make([]machineAcc, nm)
	for m := range rows {
		rows[m] = simMachine(e, m, queues[m])
	}
	return rows, done
}

// referenceSlots is the independent, deliberately plain oracle for both
// evaluators: simulate every machine's queue with referenceRows and fold
// the rows in machine order, idle energy included. SlotSession must
// match it bit for bit; the task-major Session sums in another order and
// matches it to rounding.
func referenceSlots(e *Evaluator, a *Allocation) Evaluation {
	rows, done := referenceRows(e, a)
	ev := Evaluation{Completed: done}
	for m := range rows {
		ev.Utility += rows[m].util
		ev.Energy += rows[m].energy
		if rows[m].ready > ev.Makespan {
			ev.Makespan = rows[m].ready
		}
	}
	if e.idleWatts != nil {
		var sum float64
		for m, w := range e.idleWatts {
			if idle := rows[m].ready - rows[m].busy; idle > 0 {
				sum += w * idle
			}
		}
		ev.Energy += sum
	}
	return ev
}

func TestEvaluateAgainstReferenceImplementation(t *testing.T) {
	sys := data.RealSystem()
	for _, n := range []int{1, 2, 10, 80, 250} {
		tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: n, Window: 600}, rng.New(uint64(100+n)))
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEvaluator(sys, tr)
		if err != nil {
			t.Fatal(err)
		}
		sess := e.NewSession()
		src := rng.New(uint64(200 + n))
		for trial := 0; trial < 30; trial++ {
			a := e.RandomAllocation(src)
			got := sess.Evaluate(a)
			want := referenceSlots(e, a)
			if math.Abs(got.Utility-want.Utility) > 1e-9 ||
				math.Abs(got.Energy-want.Energy) > 1e-9 ||
				math.Abs(got.Makespan-want.Makespan) > 1e-9 ||
				got.Completed != want.Completed {
				t.Fatalf("n=%d trial %d: fast %+v vs reference %+v", n, trial, got, want)
			}
		}
	}
}

func TestEvaluateAgainstReferenceWithDrops(t *testing.T) {
	sys := data.RealSystem()
	tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: 60, Window: 300}, rng.New(301))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	e.AllowDropping = true
	sess := e.NewSession()
	src := rng.New(302)
	for trial := 0; trial < 20; trial++ {
		a := e.RandomAllocation(src)
		for i := 0; i < a.Len(); i++ {
			if src.Bool(0.3) {
				a.Machine[i] = Dropped
			}
		}
		got := sess.Evaluate(a)
		want := referenceSlots(e, a)
		if math.Abs(got.Utility-want.Utility) > 1e-9 || math.Abs(got.Energy-want.Energy) > 1e-9 ||
			got.Completed != want.Completed {
			t.Fatalf("trial %d: fast %+v vs reference %+v", trial, got, want)
		}
	}
}

func TestEvaluateAgainstReferenceOnEnlargedSystem(t *testing.T) {
	// The special-purpose machine paths (Incapable entries) must agree
	// too; use a capability-respecting random allocation.
	sys := data.RealSystem()
	// Build a minimal special-purpose system by hand to avoid importing
	// datagen (cycle-free but heavier); reuse the tiny system style.
	tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: 150, Window: 900, Arrival: workload.PoissonArrivals}, rng.New(303))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	sess := e.NewSession()
	src := rng.New(304)
	for trial := 0; trial < 20; trial++ {
		a := e.RandomAllocation(src)
		got := sess.Evaluate(a)
		want := referenceSlots(e, a)
		if math.Abs(got.Utility-want.Utility) > 1e-9 || math.Abs(got.Energy-want.Energy) > 1e-9 {
			t.Fatalf("trial %d mismatch", trial)
		}
	}
}
