package sched

// Machine-major evaluation over execution-order slots.
//
// The schedule semantics are machine-independent: a machine's queue —
// and therefore its utility, energy, busy time, and last completion —
// depends only on the set of tasks assigned to it and their relative
// scheduling order, never on what other machines run (§IV-D: a machine
// idles until the next of ITS tasks arrives). SlotSession exploits this
// by walking an allocation's execution-order slot array once, advancing
// the accumulators of each task's machine, and then folding the
// machines in fixed machine order. Each machine's accumulators see that
// machine's tasks in execution order with the same floating-point
// operations a per-machine simulation performs, so the result is bit
// for bit the per-machine simulation followed by the machine-order fold
// (the oracle in reference_test.go). Consecutive slots usually belong to
// different machines, so the per-machine completion-time dependency
// chains overlap in the walk without any batching.

// PackSlot packs one task's placement into the execution-order slot
// format EvaluateSlots consumes: machine assignment (shifted so Dropped
// packs to zero) in the high half, task id in the low half. An
// execution-order slot array maps global scheduling order o to
// PackSlot(machine, task) of the task scheduled o-th; dropped tasks are
// recognized by a zero high half.
func PackSlot(machine int32, task int) uint64 {
	return uint64(uint32(machine+1))<<32 | uint64(uint32(task))
}

// ScatterSlots rewrites slots (length NumTasks) into the allocation's
// execution-order layout: slots[o] packs the machine assignment and task
// id of the task scheduled o-th. The NSGA-II engine builds its offspring
// slot arrays as a by-product of order repair; this is the standalone
// path for allocations that arrive whole.
//
//detlint:hotpath
func ScatterSlots(a *Allocation, slots []uint64) {
	order := a.Order
	for i, m := range a.Machine {
		slots[order[i]] = PackSlot(m, i)
	}
}

// Stats counts the work a SlotSession has performed since its creation.
// Counters are cumulative and monotone; diff two snapshots for an
// interval.
type Stats struct {
	// Evals counts evaluations.
	Evals uint64
	// Machines counts machine queues simulated: every machine of every
	// evaluation.
	Machines uint64
	// Tasks counts executed (non-dropped) tasks simulated.
	Tasks uint64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Evals += o.Evals
	s.Machines += o.Machines
	s.Tasks += o.Tasks
}

// Sub subtracts o from s (for diffing cumulative snapshots).
func (s *Stats) Sub(o Stats) {
	s.Evals -= o.Evals
	s.Machines -= o.Machines
	s.Tasks -= o.Tasks
}

// machineAcc is one machine's in-flight simulation state: last
// completion time, accumulated execution time, earned utility, and
// execution energy. 32 bytes, two machines per cache line.
type machineAcc struct {
	ready, busy, util, energy float64
}

// SlotSession holds the per-machine accumulators for slot-order
// evaluation on one goroutine. Like Session, the underlying evaluator is
// read-only and may be shared; each goroutine needs its own SlotSession.
type SlotSession struct {
	e   *Evaluator
	acc []machineAcc
	// slots is the execution-order scratch for Evaluate.
	slots []uint64
	// stats counts the session's work with plain (non-atomic)
	// increments — sessions are single-goroutine by contract.
	stats Stats
}

// NewSlotSession returns a slot-order evaluation session bound to e.
func (e *Evaluator) NewSlotSession() *SlotSession {
	return &SlotSession{
		e:     e,
		acc:   make([]machineAcc, e.NumMachines()),
		slots: make([]uint64, e.NumTasks()),
	}
}

// Stats returns a snapshot of the session's cumulative work counters.
func (s *SlotSession) Stats() Stats { return s.stats }

// Evaluate scatters the allocation into the session's slot scratch and
// evaluates it with EvaluateSlots. The allocation is not validated.
//
//detlint:hotpath
//detlint:pure
func (s *SlotSession) Evaluate(a *Allocation) Evaluation {
	ScatterSlots(a, s.slots)
	return s.EvaluateSlots(s.slots)
}

// EvaluateSlots simulates the execution-order slot array (length
// NumTasks, see PackSlot) and returns the objective values. For each
// task it idles the machine until the task arrives, adds the execution
// time, resolves the utility through the hoisted TUF tail guard (falling
// back to the compiled segment table only for completions inside the
// segment window), and adds the execution energy. The machines are then
// folded in machine order, idle energy included.
//
//detlint:hotpath
func (s *SlotSession) EvaluateSlots(slots []uint64) Evaluation {
	e := s.e
	acc := s.acc
	clear(acc)
	meta, costs, tufs := e.meta, e.costs, e.tufs
	nt := e.sys.NumTaskTypes()
	done := 0
	for _, v := range slots {
		mp := int(v >> 32)
		if mp == 0 {
			continue // dropped task
		}
		m := mp - 1
		mt := &meta[uint32(v)]
		c := &costs[m*nt+int(mt.ty)]
		a := &acc[m]
		arr := mt.arrival
		start := a.ready
		if arr > start {
			start = arr // machine idles until the task arrives
		}
		completion := start + c.etc
		a.ready = completion
		a.busy += c.etc
		if el := completion - arr; el >= mt.tailT {
			a.util += mt.tailV
		} else {
			a.util += tufs.Value(int(mt.prog), el)
		}
		a.energy += c.eec
		done++
	}
	var ev Evaluation
	for m := range acc {
		a := &acc[m]
		ev.Utility += a.util
		ev.Energy += a.energy
		if a.ready > ev.Makespan {
			ev.Makespan = a.ready
		}
	}
	ev.Completed = done
	if e.idleWatts != nil {
		var sum float64
		for m, w := range e.idleWatts {
			if idle := acc[m].ready - acc[m].busy; idle > 0 {
				sum += w * idle
			}
		}
		ev.Energy += sum
	}
	s.stats.Evals++
	s.stats.Machines += uint64(len(acc))
	s.stats.Tasks += uint64(done)
	return ev
}
