// Package sched defines resource allocations and evaluates them against a
// system and trace, producing the two objective values of the paper's
// §IV-B: total utility earned (Eq. 1) and total energy consumed (Eq. 3).
//
// An Allocation is the phenotype of an NSGA-II chromosome: for every task
// in the trace it holds the machine instance the task executes on and the
// task's global scheduling order. Each machine executes its tasks in
// increasing global order; if the next task has not yet arrived the
// machine idles until the arrival (§IV-D).
package sched

import (
	"fmt"

	"tradeoff/internal/hcs"
	"tradeoff/internal/rng"
	"tradeoff/internal/utility"
	"tradeoff/internal/workload"
)

// Dropped is the machine value of a task that is deliberately not
// executed (the paper's future-work task-dropping extension). Dropped
// tasks consume no energy and earn no utility. Evaluators reject dropped
// tasks unless AllowDropping is set.
const Dropped = -1

// Allocation maps every task of a trace to a machine and a global
// scheduling order. Order must be a permutation of [0, T).
type Allocation struct {
	Machine []int32
	Order   []int32
}

// NewAllocation returns a zero-valued allocation for n tasks with
// identity order.
func NewAllocation(n int) *Allocation {
	a := &Allocation{Machine: make([]int32, n), Order: make([]int32, n)}
	for i := range a.Order {
		a.Order[i] = int32(i)
	}
	return a
}

// Len returns the number of tasks covered by the allocation.
func (a *Allocation) Len() int { return len(a.Machine) }

// Clone returns a deep copy.
func (a *Allocation) Clone() *Allocation {
	return &Allocation{
		Machine: append([]int32(nil), a.Machine...),
		Order:   append([]int32(nil), a.Order...),
	}
}

// CopyFrom overwrites a with src's genes, reusing a's backing arrays
// when they have sufficient capacity. Recycled allocations combined with
// CopyFrom let hot loops (the NSGA-II variation phase) produce offspring
// without per-generation allocation.
func (a *Allocation) CopyFrom(src *Allocation) {
	a.Machine = append(a.Machine[:0], src.Machine...)
	a.Order = append(a.Order[:0], src.Order...)
}

// Evaluation is the outcome of simulating an allocation.
type Evaluation struct {
	// Utility is the total utility earned, U = Σ Υ(t).
	Utility float64
	// Energy is the total energy consumed in joules, E = Σ EEC.
	Energy float64
	// Makespan is the time the last task completes.
	Makespan float64
	// Completed is the number of executed (non-dropped) tasks.
	Completed int
}

// EnergyMegajoules returns the energy objective in MJ, the unit of the
// paper's figures.
func (ev Evaluation) EnergyMegajoules() float64 { return ev.Energy / 1e6 }

// Evaluator simulates allocations for a fixed system and trace. It is
// safe for concurrent use by multiple goroutines once constructed, as
// long as each goroutine passes its own scratch buffers via Evaluate
// (the evaluator itself is read-only); use NewSession for a reusable
// per-goroutine scratch.
type Evaluator struct {
	sys   *hcs.System
	trace *workload.Trace
	// AllowDropping permits Machine[i] == Dropped.
	AllowDropping bool
	// idleWatts, when non-nil, holds per-machine-instance idle power
	// draw; see SetIdlePower.
	idleWatts []float64

	// eec[t][m] caches EEC of task-type t on machine instance m
	// (Incapable where not executable).
	eec [][]float64
	// etc[t][m] caches ETC of task-type t on machine instance m.
	etc [][]float64
	// costs[m*numTaskTypes+t] is the (execution time, energy) pair of
	// task type t on machine instance m: the machine-major layout the
	// slot-order kernel reads, both values on one cache line.
	costs []machineCost
	// eligible[t] lists machine instances capable of task type t.
	eligible [][]int

	// tufs holds the compiled time-utility functions, deduplicated: tasks
	// with bit-identical functions share one program.
	tufs *utility.Table
	// meta interleaves the per-task hot-loop fields into one 32-byte
	// record so the simulation kernel touches a single cache line per
	// task instead of gathering from parallel arrays.
	meta []taskMeta
}

// machineCost is one (task type, machine instance) cell of the ETC and
// EEC tables.
type machineCost struct {
	etc, eec float64
}

// taskMeta is the per-task record of everything the slot-order
// simulation kernel reads: arrival time, hoisted TUF tail guard
// (threshold and past-threshold value, bit-identical to Table.Value past
// the threshold by the Table accessors' contract), task type, and the
// id of the task's compiled TUF program. Sized to 32 bytes — two records
// per cache line.
type taskMeta struct {
	arrival float64
	tailT   float64
	tailV   float64
	ty      int32
	prog    int32
}

// NewEvaluator validates the trace against the system and precomputes
// per-instance ETC/EEC tables.
func NewEvaluator(sys *hcs.System, trace *workload.Trace) (*Evaluator, error) {
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("sched: invalid system: %w", err)
	}
	if err := trace.Validate(sys); err != nil {
		return nil, fmt.Errorf("sched: invalid trace: %w", err)
	}
	e := &Evaluator{sys: sys, trace: trace}
	nt, nm := sys.NumTaskTypes(), sys.NumMachines()
	e.eec = make([][]float64, nt)
	e.etc = make([][]float64, nt)
	e.eligible = make([][]int, nt)
	for t := 0; t < nt; t++ {
		e.eec[t] = make([]float64, nm)
		e.etc[t] = make([]float64, nm)
		for m := 0; m < nm; m++ {
			mu := sys.MachineTypeOf(m)
			e.etc[t][m] = sys.ETC.At(t, mu)
			e.eec[t][m] = sys.EEC(t, mu)
		}
		e.eligible[t] = sys.EligibleMachines(t)
	}
	e.costs = make([]machineCost, nm*nt)
	for m := 0; m < nm; m++ {
		for t := 0; t < nt; t++ {
			e.costs[m*nt+t] = machineCost{etc: e.etc[t][m], eec: e.eec[t][m]}
		}
	}
	n := trace.NumTasks()
	e.tufs = utility.NewTable(0, 0)
	e.meta = make([]taskMeta, n)
	for i := range trace.Tasks {
		task := &trace.Tasks[i]
		prog, err := e.tufs.Add(task.TUF)
		if err != nil {
			return nil, fmt.Errorf("sched: task %d TUF: %w", i, err)
		}
		e.meta[i] = taskMeta{
			arrival: task.Arrival,
			tailT:   e.tufs.TailThreshold(prog),
			tailV:   e.tufs.TailValue(prog),
			ty:      int32(task.Type),
			prog:    int32(prog),
		}
	}
	return e, nil
}

// System returns the evaluator's system.
func (e *Evaluator) System() *hcs.System { return e.sys }

// Trace returns the evaluator's trace.
func (e *Evaluator) Trace() *workload.Trace { return e.trace }

// NumTasks returns the trace length.
func (e *Evaluator) NumTasks() int { return e.trace.NumTasks() }

// NumMachines returns the machine-instance count.
func (e *Evaluator) NumMachines() int { return e.sys.NumMachines() }

// ETCInstance returns the execution time of task type t on machine
// instance m.
func (e *Evaluator) ETCInstance(t, m int) float64 { return e.etc[t][m] }

// EECInstance returns the energy of task type t on machine instance m.
func (e *Evaluator) EECInstance(t, m int) float64 { return e.eec[t][m] }

// Eligible returns the machine instances capable of executing task type
// t. The returned slice is shared; callers must not modify it.
func (e *Evaluator) Eligible(t int) []int { return e.eligible[t] }

// Validate checks that an allocation is structurally sound for this
// evaluator: correct length, machines in range and capable (or Dropped if
// permitted), and Order a permutation.
func (e *Evaluator) Validate(a *Allocation) error {
	n := e.NumTasks()
	if len(a.Machine) != n || len(a.Order) != n {
		return fmt.Errorf("sched: allocation covers %d/%d tasks, trace has %d", len(a.Machine), len(a.Order), n)
	}
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		m := a.Machine[i]
		if m == Dropped {
			if !e.AllowDropping {
				return fmt.Errorf("sched: task %d dropped but dropping is not enabled", i)
			}
		} else {
			if m < 0 || int(m) >= e.NumMachines() {
				return fmt.Errorf("sched: task %d assigned machine %d out of range", i, m)
			}
			tt := e.trace.Tasks[i].Type
			if !e.sys.CapableMachine(tt, int(m)) {
				return fmt.Errorf("sched: task %d (type %d) assigned incapable machine %d", i, tt, m)
			}
		}
		o := int(a.Order[i])
		if o < 0 || o >= n {
			return fmt.Errorf("sched: task %d order %d out of range", i, o)
		}
		if seen[o] {
			return fmt.Errorf("sched: order %d assigned twice", o)
		}
		seen[o] = true
	}
	return nil
}

// SetIdlePower enables the idle-energy extension: machine instances of
// machine type mu draw wattsByType[mu] watts whenever they sit idle
// between time 0 and their last task's completion. The paper's base
// model charges only execution energy (Eq. 3); idle power makes energy
// order-dependent, since allocations that idle machines waiting for
// arrivals pay for the gaps. Pass nil to disable. The slice must have
// one entry per machine type, each >= 0.
func (e *Evaluator) SetIdlePower(wattsByType []float64) error {
	if wattsByType == nil {
		e.idleWatts = nil
		return nil
	}
	if len(wattsByType) != e.sys.NumMachineTypes() {
		return fmt.Errorf("sched: %d idle powers for %d machine types", len(wattsByType), e.sys.NumMachineTypes())
	}
	perInstance := make([]float64, e.NumMachines())
	for m := 0; m < e.NumMachines(); m++ {
		w := wattsByType[e.sys.MachineTypeOf(m)]
		if w < 0 {
			return fmt.Errorf("sched: negative idle power %v", w)
		}
		perInstance[m] = w
	}
	e.idleWatts = perInstance
	return nil
}

// IdlePowerEnabled reports whether the idle-energy extension is active.
func (e *Evaluator) IdlePowerEnabled() bool { return e.idleWatts != nil }

// Session holds reusable scratch space for repeated evaluations on one
// goroutine.
type Session struct {
	e     *Evaluator
	seq   []int     // task index by global order
	ready []float64 // per-machine ready time
	busy  []float64 // per-machine accumulated execution time
}

// NewSession returns an evaluation session bound to e.
func (e *Evaluator) NewSession() *Session {
	return &Session{
		e:     e,
		seq:   make([]int, e.NumTasks()),
		ready: make([]float64, e.NumMachines()),
		busy:  make([]float64, e.NumMachines()),
	}
}

// idleEnergy returns the idle-power energy of the finished simulation
// state (0 when the extension is disabled).
func (s *Session) idleEnergy() float64 {
	if s.e.idleWatts == nil {
		return 0
	}
	var sum float64
	for m, w := range s.e.idleWatts {
		if idle := s.ready[m] - s.busy[m]; idle > 0 {
			sum += w * idle
		}
	}
	return sum
}

// Evaluate simulates the allocation and returns the objective values.
// The allocation is not validated; call Validate separately when the
// source is untrusted. Evaluate is deterministic.
func (s *Session) Evaluate(a *Allocation) Evaluation {
	e := s.e
	n := e.NumTasks()
	for i := range s.ready {
		s.ready[i] = 0
		s.busy[i] = 0
	}
	for i := 0; i < n; i++ {
		s.seq[a.Order[i]] = i
	}
	var ev Evaluation
	tasks := e.trace.Tasks
	for _, ti := range s.seq {
		m := a.Machine[ti]
		if m == Dropped {
			continue
		}
		task := &tasks[ti]
		start := s.ready[m]
		if task.Arrival > start {
			start = task.Arrival // machine idles until the task arrives
		}
		etc := e.etc[task.Type][m]
		completion := start + etc
		s.ready[m] = completion
		s.busy[m] += etc
		ev.Utility += e.tufs.Value(int(e.meta[ti].prog), completion-task.Arrival)
		ev.Energy += e.eec[task.Type][m]
		if completion > ev.Makespan {
			ev.Makespan = completion
		}
		ev.Completed++
	}
	ev.Energy += s.idleEnergy()
	return ev
}

// CompletionTimes simulates the allocation and additionally returns the
// per-task completion time (NaN-free; dropped tasks report -1).
func (s *Session) CompletionTimes(a *Allocation) ([]float64, Evaluation) {
	e := s.e
	n := e.NumTasks()
	for i := range s.ready {
		s.ready[i] = 0
		s.busy[i] = 0
	}
	for i := 0; i < n; i++ {
		s.seq[a.Order[i]] = i
	}
	times := make([]float64, n)
	var ev Evaluation
	tasks := e.trace.Tasks
	for _, ti := range s.seq {
		m := a.Machine[ti]
		if m == Dropped {
			times[ti] = -1
			continue
		}
		task := &tasks[ti]
		start := s.ready[m]
		if task.Arrival > start {
			start = task.Arrival
		}
		etc := e.etc[task.Type][m]
		completion := start + etc
		s.ready[m] = completion
		s.busy[m] += etc
		times[ti] = completion
		ev.Utility += e.tufs.Value(int(e.meta[ti].prog), completion-task.Arrival)
		ev.Energy += e.eec[task.Type][m]
		if completion > ev.Makespan {
			ev.Makespan = completion
		}
		ev.Completed++
	}
	ev.Energy += s.idleEnergy()
	return times, ev
}

// Evaluate is a convenience that allocates a fresh session per call. Use
// a Session in hot loops.
func (e *Evaluator) Evaluate(a *Allocation) Evaluation {
	return e.NewSession().Evaluate(a)
}

// RandomAllocation draws a uniformly random feasible allocation: every
// task on a uniformly random eligible machine, with a uniformly random
// global scheduling order.
func (e *Evaluator) RandomAllocation(src *rng.Source) *Allocation {
	a := &Allocation{}
	e.RandomAllocationInto(a, src)
	return a
}

// RandomAllocationInto fills a with a uniformly random feasible
// allocation, drawing the same rng sequence RandomAllocation would. It
// reuses a's backing arrays when they have sufficient capacity, letting
// arena-backed population initialization stay allocation-free.
func (e *Evaluator) RandomAllocationInto(a *Allocation, src *rng.Source) {
	n := e.NumTasks()
	if cap(a.Machine) < n {
		a.Machine = make([]int32, n)
	}
	if cap(a.Order) < n {
		a.Order = make([]int32, n)
	}
	a.Machine, a.Order = a.Machine[:n], a.Order[:n]
	src.PermInto32(a.Order)
	for i := 0; i < n; i++ {
		el := e.eligible[e.trace.Tasks[i].Type]
		a.Machine[i] = int32(el[src.Intn(len(el))])
	}
}
