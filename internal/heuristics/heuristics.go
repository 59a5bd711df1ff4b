// Package heuristics implements the greedy seeding heuristics of the
// paper's §V-B. Each heuristic deterministically produces one complete
// resource allocation that is injected into an NSGA-II initial population
// to pull the search toward a region of the objective space:
//
//   - Min Energy: per task (in arrival order), the machine with the
//     smallest expected energy consumption. Provably reaches the minimum
//     possible total energy.
//   - Max Utility: per task (in arrival order), the machine whose queue
//     yields the highest utility at the task's completion time.
//   - Max Utility-per-Energy: per task, the machine maximizing utility
//     earned per joule consumed.
//   - Min-Min Completion Time: the classic two-stage heuristic (Ibarra &
//     Kim; Braun et al.): repeatedly map the task whose best-machine
//     completion time is globally smallest. Only the lowest-index unmapped
//     task of each task type can be that task, because tasks of one type
//     share eligible machines and ETCs and workload.Trace.Validate orders
//     them by arrival; tracking those per-type heads costs O(n·T·M) for n
//     tasks, T task types and M machines.
//
// All heuristics return allocations whose global scheduling order equals
// the order in which they map tasks, and all run in time negligible
// compared to the genetic algorithm.
package heuristics

import (
	"fmt"

	"tradeoff/internal/sched"
)

// Heuristic names a deterministic seeding strategy.
type Heuristic int

const (
	// MinEnergy maps each task to its energy-minimizing machine.
	MinEnergy Heuristic = iota
	// MaxUtility maps each task to the machine maximizing its utility.
	MaxUtility
	// MaxUtilityPerEnergy maps each task to the machine maximizing
	// utility earned per unit energy.
	MaxUtilityPerEnergy
	// MinMin is the two-stage minimum-completion-time heuristic.
	MinMin
)

// All lists every heuristic in a stable order.
var All = []Heuristic{MinEnergy, MaxUtility, MaxUtilityPerEnergy, MinMin}

func (h Heuristic) String() string {
	switch h {
	case MinEnergy:
		return "min-energy"
	case MaxUtility:
		return "max-utility"
	case MaxUtilityPerEnergy:
		return "max-utility-per-energy"
	case MinMin:
		return "min-min"
	default:
		return fmt.Sprintf("Heuristic(%d)", int(h))
	}
}

// Build runs the heuristic against an evaluator's system and trace.
func (h Heuristic) Build(e *sched.Evaluator) (*sched.Allocation, error) {
	switch h {
	case MinEnergy:
		return BuildMinEnergy(e), nil
	case MaxUtility:
		return BuildMaxUtility(e), nil
	case MaxUtilityPerEnergy:
		return BuildMaxUtilityPerEnergy(e), nil
	case MinMin:
		return BuildMinMin(e), nil
	default:
		return nil, fmt.Errorf("heuristics: unknown heuristic %d", int(h))
	}
}

// BuildMinEnergy maps tasks in arrival order to the machine consuming the
// least energy for their type (§V-B1). The resulting allocation attains
// the minimum achievable total energy because energy is separable per
// task and independent of ordering.
func BuildMinEnergy(e *sched.Evaluator) *sched.Allocation {
	n := e.NumTasks()
	a := sched.NewAllocation(n)
	tasks := e.Trace().Tasks
	for i := 0; i < n; i++ {
		best, bestE := -1, 0.0
		for _, m := range e.Eligible(tasks[i].Type) {
			if c := e.EECInstance(tasks[i].Type, m); best == -1 || c < bestE {
				best, bestE = m, c
			}
		}
		a.Machine[i] = int32(best)
	}
	return a
}

// BuildMaxUtility maps tasks in arrival order to the machine that yields
// the highest utility given current machine queues (§V-B2), breaking ties
// toward earlier completion. There is no optimality guarantee.
func BuildMaxUtility(e *sched.Evaluator) *sched.Allocation {
	n := e.NumTasks()
	a := sched.NewAllocation(n)
	tasks := e.Trace().Tasks
	ready := make([]float64, e.NumMachines())
	for i := 0; i < n; i++ {
		task := &tasks[i]
		best, bestU, bestC := -1, 0.0, 0.0
		for _, m := range e.Eligible(task.Type) {
			start := ready[m]
			if task.Arrival > start {
				start = task.Arrival
			}
			completion := start + e.ETCInstance(task.Type, m)
			u := task.TUF.Value(completion - task.Arrival)
			if best == -1 || u > bestU || (u == bestU && completion < bestC) {
				best, bestU, bestC = m, u, completion
			}
		}
		a.Machine[i] = int32(best)
		ready[best] = bestC
	}
	return a
}

// BuildMaxUtilityPerEnergy maps tasks in arrival order to the machine
// maximizing utility earned per unit of energy consumed (§V-B3), breaking
// ties toward lower energy.
func BuildMaxUtilityPerEnergy(e *sched.Evaluator) *sched.Allocation {
	n := e.NumTasks()
	a := sched.NewAllocation(n)
	tasks := e.Trace().Tasks
	ready := make([]float64, e.NumMachines())
	for i := 0; i < n; i++ {
		task := &tasks[i]
		best := -1
		bestRatio, bestEnergy, bestC := 0.0, 0.0, 0.0
		for _, m := range e.Eligible(task.Type) {
			start := ready[m]
			if task.Arrival > start {
				start = task.Arrival
			}
			completion := start + e.ETCInstance(task.Type, m)
			u := task.TUF.Value(completion - task.Arrival)
			en := e.EECInstance(task.Type, m)
			ratio := u / en
			if best == -1 || ratio > bestRatio || (ratio == bestRatio && en < bestEnergy) {
				best, bestRatio, bestEnergy, bestC = m, ratio, en, completion
			}
		}
		a.Machine[i] = int32(best)
		ready[best] = bestC
	}
	return a
}

// BuildMinMin runs the two-stage Min-Min completion time heuristic
// (§V-B4). Stage one finds, for every unmapped task, the machine
// minimizing that task's completion time; stage two maps the task-machine
// pair with the overall minimum completion time (lowest task index on a
// tie), then repeats. The global scheduling order records the mapping
// sequence, so machines execute tasks in the order Min-Min chose them.
//
// Only the head of a task type — its lowest-index unmapped task — can
// win stage two. Tasks of one type share their eligible machines and
// ETC row, and sched.NewEvaluator admits only traces that
// workload.Trace.Validate finds sorted by non-decreasing arrival, so a
// head arrives no later than any other task of its type. Its completion
// max(ready, arrival) + ETC is then no greater on every machine, and its
// index is lower. BuildMinMin therefore keeps stage one for the heads
// alone: O(n·T·M) for n tasks, T task types and M machines, instead of
// the O(n²) of rescanning every unmapped task, and the same mapping
// sequence bit for bit.
func BuildMinMin(e *sched.Evaluator) *sched.Allocation {
	n := e.NumTasks()
	a := sched.NewAllocation(n)
	tasks := e.Trace().Tasks
	ready := make([]float64, e.NumMachines())

	// bestFor computes stage one for a single task; the first eligible
	// machine wins ties.
	bestFor := func(i int32) (machine int, completion float64) {
		task := &tasks[i]
		machine = -1
		for _, m := range e.Eligible(task.Type) {
			start := ready[m]
			if task.Arrival > start {
				start = task.Arrival
			}
			c := start + e.ETCInstance(task.Type, m)
			if machine == -1 || c < completion {
				machine, completion = m, c
			}
		}
		return
	}

	// byType lists each type's tasks in index (= arrival) order; type t's
	// head is byType[t][next[t]] while next[t] < len(byType[t]).
	nt := e.System().NumTaskTypes()
	byType := make([][]int32, nt)
	for i := range tasks {
		t := tasks[i].Type
		byType[t] = append(byType[t], int32(i))
	}
	next := make([]int, nt)

	// Cache each head's stage-one result. Mapping a task only makes its
	// machine busier, so a head whose best machine was another one keeps
	// an exact cached value; it is recomputed when it advances or when
	// its best machine is the one just loaded.
	bestM := make([]int, nt)
	bestC := make([]float64, nt)
	for t := range byType {
		if len(byType[t]) > 0 {
			bestM[t], bestC[t] = bestFor(byType[t][0])
		}
	}

	for step := 0; step < n; step++ {
		// Stage two over the heads: smallest completion, then index.
		pick := -1
		for t := range byType {
			if next[t] == len(byType[t]) {
				continue
			}
			if pick == -1 || bestC[t] < bestC[pick] ||
				(bestC[t] == bestC[pick] && byType[t][next[t]] < byType[pick][next[pick]]) {
				pick = t
			}
		}
		i, m := byType[pick][next[pick]], bestM[pick]
		a.Machine[i] = int32(m)
		a.Order[i] = int32(step)
		ready[m] = bestC[pick]
		next[pick]++
		for t := range byType {
			if next[t] < len(byType[t]) && (t == pick || bestM[t] == m) {
				bestM[t], bestC[t] = bestFor(byType[t][next[t]])
			}
		}
	}
	return a
}
