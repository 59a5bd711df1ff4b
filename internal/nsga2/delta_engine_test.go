package nsga2

import (
	"testing"

	"tradeoff/internal/heuristics"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
)

// The engine evaluates offspring incrementally: variation maintains each
// child's execution-order slot array as it edits the chromosome (order
// repair writes it as a by-product, mutation patches it in O(1)), and
// evaluation walks that array. The tests in this file check the
// incremental path against the full one — scattering every allocation
// into a fresh slot array and evaluating it from scratch.

// comparePopulations fails unless the two engines hold bitwise-identical
// populations: genotypes, objectives, ranks, and crowding distances.
func comparePopulations(t *testing.T, label string, a, b *Engine) {
	t.Helper()
	if len(a.pop) != len(b.pop) {
		t.Fatalf("%s: population sizes %d vs %d", label, len(a.pop), len(b.pop))
	}
	for i := range a.pop {
		ia, ib := &a.pop[i], &b.pop[i]
		for g := range ia.Alloc.Machine {
			if ia.Alloc.Machine[g] != ib.Alloc.Machine[g] || ia.Alloc.Order[g] != ib.Alloc.Order[g] {
				t.Fatalf("%s: individual %d gene %d diverged", label, i, g)
			}
		}
		for d := range ia.Objectives {
			if ia.Objectives[d] != ib.Objectives[d] {
				t.Fatalf("%s: individual %d objective %d: %v vs %v",
					label, i, d, ia.Objectives[d], ib.Objectives[d])
			}
		}
		if ia.Rank != ib.Rank || ia.Crowding != ib.Crowding {
			t.Fatalf("%s: individual %d rank/crowding diverged", label, i)
		}
	}
}

// requireFullMatch fails unless every population member and every
// offspring of the last Step carries, bit for bit, the objectives a full
// evaluation of its allocation gives. Offspring that lost survivor
// selection still hold their genes and objectives until the next Step
// (or Inject) recycles them.
func requireFullMatch(t *testing.T, label string, e *Engine) {
	t.Helper()
	requireFullMatchOf(t, label+" individual", e, e.pop)
	requireFullMatchOf(t, label+" offspring", e, e.offspring)
}

func requireFullMatchOf(t *testing.T, label string, e *Engine, inds []Individual) {
	t.Helper()
	sess := e.eval.NewSlotSession()
	for i := range inds {
		ind := &inds[i]
		if err := e.eval.Validate(ind.Alloc); err != nil {
			t.Fatalf("%s %d invalid: %v", label, i, err)
		}
		var full Individual
		e.problem.fill(&full, sess.Evaluate(ind.Alloc), e.space.Dim())
		for d := range full.Objectives {
			if ind.Objectives[d] != full.Objectives[d] {
				t.Fatalf("%s %d objective %d: incremental %v vs full %v",
					label, i, d, ind.Objectives[d], full.Objectives[d])
			}
		}
	}
}

// TestDeltaEngineMatchesFullEngine is the engine-level bit-identity
// property of incremental evaluation, generation by generation, across
// repair strategies, selection rules, worker counts, seeded
// populations, idle-power evaluators, and mutation rates up to always
// mutating. With several workers the populations must also equal a
// serial engine's.
func TestDeltaEngineMatchesFullEngine(t *testing.T) {
	cases := []struct {
		name  string
		tasks int
		cfg   Config
		idle  bool
		seed  bool
	}{
		{name: "base", tasks: 60, cfg: Config{PopulationSize: 20}},
		{name: "shuffle-repair", tasks: 60, cfg: Config{PopulationSize: 20, Repair: ShuffleRepair}},
		{name: "tournament", tasks: 60, cfg: Config{PopulationSize: 20, Selection: TournamentSelection}},
		{name: "workers", tasks: 60, cfg: Config{PopulationSize: 20, Workers: 4}},
		{name: "idle-power", tasks: 60, cfg: Config{PopulationSize: 20}, idle: true},
		{name: "seeded", tasks: 80, cfg: Config{PopulationSize: 16}, seed: true},
		{name: "high-mutation", tasks: 40, cfg: Config{PopulationSize: 12, MutationRate: 0.9}},
		{name: "always-diff", tasks: 60, cfg: Config{PopulationSize: 20, MutationRate: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mkEngine := func(workers int) *Engine {
				e := newEval(t, tc.tasks)
				if tc.idle {
					watts := make([]float64, e.System().NumMachineTypes())
					for i := range watts {
						watts[i] = 3 + float64(i)
					}
					if err := e.SetIdlePower(watts); err != nil {
						t.Fatal(err)
					}
				}
				cfg := tc.cfg
				cfg.Workers = workers
				if tc.seed {
					cfg.Seeds = []*sched.Allocation{heuristics.BuildMinEnergy(e)}
				}
				eng, err := New(e, cfg, rng.New(77))
				if err != nil {
					t.Fatal(err)
				}
				return eng
			}
			workers := tc.cfg.Workers
			if workers == 0 {
				workers = 1
			}
			eng := mkEngine(workers)
			serial := mkEngine(1)
			requireFullMatch(t, tc.name+"/gen0", eng)
			for gen := 1; gen <= 12; gen++ {
				eng.Step()
				serial.Step()
				requireFullMatch(t, tc.name, eng)
				comparePopulations(t, tc.name, eng, serial)
			}
		})
	}
}

// TestDeltaEngineMatchesFullWithInject checks individuals entering the
// population mid-run: they are evaluated from their allocation, and the
// offspring bred from them afterwards from variation's slot arrays.
func TestDeltaEngineMatchesFullWithInject(t *testing.T) {
	eng := newEngine(t, 50, Config{PopulationSize: 16}, 5)
	eng.Run(5)
	inject := []Individual{
		{Alloc: eng.eval.RandomAllocation(rng.New(99))},
		{Alloc: heuristics.BuildMinEnergy(eng.eval)},
	}
	if err := eng.Inject(inject); err != nil {
		t.Fatal(err)
	}
	requireFullMatchOf(t, "injected population", eng, eng.pop)
	for gen := 0; gen < 8; gen++ {
		eng.Step()
		requireFullMatch(t, "post-inject", eng)
	}
}

// TestDeltaEngineMatchesFullAfterRestore checks the snapshot path: a
// restored population is evaluated from its allocations, and continuing
// the run must match both full evaluation and the uninterrupted run.
func TestDeltaEngineMatchesFullAfterRestore(t *testing.T) {
	src := newEngine(t, 40, Config{PopulationSize: 12}, 8)
	src.Run(4)
	snap := src.Snapshot()

	restored := newEngine(t, 40, Config{PopulationSize: 12}, 8)
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 8; gen++ {
		src.Step()
		restored.Step()
		requireFullMatch(t, "post-restore", restored)
		comparePopulations(t, "post-restore", restored, src)
	}
}

// FuzzDeltaEngine drives arbitrary engine configurations through the
// incremental-vs-full objective check.
func FuzzDeltaEngine(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(10), false, false, uint8(3))
	f.Add(uint64(9), uint8(90), uint8(8), true, true, uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, tasksRaw, popRaw uint8, shuffle, tournament bool, gens uint8) {
		tasks := 2 + int(tasksRaw)%100
		pop := 2 * (1 + int(popRaw)%10)
		cfg := Config{PopulationSize: pop}
		if shuffle {
			cfg.Repair = ShuffleRepair
		}
		if tournament {
			cfg.Selection = TournamentSelection
		}
		eng := newEngine(t, tasks, cfg, seed|1)
		for g := 0; g < int(gens)%10+1; g++ {
			eng.Step()
			requireFullMatch(t, "fuzz", eng)
		}
	})
}
