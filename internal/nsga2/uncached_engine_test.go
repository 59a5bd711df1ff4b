package nsga2

import (
	"testing"

	"tradeoff/internal/heuristics"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
)

// An engine carries more from one generation to the next than its
// population and rng stream: the arena's recycled genes, objective
// buffers and slot arrays, each worker's slot session, and the ranking
// and selection scratch. None of it may change a result. The tests in
// this file check that against an uncached reference engine, which is
// rebuilt cold from a snapshot of its own state — generation, rng state
// and genotypes only — before every generation. (The tests keep the
// names they had when the engine also memoized fitness; the property
// they pin is the one the memo layers had to respect.)

// coldEngine is the uncached reference: before every Step it snapshots
// the engine, builds a fresh one with mk, and restores the snapshot, so
// no buffer, session or scratch survives from one generation to the
// next.
type coldEngine struct {
	t   testing.TB
	mk  func() *Engine
	eng *Engine
}

func newColdEngine(t testing.TB, mk func() *Engine) *coldEngine {
	return &coldEngine{t: t, mk: mk, eng: mk()}
}

func (c *coldEngine) Step() {
	c.t.Helper()
	fresh := c.mk()
	if err := fresh.Restore(c.eng.Snapshot()); err != nil {
		c.t.Fatal(err)
	}
	c.eng = fresh
	c.eng.Step()
}

// TestCacheEngineMatchesUncached: an engine stepped generation after
// generation and the cold-rebuilt reference, driven by the same rng
// seed, must hold identical populations at every generation — across
// repair strategies, selection rules, worker counts, seeded populations,
// and mutation rates high enough that nearly every child is edited.
func TestCacheEngineMatchesUncached(t *testing.T) {
	cases := []struct {
		name  string
		tasks int
		cfg   Config
		seed  bool
	}{
		{name: "shuffle-repair", tasks: 60, cfg: Config{PopulationSize: 20, Repair: ShuffleRepair}},
		{name: "tournament", tasks: 60, cfg: Config{PopulationSize: 20, Selection: TournamentSelection}},
		{name: "workers", tasks: 60, cfg: Config{PopulationSize: 20, Workers: 4}},
		{name: "seeded", tasks: 80, cfg: Config{PopulationSize: 16}, seed: true},
		{name: "high-mutation", tasks: 40, cfg: Config{PopulationSize: 12, MutationRate: 0.9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEval(t, tc.tasks)
			mk := func() *Engine {
				cfg := tc.cfg
				if tc.seed {
					cfg.Seeds = []*sched.Allocation{heuristics.BuildMinEnergy(e)}
				}
				eng, err := New(e, cfg, rng.New(77))
				if err != nil {
					t.Fatal(err)
				}
				return eng
			}
			warm, cold := mk(), newColdEngine(t, mk)
			comparePopulations(t, tc.name+"/gen0", warm, cold.eng)
			for gen := 1; gen <= 12; gen++ {
				warm.Step()
				cold.Step()
				comparePopulations(t, tc.name, warm, cold.eng)
			}
		})
	}
}

// TestCacheEngineMatchesUncachedWithInject covers genotypes entering the
// population mid-run: injected individuals, and the offspring bred from
// them, must evaluate alike in the warm and the cold-rebuilt engine.
func TestCacheEngineMatchesUncachedWithInject(t *testing.T) {
	e := newEval(t, 50)
	mk := func() *Engine {
		eng, err := New(e, Config{PopulationSize: 16}, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	warm, cold := mk(), newColdEngine(t, mk)
	for gen := 0; gen < 5; gen++ {
		warm.Step()
		cold.Step()
	}
	inject := []Individual{
		{Alloc: e.RandomAllocation(rng.New(99))},
		{Alloc: heuristics.BuildMinEnergy(e)},
	}
	if err := warm.Inject(inject); err != nil {
		t.Fatal(err)
	}
	if err := cold.eng.Inject(inject); err != nil {
		t.Fatal(err)
	}
	comparePopulations(t, "injected", warm, cold.eng)
	for gen := 0; gen < 8; gen++ {
		warm.Step()
		cold.Step()
		comparePopulations(t, "post-inject", warm, cold.eng)
	}
}

// TestCacheEngineMatchesUncachedAfterRestore covers snapshot/restore
// across worker counts: a snapshot taken from a three-worker engine,
// restored into a serial engine, must continue bit for bit like the
// uninterrupted run and like the cold-rebuilt reference.
func TestCacheEngineMatchesUncachedAfterRestore(t *testing.T) {
	e := newEval(t, 40)
	mk := func(workers int, seed uint64) *Engine {
		eng, err := New(e, Config{PopulationSize: 12, Workers: workers}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	src := mk(3, 8)
	src.Run(4)
	snap := src.Snapshot()

	restored := mk(1, 1234)
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	cold := newColdEngine(t, func() *Engine { return mk(2, 99) })
	if err := cold.eng.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 8; gen++ {
		src.Step()
		restored.Step()
		cold.Step()
		comparePopulations(t, "post-restore", src, restored)
		comparePopulations(t, "post-restore cold", src, cold.eng)
	}
}

// TestCacheWorkerInvariance pins the fan-out: after the same run, not
// just the population but the engine's evaluation work counters —
// evaluations, machine queues and tasks simulated, summed over the
// worker sessions — must be identical for every worker count.
func TestCacheWorkerInvariance(t *testing.T) {
	run := func(workers int) *Engine {
		eng, err := New(newEval(t, 60), Config{PopulationSize: 20, Workers: workers}, rng.New(13))
		if err != nil {
			t.Fatal(err)
		}
		eng.Run(10)
		return eng
	}
	serial := run(1)
	want := serial.sessionStats()
	if want.Evals == 0 || want.Tasks == 0 {
		t.Fatalf("serial run counted no work: %+v", want)
	}
	for _, workers := range []int{2, 4, 7} {
		par := run(workers)
		comparePopulations(t, "worker-invariance", serial, par)
		if got := par.sessionStats(); got != want {
			t.Fatalf("workers=%d: evaluation stats %+v diverged from serial %+v", workers, got, want)
		}
	}
}

// FuzzCacheEngine drives arbitrary configurations through the
// warm-vs-cold population equality check, varying trace size,
// population size, repair, selection, worker count, and generation
// count.
func FuzzCacheEngine(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(10), false, false, uint8(3), uint8(1))
	f.Add(uint64(9), uint8(90), uint8(8), true, true, uint8(5), uint8(4))
	f.Add(uint64(4), uint8(20), uint8(6), false, true, uint8(7), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, tasksRaw, popRaw uint8, shuffle, tournament bool, gens, workersRaw uint8) {
		tasks := 2 + int(tasksRaw)%100
		pop := 2 * (1 + int(popRaw)%10)
		cfg := Config{PopulationSize: pop, Workers: 1 + int(workersRaw)%4}
		if shuffle {
			cfg.Repair = ShuffleRepair
		}
		if tournament {
			cfg.Selection = TournamentSelection
		}
		e := newEval(t, tasks)
		mk := func() *Engine {
			eng, err := New(e, cfg, rng.New(seed|1))
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}
		warm, cold := mk(), newColdEngine(t, mk)
		for g := 0; g < int(gens)%10+1; g++ {
			warm.Step()
			cold.Step()
		}
		comparePopulations(t, "fuzz", warm, cold.eng)
	})
}

// FuzzMachineCacheSnapshot drives snapshot/restore through arbitrary
// configurations: an engine snapshotted mid-run, encoded, decoded and
// restored into a fresh engine — with a different seed and worker count,
// so every worker session's per-machine accumulators start cold — must
// finish bit-identical to the uninterrupted run.
func FuzzMachineCacheSnapshot(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(10), uint8(3), uint8(1), uint8(2))
	f.Add(uint64(9), uint8(80), uint8(8), uint8(5), uint8(4), uint8(0))
	f.Add(uint64(4), uint8(20), uint8(6), uint8(7), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, tasksRaw, popRaw, gensRaw, workersRaw, resumedWorkersRaw uint8) {
		tasks := 2 + int(tasksRaw)%100
		pop := 2 * (1 + int(popRaw)%10)
		gens := int(gensRaw)%8 + 2
		half := gens / 2
		cfg := Config{PopulationSize: pop, Workers: 1 + int(workersRaw)%4}

		full := newEngine(t, tasks, cfg, seed|1)
		full.Run(gens)

		interrupted := newEngine(t, tasks, cfg, seed|1)
		interrupted.Run(half)
		raw, err := EncodeSnapshot(interrupted.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		snap, err := DecodeSnapshot(raw)
		if err != nil {
			t.Fatal(err)
		}
		resumedCfg := cfg
		resumedCfg.Workers = 1 + int(resumedWorkersRaw)%4
		resumed := newEngine(t, tasks, resumedCfg, seed^0xdead)
		if err := resumed.Restore(snap); err != nil {
			t.Fatal(err)
		}
		resumed.Run(gens - half)
		comparePopulations(t, "snapshot", full, resumed)
	})
}
