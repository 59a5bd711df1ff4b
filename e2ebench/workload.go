package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"tradeoff/internal/core"
	"tradeoff/internal/experiments"
	"tradeoff/internal/heuristics"
	"tradeoff/internal/nsga2"
	"tradeoff/internal/obs"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
)

// workload is one benchmark input shape. The seed is not part of it: the
// benchmark passes the workload seed to the data-set generator and the
// engine's random source, so the engine only ever sees generated inputs.
type workload struct {
	Name string
	// DataSet selects experiments.ByNumber(DataSet, seed); 0 selects
	// experiments.ScaleDataSet(ScaleTasks, 0, seed).
	DataSet     int
	ScaleTasks  int
	Pop         int
	Generations int
	Workers     int
	Islands     int
	Migration   int
	Async       bool
	ArchiveSize int
}

// workloads lists every workload in the order the doc describes them.
var workloads = []workload{
	{Name: "ds1-pop100-w1", DataSet: 1, Pop: 100, Generations: 1000, Workers: 1},
	{Name: "ds2-islands4-async", DataSet: 2, Pop: 50, Generations: 250, Islands: 4, Migration: 25, Async: true},
	{Name: "scale-10k", ScaleTasks: 10000, Pop: 100, Generations: 100, Workers: 2, ArchiveSize: 64},
}

// instances is how many instances one benchmark run cycles through. Each
// instance is synthesized from its own seed, so the cost of one instance
// does not decide a run's figures: a run reports the mean over its
// instances of each instance's median.
const instances = 4

// instanceSeed is the seed of instance j of a benchmark seed. Instance 0
// uses the seed itself, so it is the run `tradeoff -seed <seed>` makes.
func instanceSeed(seed uint64, j int) uint64 { return seed + uint64(j)<<32 }

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// seedOrder is the seeding heuristics in `tradeoff`'s default -seeds
// order; the order decides the initial population.
var seedOrder = []heuristics.Heuristic{heuristics.MinEnergy, heuristics.MinMin, heuristics.MaxUtility, heuristics.MaxUtilityPerEnergy}

// options are the core.Options this workload's run corresponds to. The
// benchmark calls the layers core.Framework.Optimize calls itself, with
// these same values; Optimize with these options must give the same front.
// Memo-layer fields are deliberately left at their defaults.
func (w workload) options(seed uint64, generations int) core.Options {
	return core.Options{
		Generations:       generations,
		PopulationSize:    w.Pop,
		Seeds:             seedOrder,
		RandomSeed:        seed,
		Workers:           w.Workers,
		Islands:           w.Islands,
		MigrationInterval: w.Migration,
		AsyncIslands:      w.Async,
		ArchiveSize:       w.ArchiveSize,
	}
}

func (w workload) dataSet(seed uint64) (*experiments.DataSet, error) {
	if w.DataSet == 0 {
		return experiments.ScaleDataSet(w.ScaleTasks, 0, seed)
	}
	return experiments.ByNumber(w.DataSet, seed)
}

// rep is one workload run: setup, generations and front finishing.
type rep struct {
	Setup, Run, Wall time.Duration
	// Steps holds each Engine.Step time (single-population workloads).
	Steps []time.Duration
	Res   *core.Result
	Fw    *core.Framework

	// Runtime memory statistics, read in every run: the allocations the
	// generations make, and the GC cycles and pause time of the whole run.
	GenAllocs, GenBytes uint64
	GCCycles            uint32
	GCPauseNs           uint64

	// Traced runs only.
	Spans  []span
	Phases obs.PhaseTotals
	Trace  []byte
}

// setGenAllocs records the allocations made since before was read.
func (r *rep) setGenAllocs(before *runtime.MemStats) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	r.GenAllocs, r.GenBytes = now.Mallocs-before.Mallocs, now.TotalAlloc-before.TotalAlloc
}

// runRep executes one workload run through the same public calls
// core.Framework.Optimize makes, timing each layer at its boundary. With
// traced set it also records spans and attaches a phase timer and a v4
// trace writer. A panic anywhere in the run is returned as an error.
func runRep(w workload, seed uint64, generations int, traced bool, runID int) (r rep, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	opts := w.options(seed, generations)
	if opts.RandomSeed == 0 {
		opts.RandomSeed = 1 // as Optimize does
	}
	sp := &spans{on: traced, run: runID}
	var trace bytes.Buffer
	if traced {
		opts.PhaseTimer = obs.NewPhaseTimer(func() int64 { return time.Now().UnixNano() })
		opts.Observer = obs.NewTraceWriter(&trace, nil)
	}
	// Memory statistics are read outside the run_s window: each read stops
	// the world.
	var ms0, gen0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	start := time.Now()
	root := sp.begin("run", -1)
	id := sp.begin("experiments.dataset", root)
	ds, err := w.dataSet(seed)
	sp.end(id)
	if err != nil {
		return r, err
	}
	id = sp.begin("core.new", root)
	fw, err := core.New(ds.System, ds.Trace)
	sp.end(id)
	if err != nil {
		return r, err
	}
	r.Fw = fw

	var front []nsga2.Individual
	if w.Islands > 1 {
		id = sp.begin("core.island_config", root)
		cfg, err := fw.IslandConfig(opts)
		sp.end(id)
		if err != nil {
			return r, err
		}
		id = sp.begin("nsga2.new_islands", root)
		is, err := nsga2.NewIslands(fw.Evaluator(), cfg, rng.New(opts.RandomSeed))
		sp.end(id)
		if err != nil {
			return r, err
		}
		is.SetObserver(opts.Observer)
		is.SetPhaseTimer(opts.PhaseTimer)
		r.Setup = time.Since(start)

		runtime.ReadMemStats(&gen0)
		t0 := time.Now()
		id = sp.begin("nsga2.islands_run", root)
		is.Run(generations)
		sp.end(id)
		r.Run = time.Since(t0)
		r.setGenAllocs(&gen0)

		id = sp.begin("moea.pareto_front", root)
		front = is.ParetoFront()
		sp.end(id)
	} else {
		id = sp.begin("heuristics.seeding", root)
		seeds := make([]*sched.Allocation, 0, len(opts.Seeds))
		for _, h := range opts.Seeds {
			hid := sp.begin("heuristics."+h.String(), id)
			a, err := h.Build(fw.Evaluator())
			sp.end(hid)
			if err != nil {
				return r, err
			}
			seeds = append(seeds, a)
		}
		sp.end(id)
		id = sp.begin("nsga2.new", root)
		eng, err := nsga2.New(fw.Evaluator(), nsga2.Config{
			PopulationSize: opts.PopulationSize,
			MutationRate:   opts.MutationRate,
			Seeds:          seeds,
			Workers:        opts.Workers,
		}, rng.New(opts.RandomSeed))
		sp.end(id)
		if err != nil {
			return r, err
		}
		eng.SetObserver(opts.Observer)
		eng.SetPhaseTimer(opts.PhaseTimer)
		r.Setup = time.Since(start)

		r.Steps = make([]time.Duration, generations)
		runtime.ReadMemStats(&gen0)
		t0 := time.Now()
		id = sp.begin("nsga2.generations", root)
		for g := range r.Steps {
			s := time.Now()
			sid := sp.begin("nsga2.step", id)
			eng.Step()
			sp.end(sid)
			r.Steps[g] = time.Since(s)
		}
		sp.end(id)
		r.Run = time.Since(t0)
		r.setGenAllocs(&gen0)

		id = sp.begin("moea.pareto_front", root)
		front = eng.ParetoFront()
		sp.end(id)
	}
	id = sp.begin("core.finish_front", root)
	r.Res, err = fw.FinishFront(front, opts)
	sp.end(id)
	sp.end(root)
	r.Wall = time.Since(start)
	if err != nil {
		return r, err
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	r.GCCycles = ms1.NumGC - ms0.NumGC
	r.GCPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	if traced {
		r.Phases = opts.PhaseTimer.Totals()
		if err := opts.Observer.(*obs.TraceWriter).Flush(); err != nil {
			return r, fmt.Errorf("trace writer: %w", err)
		}
		r.Trace = trace.Bytes()
		r.Spans = sp.list
	}
	return r, nil
}
