package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"tradeoff/internal/obs"
)

// metricDef names a reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// layerMetrics lists every per-layer metric in the order it is printed.
// A metric whose source is absent from the traced run (a counter the trace
// no longer carries, or a layer the workload does not use) is reported as
// 0 and marked absent in the table.
var layerMetrics = []metricDef{
	{"experiments.dataset_ms", "ms"},
	{"sched.evaluator_ms", "ms"},
	{"sched.eval_ms", "ms"},
	{"sched.tasks_per_s", "1/s"},
	{"sched.typed_tasks", "count"},
	{"sched.typed_runs", "count"},
	{"sched.typed_compression", "ratio"},
	{"sched.full_evals", "count"},
	{"sched.delta_evals", "count"},
	{"sched.machines_simulated", "count"},
	{"sched.machines_inherited", "count"},
	{"sched.inherit_ratio", "ratio"},
	{"heuristics.seeding_ms", "ms"},
	{"heuristics.min_min_ms", "ms"},
	{"heuristics.min_energy_ms", "ms"},
	{"heuristics.max_utility_ms", "ms"},
	{"heuristics.max_upe_ms", "ms"},
	{"nsga2.init_ms", "ms"},
	{"nsga2.step_ms", "ms"},
	{"nsga2.variation_ms", "ms"},
	{"nsga2.select_ms", "ms"},
	{"nsga2.allocs_per_gen", "count"},
	{"nsga2.bytes_per_gen", "B"},
	{"nsga2.cache_hits", "count"},
	{"nsga2.cache_hit_ratio", "ratio"},
	{"nsga2.cache_ms", "ms"},
	{"nsga2.mcache_hits", "count"},
	{"nsga2.mcache_hit_ratio", "ratio"},
	{"nsga2.island_run_ms", "ms"},
	{"nsga2.migration_ms", "ms"},
	{"nsga2.migrations", "count"},
	{"moea.sort_ms", "ms"},
	{"moea.front_ms", "ms"},
	{"moea.archive_ms", "ms"},
	{"core.finish_ms", "ms"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unaccounted_ratio", "ratio"},
}

// traceCounters sums the per-generation counters of a v4 trace, read by
// JSON key so that a counter the trace stops carrying simply goes absent,
// and counts its migration records.
func traceCounters(trace []byte) (map[string]float64, error) {
	sums := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(trace))
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("trace record: %w", err)
		}
		switch rec["type"] {
		case "migration":
			sums["migrations"]++
		case "generation":
			for _, k := range []string{"full_evals", "delta_evals", "machines_simulated", "machines_inherited",
				"cache_hits", "cache_misses", "machine_cache_hits", "machine_cache_misses", "typed_tasks", "typed_runs"} {
				if v, ok := rec[k].(float64); ok {
					sums[k] += v
				}
			}
		}
	}
	return sums, sc.Err()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// memLayers computes the memory metrics of one untraced rep, so that the
// trace buffer and the spans are not counted in them.
func memLayers(r rep, generations int) map[string]float64 {
	return map[string]float64{
		"nsga2.allocs_per_gen": float64(r.GenAllocs) / float64(generations),
		"nsga2.bytes_per_gen":  float64(r.GenBytes) / float64(generations),
		"go.gc_cycles":         float64(r.GCCycles),
		"go.gc_pause_ms":       float64(r.GCPauseNs) / 1e6,
	}
}

// repLayers computes the per-layer metrics of one traced rep, except the
// memory ones. Metrics the rep has no source for are missing from the map.
func repLayers(r rep) (map[string]float64, error) {
	c, err := traceCounters(r.Trace)
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64)
	total, count := spanTotals(r.Spans)
	spanMs := map[string]string{
		"experiments.dataset_ms":    "experiments.dataset",
		"sched.evaluator_ms":        "core.new",
		"heuristics.min_min_ms":     "heuristics.min-min",
		"heuristics.min_energy_ms":  "heuristics.min-energy",
		"heuristics.max_utility_ms": "heuristics.max-utility",
		"heuristics.max_upe_ms":     "heuristics.max-utility-per-energy",
		"nsga2.island_run_ms":       "nsga2.islands_run",
		"moea.front_ms":             "moea.pareto_front",
		"core.finish_ms":            "core.finish_front",
	}
	for metric, name := range spanMs {
		if count[name] > 0 {
			m[metric] = ms(total[name])
		}
	}
	// Seeding is per-heuristic Build calls, or the whole IslandConfig call.
	for _, name := range []string{"heuristics.seeding", "core.island_config"} {
		if count[name] > 0 {
			m["heuristics.seeding_ms"] = ms(total[name])
		}
	}
	for _, name := range []string{"nsga2.new", "nsga2.new_islands"} {
		if count[name] > 0 {
			m["nsga2.init_ms"] = ms(total[name])
		}
	}
	if count["nsga2.step"] > 0 {
		var steps []float64
		for _, s := range r.Spans {
			if s.Name == "nsga2.step" {
				steps = append(steps, float64(s.End-s.Start)/1e6)
			}
		}
		m["nsga2.step_ms"] = medianOf(steps)
		var phased int64
		for _, p := range []obs.Phase{obs.PhaseSelect, obs.PhaseVariation, obs.PhaseCacheProbe,
			obs.PhaseEval, obs.PhaseCacheInsert, obs.PhaseSort} {
			phased += r.Phases[p]
		}
		run := total["nsga2.generations"]
		m["trace.unaccounted_ratio"] = float64(int64(run)-phased) / float64(run)
	}

	phaseMs := func(ps ...obs.Phase) float64 {
		var ns int64
		for _, p := range ps {
			ns += r.Phases[p]
		}
		return float64(ns) / 1e6
	}
	m["sched.eval_ms"] = phaseMs(obs.PhaseEval)
	m["nsga2.variation_ms"] = phaseMs(obs.PhaseVariation)
	m["nsga2.select_ms"] = phaseMs(obs.PhaseSelect)
	m["moea.sort_ms"] = phaseMs(obs.PhaseSort)
	if r.Phases[obs.PhaseArchive] > 0 {
		m["moea.archive_ms"] = phaseMs(obs.PhaseArchive)
	}
	if r.Phases[obs.PhaseMigration] > 0 {
		m["nsga2.migration_ms"] = phaseMs(obs.PhaseMigration)
	}
	if r.Phases[obs.PhaseCacheProbe]+r.Phases[obs.PhaseCacheInsert] > 0 {
		m["nsga2.cache_ms"] = phaseMs(obs.PhaseCacheProbe, obs.PhaseCacheInsert)
	}

	copyKey := func(metric, key string) {
		if v, ok := c[key]; ok {
			m[metric] = v
		}
	}
	ratio := func(metric string, num float64, den float64) {
		if den > 0 {
			m[metric] = num / den
		}
	}
	copyKey("sched.typed_tasks", "typed_tasks")
	copyKey("sched.typed_runs", "typed_runs")
	copyKey("sched.full_evals", "full_evals")
	copyKey("sched.delta_evals", "delta_evals")
	copyKey("sched.machines_simulated", "machines_simulated")
	copyKey("sched.machines_inherited", "machines_inherited")
	copyKey("nsga2.cache_hits", "cache_hits")
	copyKey("nsga2.mcache_hits", "machine_cache_hits")
	copyKey("nsga2.migrations", "migrations")
	if _, ok := c["typed_tasks"]; ok {
		ratio("sched.tasks_per_s", c["typed_tasks"], m["sched.eval_ms"]/1e3)
		ratio("sched.typed_compression", c["typed_tasks"], c["typed_runs"])
	}
	if _, ok := c["machines_inherited"]; ok {
		ratio("sched.inherit_ratio", c["machines_inherited"], c["machines_simulated"]+c["machines_inherited"])
	}
	if _, ok := c["cache_hits"]; ok {
		ratio("nsga2.cache_hit_ratio", c["cache_hits"], c["cache_hits"]+c["cache_misses"])
	}
	if _, ok := c["machine_cache_hits"]; ok {
		ratio("nsga2.mcache_hit_ratio", c["machine_cache_hits"], c["machine_cache_hits"]+c["machine_cache_misses"])
	}
	return m, nil
}
