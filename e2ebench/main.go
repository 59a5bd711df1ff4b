// Command e2ebench is the repository's end-to-end benchmark. One run
// executes one workload repeatedly for a fixed time, one optimisation at a
// time (a closed loop), cycling through four instances synthesized from
// the seed, through the same public calls
// core.Framework.Optimize makes, and times each layer at its boundary. It
// checks every final front, prints every metric by name with its unit, and
// ends its standard output with one JSON object:
//
//	{"correct": true, "attempted": 8, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, from untraced runs.
// With -trace 1 untraced and traced runs alternate, and the metrics are
// the per-layer ones, read from the benchmark's own spans, the engine's
// phase timer and its v4 trace.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash e2ebench/run.sh -workload ds1-pop100-w1 -seed 1 -seconds 40 -trace 0
//	bash e2ebench/run.sh -record
//	bash e2ebench/run.sh -compare base.json new.json
//
// See README.md in this directory for the workloads and what each metric
// should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Exit codes.
const (
	exitOK           = 0
	exitRegression   = 1 // -compare: a metric got worse beyond its bound, or the front changed
	exitUsage        = 2
	exitHostMismatch = 3 // -compare: the two results come from different hosts
	exitFailed       = 4 // -record failed, or a file could not be read or written
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		name    = fl.String("workload", "", "workload to run")
		seed    = fl.Uint64("seed", 1, "workload seed: drives data-set synthesis and the engine's random source")
		seconds = fl.Float64("seconds", 40, "how long to keep starting workload runs")
		trace   = fl.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from alternating traced runs")
		outDir  = fl.String("out", ".bench_out", "directory for the result and span files")
		record  = fl.Bool("record", false, "run every instance of every workload once at the baseline and held-out seeds and rewrite the expected fronts")
		compare = fl.Bool("compare", false, "compare two result files: BASE NEW")
		bench   = fl.String("benchmark", "BENCHMARK.json", "benchmark definition holding the end-to-end bounds (-compare)")
	)
	if err := fl.Parse(args); err != nil {
		return exitUsage
	}
	switch {
	case *compare:
		if fl.NArg() != 2 {
			fmt.Fprintln(stderr, "e2ebench: -compare needs BASE and NEW result files")
			return exitUsage
		}
		return runCompare(fl.Arg(0), fl.Arg(1), *bench, stdout, stderr)
	case *record:
		if err := runRecord(*name, stdout); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return exitFailed
		}
		return exitOK
	}
	w, err := findWorkload(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		if err == nil {
			err = errors.New("-trace must be 0 or 1 and -seconds positive")
		}
		fmt.Fprintln(stderr, "e2ebench:", err)
		return exitUsage
	}
	expected, err := loadExpected()
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return exitFailed
	}
	res := measure(w, *seed, w.Generations, time.Duration(*seconds*float64(time.Second)), *trace == 1, expected)
	res.Host = stampHost(".")
	if err := res.write(*outDir); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return exitFailed
	}
	res.print(stdout)
	return exitOK
}

// result is everything one benchmark run reports; it is also the file
// -compare reads.
type result struct {
	Workload    string   `json:"workload"`
	Seed        uint64   `json:"seed"`
	Traced      bool     `json:"traced"`
	Generations int      `json:"generations"`
	Host        host     `json:"host"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	Errors      []string `json:"errors,omitempty"`
	// Fronts holds each instance's final front, in instance order.
	Fronts []front `json:"fronts"`
	// Recorded says whether the fronts were checked against recorded ones.
	Recorded bool `json:"recorded"`
	// Metrics hold the values the final JSON line reports; Summaries the
	// median, tail and sample count behind each timing.
	Metrics   map[string]metricValue `json:"metrics"`
	Summaries map[string]summary     `json:"summaries,omitempty"`
	// Runs holds each untraced workload run's instance and its wall, setup
	// and run seconds.
	Runs   [][4]float64 `json:"runs,omitempty"`
	Absent []string     `json:"absent,omitempty"`
	// SelfMs is each span's self time in ms, averaged over traced runs.
	SelfMs map[string]float64 `json:"self_ms,omitempty"`
	spans  []span
}

// front is the final front of one instance, the same in every workload
// run of it.
type front struct {
	Seed        uint64  `json:"seed"`
	Hash        string  `json:"hash"`
	Points      int     `json:"points"`
	Hypervolume float64 `json:"hypervolume"`
	HVRatio     float64 `json:"hypervolume_ratio"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics with their units, in print order.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"run_s", "s"},
	{"step_ms_p50", "ms"},
	{"step_ms_p90", "ms"},
	{"peak_rss_mb", "MB"},
	{"hypervolume_ratio", "ratio"},
}

// measure keeps starting workload runs of the given length until the next
// one would end past budget, cycling through the seed's instances, and
// checks each run's front. It makes at least one untraced run of every
// instance, and when traced one traced run too: instances alternate
// untraced and traced runs. A front recorded for the seed is one of
// w.Generations generations.
func measure(w workload, seed uint64, generations int, budget time.Duration, traced bool, expected expectedFile) *result {
	res := &result{Workload: w.Name, Seed: seed, Traced: traced, Generations: generations, Metrics: map[string]metricValue{}}
	want, recorded := expected.lookup(w.Name, seed)
	res.Recorded = recorded
	res.Fronts = make([]front, instances)
	minReps := instances
	if traced {
		minReps = 2 * instances
	}
	plain := make([][]rep, instances)
	var tracedReps []rep
	start := time.Now()
	var last time.Duration
	for i := 0; i < minReps || time.Since(start)+last <= budget; i++ {
		runtime.GC() // every run starts from a collected heap, as a fresh process would
		t0 := time.Now()
		inst, isTraced := i%instances, false
		if traced {
			inst, isTraced = (i/2)%instances, i%2 == 1
		}
		r, err := runRep(w, instanceSeed(seed, inst), generations, isTraced, i)
		if err == nil {
			err = checkFront(r.Fw, r.Res)
		}
		if err == nil {
			h, f := frontHash(r.Res.Front), &res.Fronts[inst]
			switch {
			case res.Recorded && (h != want[inst].Hash || r.Res.Hypervolume != want[inst].Hypervolume):
				err = fmt.Errorf("instance %d: front %s hypervolume %v, recorded %s hypervolume %v", inst, h, r.Res.Hypervolume, want[inst].Hash, want[inst].Hypervolume)
			case f.Hash != "" && h != f.Hash:
				err = fmt.Errorf("instance %d: front %s differs from this process's first front %s", inst, h, f.Hash)
			}
			if f.Hash == "" {
				*f = front{instanceSeed(seed, inst), h, len(r.Res.Front), r.Res.Hypervolume, hypervolumeRatio(r.Res)}
			}
		}
		last = time.Since(t0)
		res.Attempted++
		if err != nil {
			res.Failed++
			res.Errors = append(res.Errors, fmt.Sprintf("run %d: %v", i, err))
			continue
		}
		r.Res, r.Fw = nil, nil // keep only the measurements
		if isTraced {
			tracedReps = append(tracedReps, r)
		} else {
			plain[inst] = append(plain[inst], r)
		}
	}
	if traced {
		res.layers(slices.Concat(plain...), tracedReps, generations)
	} else {
		res.endToEnd(plain, generations)
	}
	return res
}

// endToEnd reports each timing as the mean over instances of the
// instance's median over its workload runs.
func (res *result) endToEnd(plain [][]rep, generations int) {
	var wall, setup, runS, steps []float64
	var perInst [5][]float64 // wall, setup, run, step p50, step p90 medians of each instance
	for j, reps := range plain {
		if len(reps) == 0 {
			continue
		}
		var iw, is, ir, ip50, ip90 []float64
		for _, r := range reps {
			iw = append(iw, r.Wall.Seconds())
			is = append(is, r.Setup.Seconds())
			ir = append(ir, r.Run.Seconds())
			res.Runs = append(res.Runs, [4]float64{float64(j), r.Wall.Seconds(), r.Setup.Seconds(), r.Run.Seconds()})
			// Islands step inside one Run call, so they give no Step
			// times, only one time per generation per workload run: Run
			// over generations. Too few for a tail, so both step metrics
			// are its median.
			if len(r.Steps) == 0 {
				g := ms(r.Run) / float64(generations)
				ip50, ip90 = append(ip50, g), append(ip90, g)
				continue
			}
			rs := make([]float64, len(r.Steps))
			for i, d := range r.Steps {
				rs[i] = ms(d)
			}
			steps = append(steps, rs...)
			// Each workload run's median and 90th percentile Step time
			// (at least 100 generations, so at least 10 samples beyond
			// it), median over runs: a run slowed by a burst of load
			// from other processes would own the pooled tail.
			ip50, ip90 = append(ip50, percentile(rs, 50)), append(ip90, percentile(rs, 90))
		}
		wall, setup, runS = append(wall, iw...), append(setup, is...), append(runS, ir...)
		for k, xs := range [][]float64{iw, is, ir, ip50, ip90} {
			perInst[k] = append(perInst[k], medianOf(xs))
		}
	}
	res.Summaries = map[string]summary{"wall_s": summarize(wall), "setup_s": summarize(setup), "run_s": summarize(runS)}
	if len(steps) > 0 {
		res.Summaries["step_ms"] = summarize(steps)
	}
	var hv []float64
	for _, f := range res.Fronts {
		if f.Hash != "" {
			hv = append(hv, f.HVRatio)
		}
	}
	vals := map[string]float64{
		"wall_s":            meanOf(perInst[0]),
		"setup_s":           meanOf(perInst[1]),
		"run_s":             meanOf(perInst[2]),
		"step_ms_p50":       meanOf(perInst[3]),
		"step_ms_p90":       meanOf(perInst[4]),
		"peak_rss_mb":       peakRSSMB(),
		"hypervolume_ratio": meanOf(hv),
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
	}
}

func (res *result) layers(plain, traced []rep, generations int) {
	per := make(map[string][]float64)
	self := make(map[string]float64)
	var tracedWall, plainWall []float64
	for _, r := range traced {
		m, err := repLayers(r)
		if err != nil {
			res.Failed++
			res.Errors = append(res.Errors, err.Error())
			continue
		}
		for _, k := range sortedNames(m) {
			per[k] = append(per[k], m[k])
		}
		st := selfTimes(r.Spans)
		for _, k := range sortedNames(st) {
			self[k] += ms(st[k]) / float64(len(traced))
		}
		tracedWall = append(tracedWall, r.Wall.Seconds())
		res.spans = append(res.spans, r.Spans...)
	}
	for _, r := range plain {
		plainWall = append(plainWall, r.Wall.Seconds())
		m := memLayers(r, generations)
		for _, k := range sortedNames(m) {
			per[k] = append(per[k], m[k])
		}
	}
	if len(tracedWall) > 0 && len(plainWall) > 0 {
		per["trace.overhead_ratio"] = []float64{medianOf(tracedWall) / medianOf(plainWall)}
	}
	res.SelfMs = self
	for _, m := range layerMetrics {
		v, ok := per[m.Name]
		if !ok {
			res.Absent = append(res.Absent, m.Name)
		}
		res.Metrics[m.Name] = metricValue{medianOf(v), m.Unit}
	}
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fileStem names this run's output files.
func (res *result) fileStem() string {
	return fmt.Sprintf("%s-seed%d-trace%d", res.Workload, res.Seed, map[bool]int{false: 0, true: 1}[res.Traced])
}

// write stores the result, and the spans of a traced run, under dir.
func (res *result) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, res.fileStem()+".json"), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if len(res.spans) == 0 {
		return nil
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, s := range res.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, res.fileStem()+".spans.jsonl"), []byte(b.String()), 0o644)
}

// print writes the human-readable report and, last, the JSON line.
func (res *result) print(w io.Writer) {
	fmt.Fprintf(w, "e2ebench %s seed=%d trace=%v generations=%d attempted=%d failed=%d failed_frac=%.4g\n",
		res.Workload, res.Seed, res.Traced, res.Generations, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	h := res.Host
	fmt.Fprintf(w, "host: gomaxprocs=%d nproc=%d cpu=%q go=%s %s commit=%s\n", h.GOMAXPROCS, h.NumCPU, h.CPUModel, h.GoVersion, h.OSArch, h.Commit)
	check := "checked for determinism across runs (no recorded fronts for this seed)"
	if res.Recorded {
		check = "checked against the recorded fronts"
	}
	fmt.Fprintf(w, "fronts of %d instances, %s:\n", len(res.Fronts), check)
	for j, f := range res.Fronts {
		fmt.Fprintf(w, "  instance %d seed=%d: %d points sha256=%s hypervolume=%.6g\n", j, f.Seed, f.Points, f.Hash, f.Hypervolume)
	}
	for _, e := range res.Errors {
		fmt.Fprintln(w, "FAILED", e)
	}
	list := endToEnd
	if res.Traced {
		list = layerMetrics
	}
	fmt.Fprintf(w, "%-26s %-7s %14s  %s\n", "metric", "unit", "value", "all runs pooled: median / tail (n)")
	for _, m := range list {
		v := res.Metrics[m.Name]
		note := ""
		key := strings.TrimSuffix(m.Name, "_p50")
		if s, ok := res.Summaries[key]; ok {
			note = fmt.Sprintf("median %.6g, ", s.Median)
			if s.TailP > 0 {
				note += fmt.Sprintf("p%g %.6g, ", s.TailP, s.Tail)
			} else {
				note += "no tail (<20 samples), "
			}
			note += fmt.Sprintf("n=%d", s.N)
		}
		for _, a := range res.Absent {
			if a == m.Name {
				note = "absent"
			}
		}
		fmt.Fprintf(w, "%-26s %-7s %14.6g  %s\n", m.Name, v.Unit, v.Value, note)
	}
	if !res.Traced {
		fmt.Fprintf(w, "%-26s %-7s %14.6g  n=%d\n", "failed_frac", "ratio", float64(res.Failed)/float64(res.Attempted), res.Attempted)
	} else {
		fmt.Fprintln(w, "span self time (ms per traced run):")
		for _, k := range sortedNames(res.SelfMs) {
			fmt.Fprintf(w, "  %-36s %12.3f\n", k, res.SelfMs[k])
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, res.Metrics})
	fmt.Fprintln(w, string(line))
}

// runRecord runs every instance of each workload (or just the named one)
// once at the baseline and held-out seeds and rewrites
// e2ebench/expected.json.
func runRecord(only string, stdout io.Writer) error {
	exp, err := loadExpected()
	if err != nil {
		return err
	}
	if exp.Fronts == nil {
		exp.Fronts = map[string]map[string][]expectation{}
	}
	for _, w := range workloads {
		if only != "" && w.Name != only {
			continue
		}
		fronts := map[string][]expectation{}
		for _, seed := range []uint64{exp.BaselineSeed, exp.HeldOutSeed} {
			for j := 0; j < instances; j++ {
				r, err := runRep(w, instanceSeed(seed, j), w.Generations, false, 0)
				if err == nil {
					err = checkFront(r.Fw, r.Res)
				}
				if err != nil {
					return fmt.Errorf("%s seed %d instance %d: %w", w.Name, seed, j, err)
				}
				x := expectation{frontHash(r.Res.Front), r.Res.Hypervolume, len(r.Res.Front)}
				fronts[fmt.Sprint(seed)] = append(fronts[fmt.Sprint(seed)], x)
				fmt.Fprintf(stdout, "%s seed %d instance %d: %d points sha256=%s hypervolume=%v\n", w.Name, seed, j, x.Points, x.Hash, x.Hypervolume)
			}
		}
		exp.Fronts[w.Name] = fronts
	}
	raw, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("e2ebench", "expected.json"), append(raw, '\n'), 0o644)
}

// runCompare compares two result files of the same workload, seed and
// mode. Results from different hosts are refused with their own exit
// code rather than reported as regressions.
func runCompare(basePath, newPath, benchPath string, stdout, stderr io.Writer) int {
	var base, cur result
	for _, f := range []struct {
		path string
		dst  *result
	}{{basePath, &base}, {newPath, &cur}} {
		raw, err := os.ReadFile(f.path)
		if err == nil {
			err = json.Unmarshal(raw, f.dst)
		}
		if err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return exitUsage
		}
	}
	if !sameHost(base.Host, cur.Host) {
		fmt.Fprintf(stderr, "e2ebench: host mismatch, results are not comparable:\n  base %+v\n  new  %+v\n", base.Host, cur.Host)
		return exitHostMismatch
	}
	if base.Workload != cur.Workload || base.Seed != cur.Seed || base.Traced != cur.Traced || base.Generations != cur.Generations {
		fmt.Fprintln(stderr, "e2ebench: results are of different workloads, seeds, generations or trace modes")
		return exitUsage
	}
	bounds, err := loadBounds(benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return exitUsage
	}
	code := exitOK
	if !slices.Equal(base.Fronts, cur.Fronts) {
		fmt.Fprintln(stdout, "fronts changed")
		code = exitRegression
	}
	names := make([]string, 0, len(bounds))
	for k := range bounds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		b := bounds[k]
		old, okOld := base.Metrics[k]
		now, okNow := cur.Metrics[k]
		if !okOld || !okNow || old.Value == 0 {
			continue
		}
		worse := (now.Value - old.Value) / old.Value
		if b.Better == "higher" {
			worse = -worse
		}
		verdict := "ok"
		if worse > b.Bound {
			verdict = "REGRESSION"
			code = exitRegression
		}
		fmt.Fprintf(stdout, "%-14s %12.6g -> %-12.6g %+7.2f%% worse (bound %.0f%%) %s\n", k, old.Value, now.Value, 100*worse, 100*b.Bound, verdict)
	}
	return code
}

type bound struct {
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBounds reads the end-to-end bounds from the benchmark definition.
func loadBounds(path string) (map[string]bound, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []struct {
			Name string `json:"name"`
			bound
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]bound, len(def.EndToEnd))
	for _, m := range def.EndToEnd {
		out[m.Name] = m.bound
	}
	return out, nil
}
