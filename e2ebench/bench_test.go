package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tradeoff/internal/analysis"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {39, 50, true}, {40, 75, true},
		{100, 90, true}, {199, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.ok)
		}
		if ok && c.n-1-rankIndex(p, c.n) < 10 {
			t.Errorf("n=%d: p%v has fewer than 10 samples beyond it", c.n, p)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if s := summarize(xs); s != (summary{N: 100, Median: 50.5, TailP: 90, Tail: 90}) {
		t.Errorf("summarize(1..100) = %+v", s)
	}
	if s := summarize(xs[:19]); s.TailP != 0 || s.N != 19 {
		t.Errorf("summarize of 19 samples reports a tail: %+v", s)
	}
}

func TestFrontCSVHash(t *testing.T) {
	front := []analysis.FrontPoint{{Utility: 10, Energy: 2e6}, {Utility: 20.5, Energy: 3.25e6}}
	want := "utility,energy_joules,energy_mj,upe_per_mj\n" +
		"10.000000,2000000.000000,2.000000,5.000000\n" +
		"20.500000,3250000.000000,3.250000,6.307692\n"
	if got := frontCSV(front); got != want {
		t.Fatalf("frontCSV =\n%s\nwant\n%s", got, want)
	}
	// sha256sum of the CSV above.
	const sum = "40baf58e999e14b1b243add2de56fa7c58a64084e39e67f8ab95e9e76ff37c61"
	if got := frontHash(front); got != sum {
		t.Fatalf("frontHash = %s, want %s", got, sum)
	}
}

// writeResult stores a result file for the -compare tests.
func writeResult(t *testing.T, dir, name string, r result) string {
	t.Helper()
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	def := `{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
		{"name": "hypervolume_ratio", "unit": "ratio", "better": "higher", "bound": 0.05}]}`
	if err := os.WriteFile(bench, []byte(def), 0o644); err != nil {
		t.Fatal(err)
	}
	h := host{GOMAXPROCS: 2, NumCPU: 2, CPUModel: "cpu A", GoVersion: "go1.22", OSArch: "linux/amd64", Commit: "a"}
	mk := func(wall, hv float64, hash string, h host) result {
		return result{Workload: "w", Seed: 1, Generations: 10, Host: h, Fronts: []front{{Seed: 1, Hash: hash}}, Metrics: map[string]metricValue{
			"wall_s": {wall, "s"}, "hypervolume_ratio": {hv, "ratio"},
		}}
	}
	base := writeResult(t, dir, "base.json", mk(1, 0.5, "x", h))
	other := h
	other.CPUModel, other.Commit = "cpu B", "b"
	newer := h
	newer.Commit = "b"
	for _, c := range []struct {
		name string
		r    result
		want int
	}{
		{"same", mk(1.05, 0.5, "x", newer), exitOK},
		{"slower", mk(1.2, 0.5, "x", newer), exitRegression},
		{"worse front", mk(1, 0.4, "x", newer), exitRegression},
		{"front changed", mk(1, 0.5, "y", newer), exitRegression},
		{"other host", mk(5, 0.1, "y", other), exitHostMismatch},
	} {
		var out, errb bytes.Buffer
		got := run([]string{"-compare", "-benchmark", bench, base, writeResult(t, dir, c.name+".json", c.r)}, &out, &errb)
		if got != c.want {
			t.Errorf("%s: exit %d, want %d\nstdout: %s\nstderr: %s", c.name, got, c.want, out.String(), errb.String())
		}
		if c.want == exitHostMismatch && (out.Len() != 0 || !strings.Contains(errb.String(), "host mismatch")) {
			t.Errorf("%s: host mismatch reported regressions: %q / %q", c.name, out.String(), errb.String())
		}
	}
}

// lastJSON parses the final line of a benchmark run's standard output.
func lastJSON(t *testing.T, out string) (res struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return res
}

// TestSmokeEveryWorkload runs every workload for a few generations in both
// modes and checks the result line carries exactly the contract's metrics.
// Seed 3 has no recorded front, so the short runs are checked only for
// valid, repeatable fronts.
func TestSmokeEveryWorkload(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if testing.Short() && w.DataSet == 0 {
			continue // Min-Min seeding alone takes a second at 10k tasks
		}
		for _, traced := range []bool{false, true} {
			res := measure(w, 3, 3, time.Millisecond, traced, exp)
			if err := res.write(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			res.print(&out)
			got := lastJSON(t, out.String())
			want := endToEnd
			if traced {
				want = layerMetrics
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < instances || len(got.Metrics) != len(want) {
				t.Fatalf("%s traced=%v: %+v\n%s", w.Name, traced, got, out.String())
			}
			for _, m := range want {
				if v, ok := got.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.Name, traced, m.Name, v, m.Unit)
				}
			}
		}
	}
}

// TestFrontMatchesProductPaths checks every instance of every workload at
// the baseline seed: the benchmark's front must equal the recorded one,
// the one core.Framework.Optimize gives with the same options, and, for
// data sets 1-3, the one `tradeoff -csv` writes.
func TestFrontMatchesProductPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full length")
	}
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "tradeoff")
	if out, err := exec.Command("go", "build", "-o", bin, "tradeoff/cmd/tradeoff").CombinedOutput(); err != nil {
		t.Fatalf("building cmd/tradeoff: %v\n%s", err, out)
	}
	for _, w := range workloads {
		wants, ok := exp.lookup(w.Name, exp.BaselineSeed)
		if !ok {
			t.Fatalf("%s: no recorded fronts for seed %d", w.Name, exp.BaselineSeed)
		}
		for j, want := range wants {
			seed := instanceSeed(exp.BaselineSeed, j)
			r, err := runRep(w, seed, w.Generations, false, 0)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.Name, seed, err)
			}
			if got := frontHash(r.Res.Front); got != want.Hash || r.Res.Hypervolume != want.Hypervolume {
				t.Errorf("%s seed %d: benchmark front %s hv %v, recorded %s hv %v", w.Name, seed, got, r.Res.Hypervolume, want.Hash, want.Hypervolume)
			}
			opt, err := r.Fw.Optimize(w.options(seed, w.Generations))
			if err != nil {
				t.Fatalf("%s seed %d: Optimize: %v", w.Name, seed, err)
			}
			if got := frontHash(opt.Front); got != want.Hash {
				t.Errorf("%s seed %d: Optimize front %s, recorded %s", w.Name, seed, got, want.Hash)
			}
			if w.DataSet == 0 {
				continue
			}
			csv := filepath.Join(t.TempDir(), "front.csv")
			args := []string{"-dataset", fmt.Sprint(w.DataSet), "-seed", fmt.Sprint(seed), "-generations", fmt.Sprint(w.Generations),
				"-pop", fmt.Sprint(w.Pop), "-workers", fmt.Sprint(w.Workers), "-csv", csv}
			if w.Islands > 1 {
				args = append(args, "-islands", fmt.Sprint(w.Islands), "-migration-interval", fmt.Sprint(w.Migration), fmt.Sprintf("-async=%v", w.Async))
			}
			if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
				t.Fatalf("%s: tradeoff %v: %v\n%s", w.Name, args, err, out)
			}
			raw, err := os.ReadFile(csv)
			if err != nil {
				t.Fatal(err)
			}
			if string(raw) != frontCSV(r.Res.Front) {
				t.Errorf("%s seed %d: tradeoff -csv front differs from the benchmark's", w.Name, seed)
			}
		}
	}
}
