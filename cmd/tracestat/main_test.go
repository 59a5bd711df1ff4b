package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"tradeoff/internal/obs"
)

// genLine renders a v4 generation record with the given label, gen,
// hypervolume, cache hit rate, and a uniform per-phase time.
func genLine(label string, gen int, hv, hitRate float64, phaseNS int64) string {
	var phases strings.Builder
	for p := 0; p < obs.NumPhases; p++ {
		if p > 0 {
			phases.WriteByte(',')
		}
		fmt.Fprintf(&phases, "%d", phaseNS)
	}
	return fmt.Sprintf(`{"v":4,"type":"generation","ts":%d,"label":%q,"gen":%d,"pop":4,"full_evals":4,"delta_evals":0,"machines_simulated":8,"machines_inherited":0,"cache_hits":8,"cache_misses":2,"cache_hit_rate":%g,"cache_evictions":0,"machine_cache_hits":4,"machine_cache_misses":1,"machine_cache_hit_rate":0.8,"typed_tasks":10,"typed_runs":5,"arena_occupancy":0.5,"phase_ns":[%s],"dirty_mean":1,"dirty_max":2,"machines":2,"front_size":1,"hv":%g,"eps":0,"spread":0,"front":[[10,2]]}`,
		gen, label, gen, hitRate, phases.String(), hv) + "\n"
}

func sampleTrace() string {
	var b strings.Builder
	// Label "a": improves every generation. Label "b": flat after gen 1.
	for g := 1; g <= 8; g++ {
		b.WriteString(genLine("a", g, float64(g), 0.1*float64(g), 1000))
		b.WriteString(genLine("b", g, 1.0, 0.5, 0))
	}
	b.WriteString(`{"type":"migration","ts":100,"gen":4,"from":0,"to":1,"count":3}` + "\n")
	b.WriteString(`{"type":"migration","ts":101,"gen":4,"from":1,"to":0,"count":2}` + "\n")
	b.WriteString(`{"type":"migration","ts":102,"gen":8,"from":0,"to":1,"count":1}` + "\n")
	b.WriteString(`{"type":"run","ts":200,"dataset":"ds1","variant":"random","run":0,"seed":1,"hv":8,"max_utility":10,"front_size":1}` + "\n")
	return b.String()
}

func TestRunText(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, strings.NewReader(sampleTrace()), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{
		"stdin: 16 generation, 3 migration, 1 run record(s)",
		"phase time (8 profiled generation(s)):",
		"select",
		"migration",
		"label a: generations 1-8 (8 record(s))",
		"hypervolume 1 -> 8 (best 8 at generation 8)",
		"label b:",
		"cache hit rate:",
		"islands: 2 island(s), 2 migration tick(s), 6 migrant(s), tick skew 4",
		"island 0: 4 migrant(s) sent, last tick at generation 8",
		"island 1: 2 migrant(s) sent, last tick at generation 4",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunJSON(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-json"}, strings.NewReader(sampleTrace()), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	var an obs.TraceAnalysis
	if err := json.Unmarshal([]byte(out.String()), &an); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if an.Records.Generations != 16 || an.Records.Migrations != 3 || an.Records.Runs != 1 {
		t.Fatalf("record counts %+v", an.Records)
	}
	if an.ProfiledGenerations != 8 {
		t.Fatalf("ProfiledGenerations = %d, want 8", an.ProfiledGenerations)
	}
	if len(an.Phases) != obs.NumPhases {
		t.Fatalf("got %d phases, want %d", len(an.Phases), obs.NumPhases)
	}
	if len(an.Labels) != 2 {
		t.Fatalf("got %d labels, want 2", len(an.Labels))
	}
	if an.Islands == nil || an.Islands.Islands != 2 {
		t.Fatalf("islands summary %+v", an.Islands)
	}
}

func TestRunStall(t *testing.T) {
	var b strings.Builder
	for g := 1; g <= 10; g++ {
		b.WriteString(genLine("flat", g, 1.0, 0.5, 0))
	}
	trace := b.String()

	var out, errb strings.Builder
	if code := run([]string{"-stall-window", "5"}, strings.NewReader(trace), &out, &errb); code != 0 {
		t.Fatalf("without -fail-on-stall: exit %d, stderr %q", code, errb.String())
	}
	if !strings.Contains(out.String(), "<- stalled") {
		t.Fatalf("text output lacks stall marker:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-stall-window", "5", "-fail-on-stall"}, strings.NewReader(trace), &out, &errb); code != 3 {
		t.Fatalf("with -fail-on-stall: exit %d, want 3 (stderr %q)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "convergence stall detected") {
		t.Fatalf("stderr %q", errb.String())
	}
}

func TestRunNoStallExitZero(t *testing.T) {
	var b strings.Builder
	for g := 1; g <= 10; g++ {
		b.WriteString(genLine("up", g, float64(g), 0.5, 0))
	}
	var out, errb strings.Builder
	if code := run([]string{"-stall-window", "5", "-fail-on-stall"}, strings.NewReader(b.String()), &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0 (stderr %q)", code, errb.String())
	}
}

func TestRunInvalidTrace(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, strings.NewReader("not json\n"), &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "tracestat: stdin:") {
		t.Fatalf("stderr %q", errb.String())
	}
}

func TestRunFile(t *testing.T) {
	path := t.TempDir() + "/trace.jsonl"
	if err := os.WriteFile(path, []byte(sampleTrace()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	if code := run([]string{path}, nil, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	if !strings.Contains(out.String(), path+": 16 generation") {
		t.Fatalf("stdout %q", out.String())
	}
}

func TestRunMissingFile(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"/does/not/exist.jsonl"}, nil, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestRunMultiFile: tracestat analyzes one trace; several file
// arguments are a usage error (exit 2) that prints usage and no report.
func TestRunMultiFile(t *testing.T) {
	dir := t.TempDir()
	p0, p1 := dir+"/a.jsonl", dir+"/b.jsonl"
	for _, p := range []string{p0, p1} {
		if err := os.WriteFile(p, []byte(sampleTrace()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out, errb strings.Builder
	if code := run([]string{p0, p1}, nil, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2 (stderr %q)", code, errb.String())
	}
	if out.Len() != 0 || !strings.Contains(errb.String(), "usage: tracestat") {
		t.Fatalf("stdout %q, stderr %q: want usage and no report", out.String(), errb.String())
	}
}

// TestRunMultiFileInvalid: extra file arguments are rejected before any
// trace is read, so an invalid second trace still exits 2 (usage), not
// 1 (invalid trace).
func TestRunMultiFileInvalid(t *testing.T) {
	dir := t.TempDir()
	good, bad := dir+"/good.jsonl", dir+"/bad.jsonl"
	if err := os.WriteFile(good, []byte(sampleTrace()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	if code := run([]string{good, bad}, nil, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2 (stderr %q)", code, errb.String())
	}
}

func TestRunSecondFileMissing(t *testing.T) {
	path := t.TempDir() + "/trace.jsonl"
	if err := os.WriteFile(path, []byte(sampleTrace()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	if code := run([]string{path, "/does/not/exist.jsonl"}, nil, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}
