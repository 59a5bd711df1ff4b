package obs

import (
	"strings"
	"testing"
)

func TestRegistryCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	g := r.Gauge("g_now", "a gauge")
	h := r.Histogram("h_dist", "a histogram", []float64{1, 2, 5})

	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter value %d, want 5", c.Value())
	}
	g.Set(3.5)
	g.Set(-1.25)
	if g.Value() != -1.25 {
		t.Fatalf("gauge value %g, want -1.25", g.Value())
	}
	for _, v := range []float64{0.5, 1, 1.5, 2, 10} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("histogram count %d, want 5", h.Count())
	}
	if h.Sum() != 15 {
		t.Fatalf("histogram sum %g, want 15", h.Sum())
	}
	want := []uint64{2, 2, 0, 1} // (≤1, ≤2, ≤5, +Inf); bounds inclusive
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket counts %v, want %v", got, want)
		}
	}
}

func TestRegistryNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(7)
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.BucketCounts() != nil {
		t.Fatal("nil instruments must read as zero")
	}
}

func TestRegistryRecordPathsAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g_now", "")
	h := r.Histogram("h_dist", "", dirtyFractionBounds())
	var nilC *Counter
	if n := testing.AllocsPerRun(200, func() {
		c.Inc()
		c.Add(3)
		g.Set(1.5)
		h.Observe(0.25)
		nilC.Add(1)
	}); n != 0 {
		t.Fatalf("record path allocates %.1f per run, want 0", n)
	}
}

func TestRegistryDuplicateAndInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_name", "")
	mustPanic(t, "duplicate name", func() { r.Gauge("ok_name", "") })
	mustPanic(t, "invalid name", func() { r.Counter("0bad", "") })
	mustPanic(t, "empty name", func() { r.Counter("", "") })
	mustPanic(t, "descending bounds", func() { r.Histogram("h", "", []float64{2, 1}) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("steps_total", "steps taken")
	g := r.Gauge("hv_now", "")
	h := r.Histogram("lat", "latency", []float64{1, 2})
	c.Add(3)
	g.Set(2.5)
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# HELP steps_total steps taken
# TYPE steps_total counter
steps_total 3
# TYPE hv_now gauge
hv_now 2.5
# HELP lat latency
# TYPE lat histogram
lat_bucket{le="1"} 1
lat_bucket{le="2"} 2
lat_bucket{le="+Inf"} 3
lat_sum 11
lat_count 3
`
	if got != want {
		t.Fatalf("prometheus exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(2)
	r.Gauge("b_now", "").Set(0.5)
	h := r.Histogram("c_dist", "", []float64{1})
	h.Observe(3)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	want := `{"a_total":2,"b_now":0.5,"c_dist":{"buckets":[1],"counts":[0,1],"sum":3,"count":1}}` + "\n"
	if sb.String() != want {
		t.Fatalf("json exposition %q, want %q", sb.String(), want)
	}
}

func TestCombine(t *testing.T) {
	if Combine() != nil || Combine(nil, nil) != nil {
		t.Fatal("Combine of no observers must be nil")
	}
	r := NewRegistry()
	m := NewMetrics(r)
	if Combine(nil, m, nil) != Observer(m) {
		t.Fatal("Combine of one observer must return it unwrapped")
	}
	m2 := NewMetrics(NewRegistry())
	combined := Combine(m, m2)
	combined.ObserveMigration(MigrationEvent{Count: 4})
	if m.migrations.Value() != 1 || m2.migrants.Value() != 4 {
		t.Fatal("Combine must fan out to every member")
	}
}

func TestLabeledOverridesGenerationLabel(t *testing.T) {
	var got []string
	rec := &recordingObserver{onGen: func(g GenerationStats) { got = append(got, g.Label) }}
	l := Labeled{Label: "ds1", Next: rec}
	l.ObserveGeneration(GenerationStats{Label: "inner", Generation: 1})
	if len(got) != 1 || got[0] != "ds1" {
		t.Fatalf("labels %v, want [ds1]", got)
	}
}

// recordingObserver is a test helper capturing events via callbacks.
type recordingObserver struct {
	onGen func(GenerationStats)
	onMig func(MigrationEvent)
	onRun func(RunEvent)
}

func (r *recordingObserver) ObserveGeneration(g GenerationStats) {
	if r.onGen != nil {
		r.onGen(g)
	}
}

func (r *recordingObserver) ObserveMigration(m MigrationEvent) {
	if r.onMig != nil {
		r.onMig(m)
	}
}

func (r *recordingObserver) ObserveRun(e RunEvent) {
	if r.onRun != nil {
		r.onRun(e)
	}
}

func TestMetricsObserver(t *testing.T) {
	r := NewRegistry()
	m := NewMetrics(r)
	m.ObserveGeneration(GenerationStats{
		Generation: 1, Population: 4,
		FullEvals: 1, DeltaEvals: 3,
		MachinesSimulated: 10, MachinesInherited: 30,
		DirtyCounts: []int{0, 1, 2, 8}, NumMachines: 8,
		Indicators: Indicators{Hypervolume: 12.5, Epsilon: -0.5, Spread: 0.25, FrontSize: 3},
	})
	m.ObserveMigration(MigrationEvent{From: 0, To: 1, Count: 2})
	m.ObserveRun(RunEvent{Dataset: "ds1"})
	if m.generations.Value() != 1 || m.fullEvals.Value() != 1 {
		t.Fatal("generation counters wrong")
	}
	if m.machinesSimulated.Value() != 10 {
		t.Fatal("machine counters wrong")
	}
	// The delta-kernel and parent-inheritance layers are gone: their
	// GenerationStats fields survive for the v4 trace schema, but no
	// metric exports them.
	var text strings.Builder
	if err := r.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{"tradeoff_delta_evals_total", "tradeoff_machines_inherited_total"} {
		if strings.Contains(text.String(), gone) {
			t.Errorf("registry still exports %s", gone)
		}
	}
	if m.hypervolume.Value() != 12.5 || m.epsilon.Value() != -0.5 || m.frontSize.Value() != 3 {
		t.Fatal("indicator gauges wrong")
	}
	if m.dirtyFraction.Count() != 4 {
		t.Fatalf("dirty histogram count %d, want 4", m.dirtyFraction.Count())
	}
	if m.migrations.Value() != 1 || m.migrants.Value() != 2 || m.runs.Value() != 1 {
		t.Fatal("migration/run counters wrong")
	}
}

func TestMetricsGenerationPathAllocationFree(t *testing.T) {
	m := NewMetrics(NewRegistry())
	g := GenerationStats{
		Generation: 1, Population: 4, FullEvals: 1, DeltaEvals: 3,
		DirtyCounts: []int{0, 1, 2, 8}, NumMachines: 8,
	}
	if n := testing.AllocsPerRun(200, func() { m.ObserveGeneration(g) }); n != 0 {
		t.Fatalf("Metrics.ObserveGeneration allocates %.1f per run, want 0", n)
	}
}
