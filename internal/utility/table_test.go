package utility

import (
	"math"
	"testing"

	"tradeoff/internal/rng"
)

// randomTableFunction draws a valid function with 1-4 segments mixing
// all three shapes, sometimes with a non-zero tail (randomFunction in
// utility_test.go always uses tail 0).
func randomTableFunction(src *rng.Source) *Function {
	nseg := 1 + src.Intn(4)
	segs := make([]Segment, 0, nseg)
	frac := 0.2 + 0.8*src.Float64() // keep positive so Exponential stays legal
	for s := 0; s < nseg; s++ {
		end := frac * (0.1 + 0.9*src.Float64())
		seg := Segment{Duration: 0.5 + 100*src.Float64(), StartFrac: frac, EndFrac: end}
		switch src.Intn(3) {
		case 0:
			seg.Shape = Constant
			seg.EndFrac = seg.StartFrac
		case 1:
			seg.Shape = Linear
		default:
			seg.Shape = Exponential
		}
		segs = append(segs, seg)
		frac = seg.EndFrac
	}
	tail := 0.0
	if src.Bool(0.3) {
		tail = frac * src.Float64()
	}
	f, err := New(0.5+20*src.Float64(), tail, segs...)
	if err != nil {
		panic(err)
	}
	return f
}

// TestTableValueBitIdentical cross-checks Table.Value against
// Function.Value at random, boundary, negative, and far-tail times. The
// two must agree bit for bit: the table performs the same arithmetic on
// flattened data.
func TestTableValueBitIdentical(t *testing.T) {
	src := rng.New(1)
	tb := NewTable(0, 0)
	var fns []*Function
	for i := 0; i < 200; i++ {
		f := randomTableFunction(src)
		id, err := tb.Add(f)
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("Add returned id %d, want %d", id, i)
		}
		fns = append(fns, f)
	}
	if tb.Len() != len(fns) {
		t.Fatalf("Len = %d, want %d", tb.Len(), len(fns))
	}
	for id, f := range fns {
		horizon := f.Horizon()
		times := []float64{-5, -1e-9, 0, horizon, horizon * 2, math.Nextafter(horizon, 0)}
		var cum float64
		for _, seg := range f.Segments {
			times = append(times, cum, math.Nextafter(cum, math.Inf(1)), cum+seg.Duration/3)
			cum += seg.Duration
		}
		for trial := 0; trial < 50; trial++ {
			times = append(times, src.Float64()*horizon*1.2)
		}
		for _, at := range times {
			want := f.Value(at)
			got := tb.Value(id, at)
			if got != want {
				t.Fatalf("function %d at t=%v: table %v (%x) vs function %v (%x)",
					id, at, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestTableRejectsInvalid checks that Add validates.
func TestTableRejectsInvalid(t *testing.T) {
	tb := NewTable(1, 1)
	if _, err := tb.Add(&Function{Priority: -1}); err == nil {
		t.Fatal("invalid function compiled")
	}
}

// TestTableAddDedup checks Add's deduplication: a bit-identical function
// shares its program id, while a function differing in one ulp of any
// float field, or in one segment's shape, compiles to a new program.
func TestTableAddDedup(t *testing.T) {
	base := func() *Function {
		return &Function{Priority: 8, TailFrac: 0.1, Segments: []Segment{
			{Duration: 30, StartFrac: 1, EndFrac: 1, Shape: Constant},
			{Duration: 50, StartFrac: 0.9, EndFrac: 0.4, Shape: Linear},
			{Duration: 70, StartFrac: 0.4, EndFrac: 0.2, Shape: Exponential},
		}}
	}
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	down := func(x float64) float64 { return math.Nextafter(x, 0) }
	variants := map[string]func(f *Function){
		"priority":  func(f *Function) { f.Priority = up(f.Priority) },
		"tail":      func(f *Function) { f.TailFrac = down(f.TailFrac) },
		"duration":  func(f *Function) { f.Segments[1].Duration = up(f.Segments[1].Duration) },
		"start":     func(f *Function) { f.Segments[2].StartFrac = down(f.Segments[2].StartFrac) },
		"end":       func(f *Function) { f.Segments[1].EndFrac = up(f.Segments[1].EndFrac) },
		"shape":     func(f *Function) { f.Segments[2].Shape = Linear },
		"flat-line": func(f *Function) { f.Segments[0].Shape = Linear },
		"segments":  func(f *Function) { f.Segments = f.Segments[:2] },
	}
	tb := NewTable(0, 0)
	id0, err := tb.Add(base())
	if err != nil {
		t.Fatal(err)
	}
	if id, err := tb.Add(base()); err != nil || id != id0 {
		t.Fatalf("bit-identical function got id %d (err %v), want %d", id, err, id0)
	}
	seen := map[int]string{id0: "base"}
	for _, name := range []string{"priority", "tail", "duration", "start", "end", "shape", "flat-line", "segments"} {
		f := base()
		variants[name](f)
		id, err := tb.Add(f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[id]; dup {
			t.Fatalf("%s variant shares id %d with %s", name, id, prev)
		}
		seen[id] = name
		if again, _ := tb.Add(f); again != id {
			t.Fatalf("%s variant re-added as id %d, want %d", name, again, id)
		}
		for _, at := range []float64{0, 20, 45, 100, 140, 1000} {
			if got, want := tb.Value(id, at), f.Value(at); got != want {
				t.Fatalf("%s variant at t=%v: table %v vs function %v", name, at, got, want)
			}
		}
	}
	if tb.Len() != len(seen) {
		t.Fatalf("Len = %d, want %d distinct programs", tb.Len(), len(seen))
	}
	// Re-adding a known function, the common case on a real trace, must
	// not allocate.
	f := base()
	if n := testing.AllocsPerRun(100, func() { tb.Add(f) }); n != 0 {
		t.Fatalf("Add of a known function allocates %.1f times, want 0", n)
	}
}

// FuzzTableValue feeds arbitrary segment data and times; wherever the
// source function validates, the table must agree exactly.
func FuzzTableValue(f *testing.F) {
	f.Add(uint64(1), 25.0)
	f.Add(uint64(42), -3.0)
	f.Add(uint64(7), 1e9)
	f.Fuzz(func(t *testing.T, seed uint64, at float64) {
		if math.IsNaN(at) {
			return
		}
		src := rng.New(seed)
		fn := randomTableFunction(src)
		tb := NewTable(1, len(fn.Segments))
		id, err := tb.Add(fn)
		if err != nil {
			t.Fatal(err)
		}
		want, got := fn.Value(at), tb.Value(id, at)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("t=%v: table %v vs function %v", at, got, want)
		}
	})
}
