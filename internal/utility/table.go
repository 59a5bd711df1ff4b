package utility

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Table flattens a batch of Functions into contiguous parallel arrays so
// hot loops (schedule evaluation calls one TUF per simulated task) read
// segments from cache-friendly memory instead of chasing a *Function,
// its segment slice, and four fields per segment. Table.Value is
// bit-identical to Function.Value on the source function: it performs
// the same floating-point operations in the same order, only the data
// layout changes.
//
// Add deduplicates: a function bit-identical to one already compiled
// shares that function's program id, so a trace whose tasks draw their
// functions from a small family compiles only the distinct members.
//
// A Table is immutable after construction and safe for concurrent use.
type Table struct {
	progs []tableProg
	segs  []tableSeg
	// ids maps a compiled function's key (see appendKey) to its program
	// id; key is the scratch Add builds keys in.
	ids map[string]int32
	key []byte
}

// tableProg is one compiled function: a segment range plus the scalars
// Value needs after segment lookup.
type tableProg struct {
	off  int32
	n    int32
	prio float64
	tail float64
	// tailT is a conservative elapsed-time threshold: any elapsed >=
	// tailT is guaranteed to fall off the end of the segment walk, so
	// Value can return prio*tail without touching the segments. The
	// guard must never fire for an elapsed the walk would place inside
	// a segment: the walk subtracts durations with one rounding per
	// step, so its effective boundary sits within n·2^-52 (relative) of
	// the exact duration sum; a 1e-12 relative margin clears that for
	// any realistic segment count. Times below the threshold take the
	// walk, so the result is bit-identical either way.
	tailT float64
}

// tableSeg is one compiled segment. For Constant and Linear shapes aux
// holds EndFrac-StartFrac (zero for Constant), and the segment value is
// start + aux*(t/dur) — for Constant the product term is exactly +0, so
// the shared formula reproduces Function.Value bit for bit. For
// Exponential aux holds EndFrac/StartFrac and the value is
// start * Pow(aux, t/dur), again matching segValue's arithmetic.
type tableSeg struct {
	dur   float64
	start float64
	aux   float64
	exp   bool
}

// NewTable returns an empty table with capacity hints for n functions
// and totalSegs segments.
func NewTable(n, totalSegs int) *Table {
	return &Table{
		progs: make([]tableProg, 0, n),
		segs:  make([]tableSeg, 0, totalSegs),
		ids:   make(map[string]int32, n),
	}
}

// Add compiles a validated function into the table and returns its id.
// If a bit-identical function — same priority and tail, and the same
// duration, start, end and shape in every segment, floats compared by
// their bits — was added before, Add returns that function's id instead
// of compiling a copy. The function is copied; later mutation of f does
// not affect the table.
func (tb *Table) Add(f *Function) (int, error) {
	if err := f.Validate(); err != nil {
		return 0, fmt.Errorf("utility: compiling invalid function: %w", err)
	}
	tb.key = appendKey(tb.key[:0], f)
	if id, ok := tb.ids[string(tb.key)]; ok {
		return int(id), nil
	}
	id := len(tb.progs)
	tb.ids[string(tb.key)] = int32(id)
	off := int32(len(tb.segs))
	var total float64
	for _, seg := range f.Segments {
		total += seg.Duration
		ts := tableSeg{dur: seg.Duration, start: seg.StartFrac}
		if seg.Shape == Exponential {
			ts.aux = seg.EndFrac / seg.StartFrac
			ts.exp = true
		} else {
			ts.aux = seg.EndFrac - seg.StartFrac
		}
		tb.segs = append(tb.segs, ts)
	}
	tb.progs = append(tb.progs, tableProg{
		off:   off,
		n:     int32(len(f.Segments)),
		prio:  f.Priority,
		tail:  f.TailFrac,
		tailT: total + total*1e-12,
	})
	return id, nil
}

// appendKey appends f's deduplication key to b: the bits of its
// priority, its tail, and every segment's duration, start, end and
// shape.
func appendKey(b []byte, f *Function) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.Priority))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.TailFrac))
	for _, sg := range f.Segments {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(sg.Duration))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(sg.StartFrac))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(sg.EndFrac))
		b = binary.LittleEndian.AppendUint64(b, uint64(sg.Shape))
	}
	return b
}

// Len returns the number of distinct compiled functions.
func (tb *Table) Len() int { return len(tb.progs) }

// TailThreshold returns the compiled function's tail guard: any elapsed
// time >= the threshold is guaranteed past every segment, and Value
// returns TailValue without walking the segments. Callers that hoist the
// guard (the typed evaluation kernel) stay bit-identical to Value as
// long as they use this exact threshold and TailValue's exact product.
func (tb *Table) TailThreshold(id int) float64 { return tb.progs[id].tailT }

// TailValue returns the utility earned past TailThreshold. It is the
// same single multiplication Value performs on its tail path, so a
// caller substituting TailValue for Value past the threshold is
// bit-identical.
func (tb *Table) TailValue(id int) float64 {
	p := &tb.progs[id]
	return p.prio * p.tail
}

// Value returns the utility earned by the id-th compiled function at the
// given elapsed time. It is bit-identical to calling Value on the
// function passed to Add.
func (tb *Table) Value(id int, elapsed float64) float64 {
	p := &tb.progs[id]
	t := elapsed
	if t < 0 {
		t = 0
	}
	if t >= p.tailT {
		// Past every segment with margin beyond the walk's worst-case
		// rounding (see tailT): identical to falling off the loop below.
		// On saturated systems most completions land here, so this guard
		// skips the segment walk for the overwhelming share of calls.
		return p.prio * p.tail
	}
	segs := tb.segs[p.off : p.off+p.n]
	for k := range segs {
		sg := &segs[k]
		if t < sg.dur {
			if sg.exp {
				// Same ops as segValue: start * (end/start)^(t/d).
				return p.prio * (sg.start * math.Pow(sg.aux, t/sg.dur))
			}
			// Same ops as segValue Linear; Constant has aux == 0 and
			// t/dur finite, so the product term is +0 and the sum is
			// exactly start.
			return p.prio * (sg.start + sg.aux*(t/sg.dur))
		}
		t -= sg.dur
	}
	return p.prio * p.tail
}
