package nsga2

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
)

var errTrigger = errors.New("triggered evaluation panic")

// panicAfter swaps engine eng's problem for one that panics with
// errTrigger once the engine has filled calls objective vectors. The
// counter is atomic because a multi-worker engine fills from its fan-out
// workers.
func panicAfter(eng *Engine, calls int64) {
	base := eng.problem
	var n atomic.Int64
	p := *base
	p.FillObjectives = func(dst []float64, ev sched.Evaluation) {
		if n.Add(1) > calls {
			panic(errTrigger)
		}
		base.FillObjectives(dst, ev)
	}
	eng.problem = &p
}

// runIslandsRecovering runs fn on its own goroutine and returns the
// value it panicked with (nil if it returned). A run that neither
// returns nor panics within the deadline — a ring left blocked on a
// dead island — fails the test.
func runIslandsRecovering(t *testing.T, fn func()) any {
	t.Helper()
	out := make(chan any, 1)
	go func() {
		defer func() { out <- recover() }()
		fn()
	}()
	select {
	case r := <-out:
		return r
	case <-time.After(30 * time.Second):
		t.Fatal("island run hung after an island panicked")
		return nil
	}
}

// TestIslandPanicReachesCaller: a panic on one island's goroutine —
// raised directly by a single-worker engine, or re-raised as a
// *WorkerPanic by a multi-worker engine's fan-out — reaches the caller
// of Run as an *IslandPanic naming that island, in synchronous and
// asynchronous mode, without leaving the other islands blocked.
func TestIslandPanicReachesCaller(t *testing.T) {
	for _, tc := range []struct {
		name    string
		async   bool
		workers int
	}{
		{"sync", false, 1},
		{"async", true, 1},
		{"sync-fanout", false, 2},
		{"async-fanout", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := asyncCfg(4, 2, 1, 8, tc.workers)
			cfg.Async = tc.async
			is, err := NewIslands(newEval(t, 30), cfg, rng.New(3))
			if err != nil {
				t.Fatal(err)
			}
			// Island 2 dies in its third generation, after the first
			// migration tick, while its ring peers keep stepping.
			panicAfter(is.engines[2], 2*8+3)
			r := runIslandsRecovering(t, func() { is.Run(10) })
			ip, ok := r.(*IslandPanic)
			if !ok {
				t.Fatalf("recovered %T %v, want *IslandPanic", r, r)
			}
			if ip.Island != 2 || len(ip.Stack) == 0 {
				t.Fatalf("IslandPanic{Island: %d, %d-byte stack}, want island 2 and a stack", ip.Island, len(ip.Stack))
			}
			val := ip.Value
			if wp, ok := val.(*WorkerPanic); ok {
				val = wp.Value
			}
			if val != errTrigger {
				t.Fatalf("IslandPanic value %v, want the triggered panic", ip.Value)
			}
		})
	}
}
