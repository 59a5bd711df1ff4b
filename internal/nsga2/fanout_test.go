package nsga2

import (
	"io"
	"testing"
)

// TestFanoutReraisesWorkerPanic: a panic inside a fan-out worker
// goroutine reaches the calling goroutine, after every worker returned,
// as a *WorkerPanic naming the lowest panicking worker and carrying its
// original value.
func TestFanoutReraisesWorkerPanic(t *testing.T) {
	eng := newEngine(t, 20, Config{PopulationSize: 8, Workers: 4}, 1)
	done := make([]bool, 4)
	func() {
		defer func() {
			r := recover()
			wp, ok := r.(*WorkerPanic)
			if !ok {
				t.Fatalf("recovered %T %v, want *WorkerPanic", r, r)
			}
			if wp.Worker != 1 || wp.Value != io.ErrUnexpectedEOF || len(wp.Stack) == 0 {
				t.Fatalf("WorkerPanic{Worker: %d, Value: %v, %d-byte stack}, want worker 1, io.ErrUnexpectedEOF and a stack",
					wp.Worker, wp.Value, len(wp.Stack))
			}
		}()
		eng.fanout(8, func(w, lo, hi int) {
			done[w] = true
			if w == 1 || w == 3 {
				panic(io.ErrUnexpectedEOF)
			}
		})
		t.Fatal("fanout returned despite a worker panic")
	}()
	for w, ok := range done {
		if !ok {
			t.Errorf("worker %d never ran", w)
		}
	}
	// The captured panic is cleared: the next fan-out runs clean.
	eng.fanout(8, func(w, lo, hi int) {})
}
