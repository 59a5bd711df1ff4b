//go:build unix

package dist

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"
)

// WorkerFD is the file descriptor a worker process inherits its wire
// socket on: the first ExtraFiles slot after stdin/stdout/stderr.
const WorkerFD = 3

// Proc is one spawned worker process and the parent side of its socket.
type Proc struct {
	// Conn is the parent's framed connection to the worker.
	Conn *Conn
	cmd  *exec.Cmd
}

// Wait reaps the worker process.
func (p *Proc) Wait() error { return p.cmd.Wait() }

// Kill force-terminates the worker process (best effort).
func (p *Proc) Kill() {
	if p.cmd.Process != nil {
		p.cmd.Process.Kill() //nolint:errcheck // best-effort teardown
	}
}

// StartWorkers forks n workers, each over its own socketpair. command
// builds worker w's exec.Cmd (typically the current binary re-executed
// with a worker flag); its socket end is appended to ExtraFiles, so
// with no other extra files it arrives on fd WorkerFD. onBytes, when
// non-nil, observes every wire frame's size on the parent side. On any
// spawn failure every already-started worker is killed and reaped.
func StartWorkers(n int, onBytes func(int), command func(worker int) *exec.Cmd) ([]*Proc, error) {
	if n < 1 {
		return nil, fmt.Errorf("dist: %d workers, want >= 1", n)
	}
	var procs []*Proc
	fail := func(err error) ([]*Proc, error) {
		for _, p := range procs {
			p.Conn.Close() //nolint:errcheck // teardown
			p.Kill()
			p.Wait() //nolint:errcheck // teardown
		}
		return nil, err
	}
	for w := 0; w < n; w++ {
		fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
		if err != nil {
			return fail(fmt.Errorf("dist: socketpair: %w", err))
		}
		// ExtraFiles dups the child end into the worker, so both originals
		// can be close-on-exec here in the parent.
		syscall.CloseOnExec(fds[0])
		syscall.CloseOnExec(fds[1])
		// A non-blocking parent end makes the os.File pollable, so closing
		// it wakes a reader blocked on it. The coordinator relies on that
		// to tear a run down when one worker dies while the others are
		// blocked waiting for it. The child's end stays blocking.
		if err := syscall.SetNonblock(fds[0], true); err != nil {
			syscall.Close(fds[0]) //nolint:errcheck // teardown
			syscall.Close(fds[1]) //nolint:errcheck // teardown
			return fail(fmt.Errorf("dist: socketpair: %w", err))
		}
		parentEnd := os.NewFile(uintptr(fds[0]), "dist-parent")
		childEnd := os.NewFile(uintptr(fds[1]), "dist-worker")
		cmd := command(w)
		cmd.ExtraFiles = append(cmd.ExtraFiles, childEnd)
		if err := cmd.Start(); err != nil {
			parentEnd.Close() //nolint:errcheck // teardown
			childEnd.Close()  //nolint:errcheck // teardown
			return fail(fmt.Errorf("dist: start worker %d: %w", w, err))
		}
		childEnd.Close() //nolint:errcheck // child holds its own dup
		procs = append(procs, &Proc{Conn: NewConn(parentEnd, onBytes), cmd: cmd})
	}
	return procs, nil
}

// WorkerSocket opens the wire socket a worker process inherited on fd
// WorkerFD.
func WorkerSocket() io.ReadWriteCloser {
	return os.NewFile(WorkerFD, "dist-socket")
}
