//go:build linux

package dispatch

import (
	"log/slog"
	"runtime"
	"sync"
	"syscall"
)

// workerNiceIncrement is how far a worker lowers its thread's priority.
// At +10 the kernel weighs a worker thread at about a tenth of a
// default one, so a serving thread that wakes beside CPU-bound
// simulation runs at once, while workers still get every cycle nothing
// else wants.
const workerNiceIncrement = 10

// niceWarning makes a failed lowering warn once per process, not once
// per worker.
var niceWarning sync.Once

// lowerThread locks the calling worker goroutine to its OS thread and
// lowers that thread's priority by workerNiceIncrement (capped at the
// lowest, 19). The goroutine never unlocks, so the thread exits with
// the worker: an unprivileged thread cannot raise its priority again
// (RLIMIT_NICE), and back in the runtime's thread pool it would run
// serving goroutines at the lowered priority. Threads the runtime
// starts while a locked thread is current come from its template
// thread, so the lowered value does not spread to them. If lowering
// fails, the worker unlocks and runs at normal priority.
//
// The process's main thread is never lowered: Go never lets it exit,
// so a lowered main thread would stay at the worker priority after the
// pool closes, and tools that read a process's priority from its main
// thread would report the whole process lowered. A worker that finds
// itself on the main thread returns false with the thread still
// locked; the caller hands its role to a fresh goroutine and exits, so
// Go parks the main thread for good at its own priority.
func (p *Pool) lowerThread() bool {
	runtime.LockOSThread()
	tid := syscall.Gettid()
	if tid == syscall.Getpid() {
		return false
	}
	// The raw getpriority(2) result is 20 - nice.
	prio, err := syscall.Getpriority(syscall.PRIO_PROCESS, tid)
	if err == nil {
		nice := min(20-prio+workerNiceIncrement, 19)
		if err = syscall.Setpriority(syscall.PRIO_PROCESS, tid, nice); err == nil {
			p.nice.Store(int64(nice))
			return true
		}
	}
	runtime.UnlockOSThread()
	p.nice.Store(0)
	niceWarning.Do(func() {
		slog.Warn("dispatch: cannot lower worker thread priority; simulation competes with serving", "err", err)
	})
	return true
}
