//go:build !linux

package dispatch

// lowerThread is a no-op off Linux: workers run at normal priority on
// any thread, and joss_dispatch_worker_nice reads 0.
func (p *Pool) lowerThread() bool { return true }
