//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package filelock

import (
	"fmt"
	"os"
	"syscall"
	"time"
)

// Persists reports whether a released lock file stays on disk. The
// flock build never unlinks it: the lock lives on the descriptor, so a
// leftover file is inert, whereas unlinking it would let a third
// process lock a freshly created inode while a second still waits on
// the old one — two holders at once.
const Persists = true

// Acquire takes an exclusive flock(2) on path, creating the file if
// needed, and waits up to timeout for a live holder to release it. It
// returns the func that releases the lock.
func Acquire(path string, timeout time.Duration) (release func(), err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("filelock: %w", err)
	}
	deadline := time.Now().Add(timeout)
	for {
		err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
		if err == nil {
			return func() {
				syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
				f.Close()
			}, nil
		}
		if err != syscall.EWOULDBLOCK && err != syscall.EAGAIN {
			f.Close()
			return nil, fmt.Errorf("filelock: locking %s: %w", path, err)
		}
		if time.Now().After(deadline) {
			f.Close()
			return nil, fmt.Errorf("filelock: %s held for over %v by a live process", path, timeout)
		}
		time.Sleep(retry)
	}
}
