//go:build !(linux || darwin || freebsd || netbsd || openbsd || dragonfly)

package filelock

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"time"
)

// Persists reports whether a released lock file stays on disk. Here
// the lock is the file's existence, so release removes it.
const Persists = false

// Acquire creates path with O_CREATE|O_EXCL, waiting up to timeout for
// its current holder to remove it. It returns the func that releases
// the lock. A lock left by a crashed holder is never broken: the
// timeout error names the file for the operator to remove.
func Acquire(path string, timeout time.Duration) (release func(), err error) {
	deadline := time.Now().Add(timeout)
	for {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			f.Close()
			return func() { os.Remove(path) }, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return nil, fmt.Errorf("filelock: %w", err)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("filelock: %s held for over %v (remove it if its owner is dead)", path, timeout)
		}
		time.Sleep(retry)
	}
}
