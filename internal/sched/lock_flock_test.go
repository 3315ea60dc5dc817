//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package sched

import (
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"joss/internal/platform"
)

// TestPlanStoreLockSurvivesCrashedWriter is the satellite's point: a
// writer that dies holding the lock (simulated by closing its
// descriptor without unlocking, which is exactly what the kernel does
// to a crashed process) no longer orphans the store — the next
// SaveFileMerged acquires immediately, without an operator removing
// anything, even though the .lock file is still on disk.
func TestPlanStoreLockSurvivesCrashedWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.json")
	lock := path + ".lock"

	// The "crashed" writer: takes the flock, then dies without
	// releasing or removing anything.
	f, err := os.OpenFile(lock, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		t.Fatal(err)
	}
	f.Close() // process death: kernel releases the flock, file remains

	if _, err := os.Stat(lock); err != nil {
		t.Fatalf("crash scenario lost its leftover lock file: %v", err)
	}

	pc := NewPlanCache()
	pc.Store(storeKey("kern_crash", "JOSS", 1), storePlan(1))
	start := time.Now()
	if err := pc.SaveFileMerged(path, platform.TX2()); err != nil {
		t.Fatalf("save after crashed writer: %v", err)
	}
	// Acquisition must be immediate (no timeout-and-operator cycle);
	// generous bound so loaded CI machines don't flake.
	if waited := time.Since(start); waited > storeLockTimeout/2 {
		t.Errorf("save waited %v behind a dead writer's lock", waited)
	}

	reload := NewPlanCache()
	if n, err := reload.LoadFile(path, platform.TX2()); err != nil || n != 1 {
		t.Fatalf("store after crash recovery: %d plans, err %v", n, err)
	}
}

// TestPlanStoreLockBlocksLiveHolder asserts the other half of the
// contract: a LIVE holder still excludes writers (crash recovery must
// not have turned the lock into a no-op), producing the timeout error
// that names the lock.
func TestPlanStoreLockBlocksLiveHolder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.json")
	lock := path + ".lock"

	f, err := os.OpenFile(lock, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		t.Fatal(err)
	}

	defer func(old time.Duration) { storeLockTimeout = old }(storeLockTimeout)
	storeLockTimeout = 50 * time.Millisecond

	pc := NewPlanCache()
	pc.Store(storeKey("kern_live", "JOSS", 1), storePlan(1))
	err = pc.SaveFileMerged(path, platform.TX2())
	if err == nil || !strings.Contains(err.Error(), lock) {
		t.Fatalf("save under a live lock holder: err = %v, want timeout naming %s", err, lock)
	}

	// Release; the same save must now go through.
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_UN); err != nil {
		t.Fatal(err)
	}
	if err := pc.SaveFileMerged(path, platform.TX2()); err != nil {
		t.Fatalf("save after release: %v", err)
	}
}
