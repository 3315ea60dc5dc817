//go:build linux

package dispatch

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"joss/internal/obs"
)

// threadNice reads the calling thread's nice value, field 19 of
// /proc/thread-self/stat, or reports an error and returns -1. The
// caller must be locked to its thread or running a worker's unit.
func threadNice(t *testing.T) int {
	b, err := os.ReadFile("/proc/thread-self/stat")
	if err != nil {
		t.Error(err)
		return -1
	}
	// The command name (field 2) may hold spaces; fields 3 onward
	// follow its closing parenthesis.
	fields := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	n, err := strconv.Atoi(fields[19-3])
	if err != nil {
		t.Error(err)
		return -1
	}
	return n
}

// freshThreadNice reads the nice value on n goroutines that each hold
// a thread of their own until all have read, so the readings cover n
// distinct threads — the runtime's idle threads first, then new ones.
func freshThreadNice(t *testing.T, n int) []int {
	got := make([]int, n)
	var read, wg sync.WaitGroup
	read.Add(n)
	wg.Add(n)
	for i := range got {
		go func() {
			defer wg.Done()
			// Exiting while locked ends the thread, so none of these
			// threads outlives the check.
			runtime.LockOSThread()
			got[i] = threadNice(t)
			read.Done()
			read.Wait()
		}()
	}
	wg.Wait()
	return got
}

// TestWorkerThreadsLowered: a unit runs on a thread lowered by
// workerNiceIncrement, nested units included, the gauge reports it,
// and no lowered thread is ever handed to another goroutine.
func TestWorkerThreadsLowered(t *testing.T) {
	base := freshThreadNice(t, 1)[0]
	want := min(base+workerNiceIncrement, 19)

	p := NewPool(1)
	defer p.Close()
	r := obs.NewRegistry()
	m := NewMetrics(r, p)
	p.SetMetrics(m)
	var top, nested atomic.Int64
	started := make(chan struct{})
	var admitted atomic.Bool
	big := mustAdmit(t, p, Spec{
		Cells: 1, Repeats: 1, Costs: []int{1000}, Width: 1,
		Run: func(w int, _ Unit) {
			top.Store(int64(threadNice(t)))
			close(started)
			spinUntil(t, p, w, func() bool { return admitted.Load() && m.Preemptions.Value() > 0 })
		},
	})
	<-started
	small := mustAdmit(t, p, Spec{
		Cells: 1, Repeats: 1, Costs: []int{10}, Width: 1,
		Run: func(int, Unit) { nested.Store(int64(threadNice(t))) },
	})
	admitted.Store(true)
	big.Wait()
	small.Wait()
	if m.Preemptions.Value() != 1 {
		t.Fatalf("preemptions = %d, want the small unit nested", m.Preemptions.Value())
	}
	if top.Load() != int64(want) || nested.Load() != int64(want) {
		t.Errorf("unit nice = %d, nested unit nice = %d, want %d", top.Load(), nested.Load(), want)
	}
	gauge := -1.0
	for _, pt := range r.Snapshot() {
		if pt.Name == "joss_dispatch_worker_nice" {
			gauge = pt.Value
		}
	}
	if gauge != float64(want) {
		t.Errorf("joss_dispatch_worker_nice = %g, want %d", gauge, want)
	}

	// A sweep on two workers, then every thread the runtime hands out
	// runs at the base priority.
	p.Grow(2)
	sweep := mustAdmit(t, p, Spec{
		Cells: 8, Repeats: 2, Costs: make([]int, 8), Width: 2,
		Run: func(int, Unit) {
			if n := threadNice(t); n != want {
				t.Errorf("sweep unit nice = %d, want %d", n, want)
			}
		},
	})
	sweep.Wait()
	for i, n := range freshThreadNice(t, 32) {
		if n != base {
			t.Errorf("fresh goroutine %d runs at nice %d, want %d", i, n, base)
		}
	}
}
