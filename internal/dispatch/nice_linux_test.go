//go:build linux

package dispatch

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"joss/internal/obs"
)

// mainThreadEnv, set in a re-executed test binary, locks the main
// goroutine to the main thread in init and makes TestMain run a worker
// there (mainThreadWorker) instead of the tests.
const mainThreadEnv = "JOSS_DISPATCH_MAIN_THREAD_WORKER"

func init() {
	if os.Getenv(mainThreadEnv) != "" {
		runtime.LockOSThread()
	}
}

func TestMain(m *testing.M) {
	if os.Getenv(mainThreadEnv) != "" {
		mainThreadWorker()
	}
	os.Exit(m.Run())
}

// statNice reads the nice value, field 19, from a /proc stat file.
func statNice(path string) (int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return -1, err
	}
	// The command name (field 2) may hold spaces; fields 3 onward
	// follow its closing parenthesis.
	fields := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	return strconv.Atoi(fields[19-3])
}

// threadNice reads the calling thread's nice value, or reports an error
// and returns -1. The caller must be locked to its thread or running a
// worker's unit.
func threadNice(t *testing.T) int {
	n, err := statNice("/proc/thread-self/stat")
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

// mainThreadWorker is the child side of TestMainThreadNotLowered. Its
// goroutine is the main goroutine, locked to the main thread since
// init, and it enters a worker there, as a worker that lands on the
// main thread would. A helper goroutine runs one unit through the pool
// and prints three nice values: the main thread's before and after,
// and the unit's thread's. It then exits the process.
func mainThreadWorker() {
	mainStat := fmt.Sprintf("/proc/self/task/%d/stat", os.Getpid())
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "main-thread worker:", err)
		os.Exit(1)
	}
	base, err := statNice(mainStat)
	if err != nil {
		fail(err)
	}
	p := NewPool(0)
	ws := &slot{}
	p.mu.Lock()
	p.slots = append(p.slots, ws)
	p.workers++
	p.updatePending()
	p.mu.Unlock()
	go func() {
		unit := -1
		j, err := p.Admit(Spec{
			Cells: 1, Repeats: 1, Costs: []int{1}, Width: 1,
			Run: func(int, Unit) { unit, _ = statNice("/proc/thread-self/stat") },
		})
		if err != nil {
			fail(err)
		}
		j.Wait()
		after, err := statNice(mainStat)
		if err != nil {
			fail(err)
		}
		fmt.Println(base, after, unit)
		os.Exit(0)
	}()
	p.worker(0, ws)
	// The worker handed its role on; hold the main goroutine until the
	// helper has reported.
	time.Sleep(time.Minute)
	fail(fmt.Errorf("the pool never ran the unit"))
}

// TestMainThreadNotLowered: a worker that starts on the process's main
// thread leaves that thread at its priority and hands its role to a
// worker on another thread, which runs units lowered as usual. The
// check runs in a re-executed test binary, since only a fresh process
// can offer its main thread to a worker.
func TestMainThreadNotLowered(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), mainThreadEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("main-thread worker: %v", err)
	}
	var base, after, unit int
	if _, err := fmt.Sscan(string(out), &base, &after, &unit); err != nil {
		t.Fatalf("main-thread worker printed %q: %v", out, err)
	}
	if after != base {
		t.Errorf("main thread nice = %d after a worker started on it, want %d", after, base)
	}
	if want := min(base+workerNiceIncrement, 19); unit != want {
		t.Errorf("unit nice = %d, want %d", unit, want)
	}
}
