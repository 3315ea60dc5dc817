package dispatch

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"joss/internal/obs"
)

// withMetrics installs a fresh metric set on p and returns it.
func withMetrics(p *Pool) *Metrics {
	m := NewMetrics(obs.NewRegistry(), p)
	p.SetMetrics(m)
	return m
}

// spinUntil polls p on worker w — the way a runtime polls between
// event batches — until done reports true or the test's patience runs
// out.
func spinUntil(t *testing.T, p *Pool, w int, done func() bool) {
	deadline := time.Now().Add(10 * time.Second)
	for !done() {
		p.Preempt(w)
		if time.Now().After(deadline) {
			t.Error("polling unit never released")
			return
		}
		runtime.Gosched()
	}
}

// TestAdmitStartsAtMinimumService: a newly admitted job starts at the
// minimum attained service of the active jobs, even when a job at zero
// precedes a charged one in admission order (the newest job wins the
// tie at zero, so it is charged first and that order arises on its
// own).
func TestAdmitStartsAtMinimumService(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	var mu sync.Mutex
	var order []string
	started := make(chan string, 64)

	z, zRelease := gatedJob(p, "z", 1, 1, 500, 1, started, &order, &mu)
	<-started
	a, aRelease := gatedJob(p, "a", 2, 1, 500, 1, started, &order, &mu)
	b, bRelease := gatedJob(p, "b", 2, 1, 500, 1, started, &order, &mu)
	zRelease <- struct{}{}
	if got := <-started; got != "b" {
		t.Fatalf("tie at zero service went to %q, want the newest job b", got)
	}
	// Active jobs now read a at 0, then b at 500. c must start at 0
	// and, as the newest job at the minimum, take the next worker.
	c, cRelease := gatedJob(p, "c", 1, 1, 500, 1, started, &order, &mu)
	bRelease <- struct{}{}
	if got := <-started; got != "c" {
		t.Errorf("freed worker ran %q, want c (admitted at the minimum service 0)", got)
	}
	for _, rel := range []chan struct{}{zRelease, aRelease, bRelease, cRelease} {
		close(rel)
	}
	for _, j := range []*Job{z, a, b, c} {
		j.Wait()
	}
}

// TestPreemptIdlePollAllocFree: with nothing to preempt, a poll is one
// atomic load — no lock and no allocation.
func TestPreemptIdlePollAllocFree(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	if n := testing.AllocsPerRun(100, func() { p.Preempt(0) }); n != 0 {
		t.Errorf("idle Preempt allocates %v times per call", n)
	}
}

// TestPreemptSmallJobStartsWithinOnePoll: with every worker busy on a
// large job, a newly admitted small job runs nested at the first poll
// after its admission, and the parked units then resume.
func TestPreemptSmallJobStartsWithinOnePoll(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	m := withMetrics(p)
	var admitted atomic.Bool
	var inBig [2]atomic.Bool
	started := make(chan int, 4)
	big := mustAdmit(t, p, Spec{
		Cells: 4, Repeats: 1, Costs: []int{1000, 1000, 1000, 1000}, Width: 2,
		Run: func(w int, _ Unit) {
			inBig[w].Store(true)
			defer inBig[w].Store(false)
			started <- w
			// One poll after the small job is visible, then return.
			spinUntil(t, p, w, func() bool {
				seen := admitted.Load()
				p.Preempt(w)
				return seen
			})
		},
	})
	<-started
	<-started

	var nested atomic.Bool
	small := mustAdmit(t, p, Spec{
		Cells: 1, Repeats: 1, Costs: []int{10}, Width: 1,
		Run: func(w int, _ Unit) { nested.Store(inBig[w].Load()) },
	})
	admitted.Store(true)
	big.Wait()
	select {
	case <-small.Finished():
	default:
		t.Fatal("small job not finished once the big units took their next poll")
	}
	if !nested.Load() {
		t.Error("small job waited for a free worker instead of running nested")
	}
	if n := m.Preemptions.Value(); n != 1 {
		t.Errorf("preemptions = %d, want 1", n)
	}
	if pr := big.Progress(); !pr.Finished || pr.Done != 4 {
		t.Errorf("big progress = %+v, want 4 done, finished", pr)
	}
}

// TestPreemptDepthOne: a nested unit never nests again. K runs nested
// in J's unit and admits a smaller L that beats K; L waits until K
// returns.
func TestPreemptDepthOne(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	var depth, maxDepth atomic.Int32
	enter := func() func() {
		d := depth.Add(1)
		for {
			old := maxDepth.Load()
			if d <= old || maxDepth.CompareAndSwap(old, d) {
				break
			}
		}
		return func() { depth.Add(-1) }
	}
	var stop, inK, lInK atomic.Bool
	started := make(chan struct{}, 3)
	j := mustAdmit(t, p, Spec{
		Cells: 1, Repeats: 3, Costs: []int{1000}, Width: 1,
		Run: func(w int, _ Unit) {
			defer enter()()
			started <- struct{}{}
			spinUntil(t, p, w, stop.Load)
		},
	})
	<-started

	var l *Job
	k := mustAdmit(t, p, Spec{
		Cells: 1, Repeats: 1, Costs: []int{10}, Width: 1,
		Run: func(w int, _ Unit) {
			defer enter()()
			inK.Store(true)
			defer inK.Store(false)
			var err error
			l, err = p.Admit(Spec{
				Cells: 1, Repeats: 1, Costs: []int{1}, Width: 1,
				Run: func(int, Unit) {
					defer enter()()
					lInK.Store(lInK.Load() || inK.Load())
				},
			})
			if err != nil {
				t.Errorf("Admit inside a nested unit: %v", err)
			}
			for i := 0; i < 100; i++ {
				p.Preempt(w)
			}
			stop.Store(true)
		},
	})
	k.Wait()
	j.Wait()
	if l == nil {
		t.FailNow()
	}
	l.Wait()
	if lInK.Load() {
		t.Error("L ran nested inside the nested unit K")
	}
	if d := maxDepth.Load(); d != 2 {
		t.Errorf("max Run depth = %d, want 2 (J's unit plus one nested unit)", d)
	}
}

// TestPreemptLargeJobNeverNestsInSmall: a large job that beats the
// running small job still waits for a free worker — its undispatched
// demand exceeds the small unit's cost.
func TestPreemptLargeJobNeverNestsInSmall(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	m := withMetrics(p)
	var admitted, inSmall, nested atomic.Bool
	started := make(chan struct{}, 2)
	small := mustAdmit(t, p, Spec{
		Cells: 1, Repeats: 2, Costs: []int{10}, Width: 1,
		Run: func(w int, _ Unit) {
			inSmall.Store(true)
			defer inSmall.Store(false)
			started <- struct{}{}
			polls := 0
			spinUntil(t, p, w, func() bool {
				if admitted.Load() {
					polls++
				}
				return polls > 100
			})
		},
	})
	<-started
	// large starts at small's attained service and, as the newest job,
	// wins the tie: it beats small.
	large := mustAdmit(t, p, Spec{
		Cells: 3, Repeats: 1, Costs: []int{1000, 1000, 1000}, Width: 1,
		Run: func(int, Unit) { nested.Store(nested.Load() || inSmall.Load()) },
	})
	if p.pending.Load() {
		t.Error("preemption hint raised for a large job behind a small unit")
	}
	admitted.Store(true)
	small.Wait()
	large.Wait()
	if nested.Load() {
		t.Error("a large job's unit ran nested inside a small job's unit")
	}
	if n := m.Preemptions.Value(); n != 0 {
		t.Errorf("preemptions = %d, want 0", n)
	}
}

// TestPreemptAccountingExact is the storm form: small jobs arrive
// while both workers hold large units that keep polling, so the small
// units run nested for as long as they beat the large job (a small
// job's later units, charged past it, wait for a free worker). Width,
// per-cell OnCellDone, Progress, Finished and the dispatch metrics
// must stay exact, and no Run nests more than one deep.
func TestPreemptAccountingExact(t *testing.T) {
	const smalls, cells, repeats = 16, 2, 2
	p := NewPool(2)
	defer p.Close()
	m := withMetrics(p)
	var depth [2]atomic.Int32
	var tooDeep atomic.Bool
	var nestedRuns atomic.Int64
	enter := func(w int) func() {
		switch depth[w].Add(1) {
		case 1:
		case 2:
			nestedRuns.Add(1)
		default:
			tooDeep.Store(true)
		}
		return func() { depth[w].Add(-1) }
	}
	var smallsDone atomic.Int32
	started := make(chan struct{}, 4)
	big := mustAdmit(t, p, Spec{
		Cells: 4, Repeats: 1, Costs: []int{1000, 1000, 1000, 1000}, Width: 2,
		Run: func(w int, _ Unit) {
			defer enter(w)()
			started <- struct{}{}
			polls := 0
			spinUntil(t, p, w, func() bool {
				polls++
				return smallsDone.Load() == smalls || polls > 5000
			})
		},
	})
	<-started
	<-started

	type tally struct {
		inflight, maxInflight atomic.Int32
		ran                   [cells]atomic.Int32
		announced             [cells]atomic.Int32
		early                 atomic.Bool
	}
	var wg sync.WaitGroup
	jobs := make([]*Job, smalls)
	tallies := make([]*tally, smalls)
	for i := range jobs {
		tl := &tally{}
		tallies[i] = tl
		width := 1 + i%2
		jobs[i] = mustAdmit(t, p, Spec{
			Cells: cells, Repeats: repeats, Costs: []int{3, 5}, Width: width,
			Run: func(w int, u Unit) {
				defer enter(w)()
				n := tl.inflight.Add(1)
				if n > tl.maxInflight.Load() {
					tl.maxInflight.Store(n)
				}
				for k := 0; k < 10; k++ {
					p.Preempt(w) // a nested unit's poll must not nest again
				}
				tl.ran[u.Cell].Add(1)
				tl.inflight.Add(-1)
			},
			OnCellDone: func(cell int) {
				if tl.ran[cell].Load() != repeats {
					tl.early.Store(true)
				}
				tl.announced[cell].Add(1)
			},
		})
		wg.Add(1)
		go func(j *Job) {
			defer wg.Done()
			j.Wait()
			smallsDone.Add(1)
		}(jobs[i])
	}
	wg.Wait()
	big.Wait()

	if tooDeep.Load() {
		t.Error("a Run nested more than one deep")
	}
	for i, j := range jobs {
		tl := tallies[i]
		if got, width := tl.maxInflight.Load(), int32(1+i%2); got > width {
			t.Errorf("job %d: %d units in flight, width %d", i, got, width)
		}
		for c := 0; c < cells; c++ {
			if tl.announced[c].Load() != 1 {
				t.Errorf("job %d cell %d: OnCellDone called %d times", i, c, tl.announced[c].Load())
			}
		}
		if tl.early.Load() {
			t.Errorf("job %d: OnCellDone before the cell's last repeat ran", i)
		}
		want := Progress{Total: cells * repeats, Done: cells * repeats, Finished: true}
		if pr := j.Progress(); pr != want {
			t.Errorf("job %d progress = %+v, want %+v", i, pr, want)
		}
	}
	units := int64(smalls*cells*repeats + 4)
	if got := m.Preemptions.Value(); got == 0 || got != nestedRuns.Load() {
		t.Errorf("preemptions = %d, nested runs = %d; want equal and non-zero", got, nestedRuns.Load())
	}
	if m.Claims.Value() != units || m.UnitsDone.Value() != units || m.Service.Count() != units {
		t.Errorf("claims %d, units done %d, service samples %d; want %d each",
			m.Claims.Value(), m.UnitsDone.Value(), m.Service.Count(), units)
	}
	if b := m.WorkersBusy.Value(); b != 0 {
		t.Errorf("workers busy = %d after draining, want 0", b)
	}
	if jobs, queued, inflight := p.Load(); jobs != 0 || queued != 0 || inflight != 0 {
		t.Errorf("pool load = %d jobs, %d queued, %d in flight after draining", jobs, queued, inflight)
	}
}

// TestPreemptCancelParkedJob: cancelling a job whose unit is parked
// under a nested unit leaves it unfinished until the nested unit
// returns; the parked unit then sees its cancel flag and unwinds.
func TestPreemptCancelParkedJob(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	var cancel, unwound atomic.Bool
	started := make(chan struct{}, 3)
	var parked *Job
	parked = mustAdmit(t, p, Spec{
		Cells: 1, Repeats: 3, Costs: []int{1000}, Width: 1,
		Run: func(w int, _ Unit) {
			started <- struct{}{}
			spinUntil(t, p, w, cancel.Load)
			unwound.Store(true)
		},
	})
	<-started

	var during Progress
	var finishedEarly bool
	small := mustAdmit(t, p, Spec{
		Cells: 1, Repeats: 1, Costs: []int{10}, Width: 1,
		Run: func(int, Unit) {
			parked.Cancel()
			cancel.Store(true)
			during = parked.Progress()
			select {
			case <-parked.Finished():
				finishedEarly = true
			default:
			}
		},
	})
	small.Wait()
	parked.Wait()
	if !unwound.Load() {
		t.Fatal("parked unit never resumed to see its cancel")
	}
	if finishedEarly || during.Finished || during.InFlight != 1 || !during.Cancelled || during.Dropped != 2 {
		t.Errorf("parked job while nested unit ran: %+v (finished early %v), want cancelled, 1 in flight, 2 dropped",
			during, finishedEarly)
	}
	want := Progress{Total: 3, Done: 1, Dropped: 2, Cancelled: true, Finished: true}
	if pr := parked.Progress(); pr != want {
		t.Errorf("parked job progress = %+v, want %+v", pr, want)
	}
}
