package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent / refHeap replicate the seed implementation's event queue
// (container/heap over a boxed slice with (at, seq) ordering) as the
// differential-testing reference for the inlined 4-ary heap.
type refEvent struct {
	at        float64
	seq       uint64
	id        int
	cancelled bool
	index     int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

type refEngine struct {
	now       float64
	seq       uint64
	pq        refHeap
	processed uint64
}

func (e *refEngine) at(t float64, id int) *refEvent {
	ev := &refEvent{at: t, seq: e.seq, id: id}
	e.seq++
	heap.Push(&e.pq, ev)
	return ev
}

func (e *refEngine) step() (int, bool) {
	for len(e.pq) > 0 {
		ev := heap.Pop(&e.pq).(*refEvent)
		if ev.cancelled {
			continue
		}
		e.now = ev.at
		return ev.id, true
	}
	return 0, false
}

// TestHeapDifferentialRandomSchedules drives the production engine and
// the container/heap reference through identical random schedules —
// including same-time FIFO ties, cancellations, and events scheduled
// from inside callbacks — and asserts both fire the same events at the
// same times in the same order.
func TestHeapDifferentialRandomSchedules(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))

		eng := New()
		ref := &refEngine{}

		var gotOrder, wantOrder []int
		var gotTimes, wantTimes []float64

		// times drawn from a small set to force plenty of ties.
		times := []float64{0, 0.5, 1, 1, 1, 2, 2.5, 3}

		type handlePair struct {
			ev *Event
			re *refEvent
		}
		var live []handlePair

		nextID := 0
		schedule := func(t float64) {
			id := nextID
			nextID++
			ev := eng.At(t, func() {
				gotOrder = append(gotOrder, id)
				gotTimes = append(gotTimes, eng.Now())
			})
			re := ref.at(t, id)
			live = append(live, handlePair{ev, re})
		}

		for i := 0; i < 200; i++ {
			schedule(times[rng.Intn(len(times))])
		}
		// Cancel a random subset before anything fires. Handles are
		// valid until the event fires, so cancellation here is safe.
		for _, hp := range live {
			if rng.Intn(4) == 0 {
				hp.ev.Cancel()
				hp.re.cancelled = true
			}
		}
		// From inside callbacks, schedule more events at or after the
		// current time (rescheduling is the engine's normal workload).
		extra := 50
		var grow func()
		grow = func() {
			if extra == 0 {
				return
			}
			extra--
			id := nextID
			nextID++
			at := eng.Now() + float64(rng.Intn(3))
			eng.At(at, func() {
				gotOrder = append(gotOrder, id)
				gotTimes = append(gotTimes, eng.Now())
				grow()
			})
			ref.at(at, id)
		}
		// Kick growth from one scheduled event per trial.
		kickID := nextID
		nextID++
		eng.At(0.25, func() {
			gotOrder = append(gotOrder, kickID)
			gotTimes = append(gotTimes, eng.Now())
			grow()
		})
		ref.at(0.25, kickID)

		eng.Run()
		for {
			id, ok := ref.step()
			if !ok {
				break
			}
			wantOrder = append(wantOrder, id)
			wantTimes = append(wantTimes, ref.now)
			// Mirror the callback-side growth: the reference fires the
			// same IDs, so replaying the production order's schedule
			// isn't needed — growth events were added to both queues
			// when the production engine fired them. To keep the two
			// queues identical we instead pre-drained production above,
			// so all events are already in the reference queue.
		}

		if len(gotOrder) != len(wantOrder) {
			t.Fatalf("trial %d: fired %d events, reference fired %d",
				trial, len(gotOrder), len(wantOrder))
		}
		for i := range gotOrder {
			if gotOrder[i] != wantOrder[i] {
				t.Fatalf("trial %d: order diverges at %d: got id %d, want %d",
					trial, i, gotOrder[i], wantOrder[i])
			}
			if gotTimes[i] != wantTimes[i] {
				t.Fatalf("trial %d: time diverges at %d (id %d): got %v, want %v",
					trial, i, gotOrder[i], gotTimes[i], wantTimes[i])
			}
		}
	}
}

// TestHeapSameTimeFIFO asserts FIFO order among many same-time events
// even across cancellation gaps.
func TestHeapSameTimeFIFO(t *testing.T) {
	eng := New()
	var got []int
	var evs []*Event
	for i := 0; i < 100; i++ {
		i := i
		evs = append(evs, eng.At(1, func() { got = append(got, i) }))
	}
	for i := 0; i < 100; i += 3 {
		evs[i].Cancel()
	}
	eng.Run()
	want := -1
	for _, v := range got {
		if v%3 == 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
		if v <= want {
			t.Fatalf("same-time events out of FIFO order: %v", got)
		}
		want = v
	}
	if len(got) != 100-34 {
		t.Fatalf("fired %d events, want %d", len(got), 66)
	}
}

// TestEventPoolReuse asserts the free list actually recycles events:
// after a burst fires, scheduling the same number again should reuse
// the pooled events rather than allocating.
func TestEventPoolReuse(t *testing.T) {
	eng := New()
	for i := 0; i < 64; i++ {
		eng.After(1, func() {})
	}
	eng.Run()
	allocs := testing.AllocsPerRun(100, func() {
		ev := eng.After(1, func() {})
		ev.Cancel()
		eng.RunUntil(eng.Now() + 2)
	})
	if allocs > 0 {
		t.Fatalf("steady-state After allocated %.1f allocs/op, want 0", allocs)
	}
}

// The methods below complete the reference with the engine's
// Processed accounting, peeks and RunUntil; fire is called for every
// live event popped.

func (e *refEngine) pop(fire func(*refEvent)) bool {
	if len(e.pq) == 0 {
		return false
	}
	ev := heap.Pop(&e.pq).(*refEvent)
	e.processed++
	if !ev.cancelled {
		e.now = ev.at
		fire(ev)
	}
	return true
}

func (e *refEngine) peek() *refEvent {
	for len(e.pq) > 0 && e.pq[0].cancelled {
		heap.Pop(&e.pq)
		e.processed++
	}
	if len(e.pq) == 0 {
		return nil
	}
	return e.pq[0]
}

func (e *refEngine) runUntil(t float64, fire func(*refEvent)) {
	for ev := e.peek(); ev != nil && ev.at <= t; ev = e.peek() {
		e.pop(fire)
	}
	if t > e.now {
		e.now = t
	}
}

// TestLaneDifferentialRandomSchedules drives the engine — with its
// zero-delay and fixed-delay FIFO lanes — and the container/heap
// reference through the same random operations: zero-delay,
// fixed-delay and arbitrary-delay events scheduled from outside and
// from inside callbacks, cancels, Step, RunUntil and NextEventTime
// peeks, Resets, and a fixed delay that changes across Resets and
// mid-run. After every operation both must have fired the same events
// in the same order and agree on the clock, Processed and Pending.
func TestLaneDifferentialRandomSchedules(t *testing.T) {
	delays := []float64{1e-6, 3e-7, 0.25, 0}
	type event struct {
		id       int
		at       float64
		ev       *Event
		re       *refEvent
		done     bool // fired or cancelled: the handle may be recycled
		child    int  // index of the event this one schedules when fired, or -1
		childD   float64
		hasChild bool
		childHow int // how the child is scheduled: After, At or AfterEvent
	}
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		eng := New()
		ref := &refEngine{}
		fixed := delays[rng.Intn(len(delays))]
		eng.SetFixedDelay(fixed)

		var events []*event
		var gotFired, wantFired []int

		// gap draws the delay to a new event: zero, the fixed delay,
		// small multiples of it, or arbitrary, so that lane and heap
		// events often tie in time.
		gap := func() float64 {
			switch rng.Intn(6) {
			case 0, 1:
				return 0
			case 2, 3:
				return fixed
			case 4:
				return float64(rng.Intn(3)) * fixed
			default:
				return rng.Float64() * 1e-6 * float64(rng.Intn(3))
			}
		}
		var schedule func(d float64, how int) *event
		schedule = func(d float64, how int) *event {
			x := &event{id: len(events), child: -1}
			events = append(events, x)
			// Whether and how a fired event schedules a child is drawn
			// now, so the reference can replay it without the RNG.
			if rng.Intn(3) == 0 {
				x.hasChild, x.childD, x.childHow = true, gap(), rng.Intn(3)
			}
			fire := func() {
				gotFired = append(gotFired, x.id)
				x.done = true
				if x.hasChild {
					x.child = schedule(x.childD, x.childHow).id
				}
			}
			switch how {
			case 0:
				x.ev = eng.After(d, fire)
			case 1:
				x.ev = eng.At(eng.Now()+d, fire)
			default:
				x.ev = eng.AfterEvent(d, handlerFunc(fire), 0, nil)
			}
			x.at = x.ev.At()
			return x
		}
		// refFire replays a fired event's callback on the reference:
		// the engine ran first, so the child already exists.
		var refFire func(re *refEvent)
		refFire = func(re *refEvent) {
			wantFired = append(wantFired, re.id)
			if x := events[re.id]; x.hasChild {
				c := events[x.child]
				c.re = ref.at(c.at, c.id)
			}
		}

		for step := 0; step < 400; step++ {
			var op string
			switch r := rng.Intn(20); {
			case r < 7:
				op = "schedule"
				x := schedule(gap(), rng.Intn(3))
				x.re = ref.at(x.at, x.id)
			case r < 9:
				op = "cancel"
				var live []*event
				for _, x := range events {
					if !x.done {
						live = append(live, x)
					}
				}
				if len(live) > 0 {
					x := live[rng.Intn(len(live))]
					x.ev.Cancel()
					x.re.cancelled = true
					x.done = true
				}
			case r < 14:
				op = "step"
				if got, want := eng.Step(), ref.pop(refFire); got != want {
					t.Fatalf("trial %d op %d: Step = %v, reference %v", trial, step, got, want)
				}
			case r < 16:
				op = "peek"
				got, ok := eng.NextEventTime()
				want := ref.peek()
				if ok != (want != nil) || (want != nil && got != want.at) {
					t.Fatalf("trial %d op %d: NextEventTime = %v,%v, reference %+v", trial, step, got, ok, want)
				}
			case r < 18:
				op = "rununtil"
				until := eng.Now() + float64(rng.Intn(3))*fixed + rng.Float64()*1e-6
				eng.RunUntil(until)
				ref.runUntil(until, refFire)
			case r < 19:
				op = "setdelay"
				fixed = delays[rng.Intn(len(delays))]
				eng.SetFixedDelay(fixed)
			default:
				op = "reset"
				eng.Reset()
				ref = &refEngine{}
				for _, x := range events {
					x.done = true
				}
				if rng.Intn(2) == 0 {
					fixed = delays[rng.Intn(len(delays))]
					eng.SetFixedDelay(fixed)
				}
			}
			if len(gotFired) != len(wantFired) {
				t.Fatalf("trial %d op %d (%s): fired %v, reference %v", trial, step, op, gotFired, wantFired)
			}
			for i := range gotFired {
				if gotFired[i] != wantFired[i] {
					t.Fatalf("trial %d op %d (%s): fired %v, reference %v", trial, step, op, gotFired, wantFired)
				}
			}
			if eng.Now() != ref.now || eng.Processed() != ref.processed || eng.Pending() != len(ref.pq) {
				t.Fatalf("trial %d op %d (%s): engine now=%v processed=%d pending=%d, reference now=%v processed=%d pending=%d",
					trial, step, op, eng.Now(), eng.Processed(), eng.Pending(), ref.now, ref.processed, len(ref.pq))
			}
		}
	}
}

type handlerFunc func()

func (f handlerFunc) OnEvent(int, any) { f() }
