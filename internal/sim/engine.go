// Package sim implements a deterministic discrete-event simulation
// engine with a virtual clock measured in seconds.
//
// The engine is the substrate that replaces real hardware threads in
// this reproduction: all runtime activity (task execution, work
// stealing, DVFS transitions, power-sensor sampling) is expressed as
// events in virtual time, which removes any interference from the Go
// garbage collector or goroutine scheduler and makes every experiment
// bit-for-bit reproducible.
//
// Events fire in (time, sequence) order. The queue holds them in three
// places: a FIFO lane for events due now (zero-delay wakes), a FIFO
// lane for events due the caller's fixed delay from now (SetFixedDelay;
// the runtime's per-task dispatch cost), and an inlined, monomorphic
// 4-ary min-heap for everything else. The clock never runs backwards
// and float addition is monotone, so each lane is already sorted by
// (time, sequence); popping the least of the heap top and the two lane
// heads therefore yields exactly the order one heap would. Fired events
// are recycled through a free list and the lanes' rings are reused, so
// steady-state scheduling via At/After (and the closure-free
// AtEvent/AfterEvent) performs no allocations.
package sim

import (
	"fmt"
	"math"
)

// Handler receives events scheduled with AtEvent/AfterEvent. Using a
// long-lived Handler plus the (i0, p0) payload avoids allocating a
// fresh closure per scheduled event on the simulation hot path; i0
// typically carries a core or cluster index and p0 a pointer payload
// (storing a pointer in an interface value does not allocate).
type Handler interface {
	OnEvent(i0 int, p0 any)
}

// Event is a scheduled callback. Events are ordered by time and, for
// equal times, by scheduling order (FIFO), which keeps the simulation
// deterministic.
//
// Event handles are pooled: a handle is valid until the event fires,
// after which the engine may recycle the Event for a later schedule.
// Holders must drop (or nil out) handles once the event has fired and
// must not Cancel a fired event's handle.
type Event struct {
	at        float64
	seq       uint64
	fn        func()
	h         Handler
	i0        int
	p0        any
	cancelled bool
}

// At returns the virtual time at which the event fires.
func (e *Event) At() float64 { return e.at }

// Cancel prevents the event from firing. Cancelling an already-
// cancelled event is a no-op; cancelling after the event has fired is
// invalid (the handle may have been recycled).
func (e *Event) Cancel() { e.cancelled = true }

// Cancelled reports whether Cancel was called.
func (e *Event) Cancelled() bool { return e.cancelled }

// Engine is a single-threaded discrete-event executor. The zero value
// is ready to use at time 0.
type Engine struct {
	now       float64
	seq       uint64
	pq        []*Event // 4-ary min-heap ordered by (at, seq)
	lanes     [2]lane  // events due at now; events due at now+delay
	delay     float64  // lane 1's fixed delay
	free      []*Event // recycled events
	processed uint64
}

// heapSrc identifies the heap to next/take; lanes are 0 and 1.
const heapSrc = -1

// lane is a growable FIFO ring of events scheduled in (at, seq) order.
type lane struct {
	buf  []*Event // len is zero or a power of two
	head int
	n    int
}

func (l *lane) push(ev *Event) {
	if l.n == len(l.buf) {
		buf := make([]*Event, max(2*len(l.buf), 64))
		for i := 0; i < l.n; i++ {
			buf[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
		}
		l.buf, l.head = buf, 0
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = ev
	l.n++
}

func (l *lane) pop() *Event {
	ev := l.buf[l.head]
	l.buf[l.head] = nil
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	return ev
}

// New returns an engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events processed so far: fired live
// events plus reaped cancelled ones — every event that left the queue,
// each counted exactly once.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events currently scheduled (including
// cancelled events not yet reaped).
func (e *Engine) Pending() int { return len(e.pq) + e.lanes[0].n + e.lanes[1].n }

// SetFixedDelay tells the engine the delay its caller schedules most
// events with (the runtime's per-task dispatch cost): an event due
// exactly that long after Now then joins a FIFO lane instead of the
// heap. It changes no result — events fire in the same (time,
// sequence) order either way — only what scheduling costs. Events
// already in that lane move to the heap when the delay changes, so the
// lane stays sorted.
func (e *Engine) SetFixedDelay(d float64) {
	if d == e.delay {
		return
	}
	for l := &e.lanes[1]; l.n > 0; {
		e.push(l.pop())
	}
	e.delay = d
}

// less orders events by (time, sequence). The sequence tiebreak makes
// the order a strict total order, so any correct heap pops events in
// exactly the same sequence.
func less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// next returns the least queued event and where it is queued (a lane
// index or heapSrc), or nil when the queue is empty.
func (e *Engine) next() (*Event, int) {
	var min *Event
	src := heapSrc
	if len(e.pq) > 0 {
		min = e.pq[0]
	}
	for i := range e.lanes {
		if l := &e.lanes[i]; l.n > 0 {
			if ev := l.buf[l.head]; min == nil || less(ev, min) {
				min, src = ev, i
			}
		}
	}
	return min, src
}

// take removes the head of src, as returned by next.
func (e *Engine) take(src int) {
	if src == heapSrc {
		e.pop()
	} else {
		e.lanes[src].pop()
	}
}

// push inserts ev into the 4-ary heap (sift-up).
func (e *Engine) push(ev *Event) {
	pq := append(e.pq, ev)
	i := len(pq) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !less(pq[i], pq[parent]) {
			break
		}
		pq[i], pq[parent] = pq[parent], pq[i]
		i = parent
	}
	e.pq = pq
}

// pop removes and returns the heap's minimum event (sift-down), or nil.
func (e *Engine) pop() *Event {
	pq := e.pq
	n := len(pq)
	if n == 0 {
		return nil
	}
	top := pq[0]
	last := pq[n-1]
	pq[n-1] = nil
	pq = pq[:n-1]
	n--
	if n > 0 {
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			min := first
			end := first + 4
			if end > n {
				end = n
			}
			for c := first + 1; c < end; c++ {
				if less(pq[c], pq[min]) {
					min = c
				}
			}
			if !less(pq[min], last) {
				break
			}
			pq[i] = pq[min]
			i = min
		}
		pq[i] = last
	}
	e.pq = pq
	return top
}

// alloc takes an Event from the free list or the heap (the Go one).
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{}
}

// release drops an event's closure/payload references and returns it
// to the free list for reuse. The cancelled flag survives until the
// event is recycled, so Cancelled() stays queryable on a handle whose
// event was reaped.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	ev.h = nil
	ev.p0 = nil
	e.free = append(e.free, ev)
}

// schedule validates t and enqueues a recycled event: in lane 0 when
// it is due now, in lane 1 when it is due the fixed delay from now,
// otherwise in the heap.
func (e *Engine) schedule(t float64) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %.9fs before now %.9fs", t, e.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: schedule at non-finite time %v", t))
	}
	ev := e.alloc()
	ev.at = t
	ev.cancelled = false
	ev.seq = e.seq
	e.seq++
	switch {
	case t == e.now:
		e.lanes[0].push(ev)
	case t == e.now+e.delay:
		e.lanes[1].push(ev)
	default:
		e.push(ev)
	}
	return ev
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past (t < Now) panics: it would silently corrupt causality.
func (e *Engine) At(t float64, fn func()) *Event {
	ev := e.schedule(t)
	ev.fn = fn
	return ev
}

// After schedules fn to run d seconds from now. Negative d is clamped
// to zero.
func (e *Engine) After(d float64, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// AtEvent schedules h.OnEvent(i0, p0) at absolute virtual time t
// without allocating a closure.
func (e *Engine) AtEvent(t float64, h Handler, i0 int, p0 any) *Event {
	ev := e.schedule(t)
	ev.h = h
	ev.i0 = i0
	ev.p0 = p0
	return ev
}

// AfterEvent schedules h.OnEvent(i0, p0) d seconds from now without
// allocating a closure. Negative d is clamped to zero.
func (e *Engine) AfterEvent(d float64, h Handler, i0 int, p0 any) *Event {
	if d < 0 {
		d = 0
	}
	return e.AtEvent(e.now+d, h, i0, p0)
}

// Reset rewinds the engine to time 0 for another simulation: pending
// events (fired or not) are drained into the free list and the clock,
// sequence counter and processed count start over. The pooled events
// and the heap's backing array are retained, so a reset engine
// schedules its first events without allocating. Handles to drained
// events are invalid after Reset, exactly as after firing. The fixed
// delay is configuration and survives Reset.
func (e *Engine) Reset() {
	for i, ev := range e.pq {
		e.release(ev)
		e.pq[i] = nil
	}
	e.pq = e.pq[:0]
	for i := range e.lanes {
		for l := &e.lanes[i]; l.n > 0; {
			e.release(l.pop())
		}
	}
	e.now = 0
	e.seq = 0
	e.processed = 0
}

// Step processes the next queued event and returns false if no events
// remain. A live event advances the clock and fires its callback; a
// cancelled event is reaped (released without firing, clock
// unchanged). Both count as exactly one processed step — one pop, one
// event — so Processed is a pure function of the schedule/cancel
// sequence the simulation produced, never of which loop (Run,
// RunLimit, RunUntil) happened to drain the queue.
func (e *Engine) Step() bool {
	ev, src := e.next()
	if ev == nil {
		return false
	}
	e.take(src)
	e.processed++
	if ev.cancelled {
		e.release(ev)
		return true
	}
	e.now = ev.at
	fn, h, i0, p0 := ev.fn, ev.h, ev.i0, ev.p0
	e.release(ev)
	if h != nil {
		h.OnEvent(i0, p0)
	} else {
		fn()
	}
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with firing time <= t, then advances the
// clock to exactly t (even if no event fired at t).
func (e *Engine) RunUntil(t float64) {
	for {
		ev := e.peek()
		if ev == nil || ev.at > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunLimit processes at most n events (cancelled reaps included, like
// Step); it returns the number processed. The runtime's cooperative
// cancel poll uses it as a bounded work quantum; tests use it as a
// runaway guard.
func (e *Engine) RunLimit(n uint64) uint64 {
	var done uint64
	for done < n && e.Step() {
		done++
	}
	return done
}

func (e *Engine) peek() *Event {
	for {
		ev, src := e.next()
		if ev == nil || !ev.cancelled {
			return ev
		}
		// Reaping here is the same unit of work as reaping in Step;
		// count it so Processed does not depend on whether a peek or a
		// Step drained the cancelled head.
		e.take(src)
		e.processed++
		e.release(ev)
	}
}

// NextEventTime returns the firing time of the next live event and
// true, or 0 and false if the queue is empty.
func (e *Engine) NextEventTime() (float64, bool) {
	ev := e.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}
