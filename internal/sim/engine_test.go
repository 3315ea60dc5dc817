package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroValueReady(t *testing.T) {
	var e Engine
	if e.Now() != 0 {
		t.Fatalf("zero engine Now = %v, want 0", e.Now())
	}
	fired := false
	e.After(1.5, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("event did not fire")
	}
	if e.Now() != 1.5 {
		t.Fatalf("Now = %v, want 1.5", e.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(3, func() { got = append(got, 3) })
	e.At(1, func() { got = append(got, 1) })
	e.At(2, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fired order %v, want [1 2 3]", got)
	}
}

func TestFIFOAtEqualTimes(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1.0, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events out of order: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.At(1, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	e := New()
	fired := false
	ev := e.At(2, func() { fired = true })
	e.At(1, func() { ev.Cancel() })
	e.Run()
	if fired {
		t.Fatal("event fired despite cancellation at t=1")
	}
}

func TestSchedulingInsideEvent(t *testing.T) {
	e := New()
	var order []string
	e.At(1, func() {
		order = append(order, "a")
		e.After(1, func() { order = append(order, "c") })
		e.After(0.5, func() { order = append(order, "b") })
	})
	e.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.At(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(1, func() {})
}

func TestNegativeAfterClamped(t *testing.T) {
	e := New()
	e.At(5, func() {
		fired := false
		e.After(-3, func() { fired = true })
		_ = fired
	})
	e.Run() // must not panic
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []float64
	for _, ti := range []float64{1, 2, 3, 4} {
		ti := ti
		e.At(ti, func() { fired = append(fired, ti) })
	}
	e.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want 2 events", fired)
	}
	if e.Now() != 2.5 {
		t.Fatalf("Now = %v, want 2.5", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %v, want all 4 after Run", fired)
	}
}

func TestRunUntilAdvancesClockWithEmptyQueue(t *testing.T) {
	e := New()
	e.RunUntil(7)
	if e.Now() != 7 {
		t.Fatalf("Now = %v, want 7", e.Now())
	}
}

func TestRunLimit(t *testing.T) {
	e := New()
	n := 0
	var self func()
	self = func() {
		n++
		e.After(1, self)
	}
	e.After(1, self)
	done := e.RunLimit(100)
	if done != 100 || n != 100 {
		t.Fatalf("RunLimit executed %d (n=%d), want 100", done, n)
	}
}

func TestProcessedAndPending(t *testing.T) {
	e := New()
	e.At(1, func() {})
	e.At(2, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if e.Processed() != 2 {
		t.Fatalf("Processed = %d, want 2", e.Processed())
	}
}

func TestNextEventTime(t *testing.T) {
	e := New()
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("NextEventTime on empty queue returned ok")
	}
	ev := e.At(3, func() {})
	e.At(5, func() {})
	if tt, ok := e.NextEventTime(); !ok || tt != 3 {
		t.Fatalf("NextEventTime = %v,%v want 3,true", tt, ok)
	}
	ev.Cancel()
	if tt, ok := e.NextEventTime(); !ok || tt != 5 {
		t.Fatalf("NextEventTime after cancel = %v,%v want 5,true", tt, ok)
	}
}

// Property: events always fire in nondecreasing time order, regardless
// of insertion order.
func TestPropertyMonotonicFiring(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		count := int(n%64) + 1
		times := make([]float64, count)
		var fired []float64
		for i := range times {
			times[i] = rng.Float64() * 100
			ti := times[i]
			e.At(ti, func() { fired = append(fired, ti) })
		}
		e.Run()
		if len(fired) != count {
			return false
		}
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		sort.Float64s(times)
		for i := range times {
			if fired[i] != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the clock never goes backwards while stepping.
func TestPropertyClockMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		for i := 0; i < 50; i++ {
			e.At(rng.Float64()*10, func() {
				if rng.Intn(2) == 0 {
					e.After(rng.Float64(), func() {})
				}
			})
		}
		last := 0.0
		for e.Step() {
			if e.Now() < last {
				return false
			}
			last = e.Now()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	e := New()
	var fired []int
	e.After(1, func() { fired = append(fired, 1) })
	e.After(2, func() { fired = append(fired, 2) })
	e.Step()
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Processed() != 0 {
		t.Fatalf("reset engine not pristine: now=%v pending=%d processed=%d",
			e.Now(), e.Pending(), e.Processed())
	}
	// The pending event at t=2 died with the queue; only new events fire.
	e.After(3, func() { fired = append(fired, 3) })
	e.Run()
	want := []int{1, 3}
	if len(fired) != 2 || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %v, want 3", e.Now())
	}
}

func TestResetRetainsEventPool(t *testing.T) {
	e := New()
	e.SetFixedDelay(0.5)
	// Warm the pool, the heap's backing array and both lanes' rings
	// (delays 0 and 0.5 go to the lanes, the rest to the heap).
	h := &nopHandler{}
	burst := func() {
		for i := 0; i < 32; i++ {
			e.AfterEvent(float64(i), h, i, nil)
			e.AfterEvent(0, h, i, nil)
			e.AfterEvent(0.5, h, i, nil)
		}
	}
	burst()
	e.Run()
	e.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		e.Reset()
		burst()
		e.Step()
		e.Reset() // drains the lanes and heap into the free list
		burst()
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("reset+schedule+run allocated %.1f/op, want 0", allocs)
	}
}

type nopHandler struct{ n int }

func (h *nopHandler) OnEvent(int, any) { h.n++ }
