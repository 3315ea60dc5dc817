package taskrt

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"joss/internal/dag"
	"joss/internal/platform"
)

// cancelGraph is big enough that a full simulation executes many poll
// batches — the latency bound below is meaningless on a graph that
// finishes within one batch.
func cancelGraph(name string) *dag.Graph {
	return dag.Chains(name, demand(5e6, 5e5), 8, 100)
}

func cancelOptions(c *atomic.Bool) Options {
	opt := DefaultOptions()
	opt.Cancel = c
	return opt
}

// TestCancelBoundedLatency proves the cooperative cancel's latency
// bound in simulated events: once the flag is set, the runtime
// executes at most CancelPollEvents further events before unwinding,
// on a run whose full length is many times that bound.
func TestCancelBoundedLatency(t *testing.T) {
	// Reference: the uncancelled run's event count and makespan.
	ref := New(platform.DefaultOracle(), &fixedSched{dec: maxDec(platform.A57, 1)}, DefaultOptions())
	rep := ref.Run(cancelGraph("cancel-ref"))
	total := ref.Eng.Processed()
	if total < 4*CancelPollEvents {
		t.Fatalf("reference run executed %d events, need ≥ %d for a meaningful bound",
			total, 4*CancelPollEvents)
	}

	var flag atomic.Bool
	rt := New(platform.DefaultOracle(), &fixedSched{dec: maxDec(platform.A57, 1)}, cancelOptions(&flag))
	var atTrip uint64
	g := cancelGraph("cancel-latency")
	// Trip the flag from inside the simulation at mid-makespan and
	// record how many events had executed at that instant.
	rt.After(rep.MakespanSec/2, func() {
		atTrip = rt.Eng.Processed()
		flag.Store(true)
	})
	out := rt.Run(g)
	if !rt.Interrupted() {
		t.Fatal("runtime not interrupted by cancel flag")
	}
	if out.MakespanSec != 0 || out.Samples != 0 {
		t.Errorf("aborted report carries measurements: %+v", out)
	}
	if atTrip == 0 {
		t.Fatal("cancel callback never fired")
	}
	after := rt.Eng.Processed() - atTrip
	if after > CancelPollEvents {
		t.Errorf("executed %d events after cancel, bound is %d", after, CancelPollEvents)
	}
	if rt.Eng.Processed() >= total {
		t.Errorf("cancelled run executed %d events, full run only %d — no early exit",
			rt.Eng.Processed(), total)
	}
}

// TestCancelBeforeRunAbortsImmediately: a flag already set when Run is
// called aborts before executing a single event.
func TestCancelBeforeRunAbortsImmediately(t *testing.T) {
	var flag atomic.Bool
	flag.Store(true)
	rt := New(platform.DefaultOracle(), &fixedSched{dec: maxDec(platform.A57, 1)}, cancelOptions(&flag))
	g := cancelGraph("cancel-early")
	rt.Run(g)
	if !rt.Interrupted() {
		t.Fatal("runtime not interrupted")
	}
	if n := rt.Eng.Processed(); n != 0 {
		t.Errorf("executed %d events despite pre-set cancel", n)
	}
}

// TestCancelResetEquivalence: after an aborted run, Reset restores the
// runtime to a state that reproduces a fresh runtime's report byte for
// byte — the abort left no residue in the engine, machine, pools or
// oracle memo.
func TestCancelResetEquivalence(t *testing.T) {
	want := New(platform.DefaultOracle(), &fixedSched{dec: maxDec(platform.A57, 1)}, DefaultOptions()).
		Run(cancelGraph("cancel-eq"))

	var flag atomic.Bool
	rt := New(platform.DefaultOracle(), &fixedSched{dec: maxDec(platform.A57, 1)}, cancelOptions(&flag))
	g := cancelGraph("cancel-eq")
	rt.After(want.MakespanSec/3, func() { flag.Store(true) })
	rt.Run(g)
	if !rt.Interrupted() {
		t.Fatal("first run not interrupted")
	}

	flag.Store(false)
	rt.Sched = &fixedSched{dec: maxDec(platform.A57, 1)}
	rt.Reset(g)
	got := rt.Run(g)
	if rt.Interrupted() {
		t.Fatal("rerun reported interrupted")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-abort rerun diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestCancelFromGoroutine is the -race coverage: the flag is flipped
// from another goroutine while the event loop runs. Whichever way the
// race falls, the runtime must end Reset-able and bit-identical on
// rerun.
func TestCancelFromGoroutine(t *testing.T) {
	want := New(platform.DefaultOracle(), &fixedSched{dec: maxDec(platform.A57, 1)}, DefaultOptions()).
		Run(cancelGraph("cancel-race"))

	var flag atomic.Bool
	rt := New(platform.DefaultOracle(), &fixedSched{dec: maxDec(platform.A57, 1)}, cancelOptions(&flag))
	g := cancelGraph("cancel-race")
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(2 * time.Millisecond)
		flag.Store(true)
	}()
	first := rt.Run(g)
	<-done
	if !rt.Interrupted() && !reflect.DeepEqual(first, want) {
		t.Errorf("completed run diverged:\n got %+v\nwant %+v", first, want)
	}

	flag.Store(false)
	rt.Sched = &fixedSched{dec: maxDec(platform.A57, 1)}
	rt.Reset(g)
	if got := rt.Run(g); !reflect.DeepEqual(got, want) {
		t.Errorf("rerun after racy cancel diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestCancelPollYieldsNestedRun: Options.Yield runs at the cancel
// poll. A whole run on another runtime executed inside it leaves both
// reports bit-identical to undisturbed runs, and a cancel set inside
// Yield aborts the parked run before it executes another event.
func TestCancelPollYieldsNestedRun(t *testing.T) {
	o := platform.DefaultOracle()
	newSched := func() Scheduler { return &fixedSched{dec: maxDec(platform.A57, 1)} }
	wantOuter := New(o, newSched(), DefaultOptions()).Run(cancelGraph("yield-outer"))
	wantInner := New(o, newSched(), DefaultOptions()).Run(dag.Chains("yield-inner", demand(1e6, 1e5), 2, 20))

	var flag atomic.Bool
	inner := New(o, newSched(), DefaultOptions())
	innerG := dag.Chains("yield-inner", demand(1e6, 1e5), 2, 20)
	var gotInner Report
	polls := 0
	opt := cancelOptions(&flag)
	opt.Yield = func() {
		polls++
		if polls == 2 {
			gotInner = inner.Run(innerG)
		}
	}
	gotOuter := New(o, newSched(), opt).Run(cancelGraph("yield-outer"))
	if polls < 3 {
		t.Fatalf("Yield called %d times, want the nested run to sit mid-simulation", polls)
	}
	if !reflect.DeepEqual(gotOuter, wantOuter) {
		t.Errorf("parked run's report changed:\n got %+v\nwant %+v", gotOuter, wantOuter)
	}
	if !reflect.DeepEqual(gotInner, wantInner) {
		t.Errorf("nested run's report changed:\n got %+v\nwant %+v", gotInner, wantInner)
	}

	var cancel atomic.Bool
	yields := 0
	opt = cancelOptions(&cancel)
	opt.Yield = func() {
		yields++
		cancel.Store(true)
	}
	rt := New(o, newSched(), opt)
	rt.Run(cancelGraph("yield-cancel"))
	if !rt.Interrupted() || yields != 1 || rt.Eng.Processed() != CancelPollEvents {
		t.Errorf("cancel inside Yield: interrupted %v after %d yields and %d events, want true, 1, %d",
			rt.Interrupted(), yields, rt.Eng.Processed(), CancelPollEvents)
	}
}
