package exp

import (
	"reflect"
	"testing"

	"joss/internal/sched"
	"joss/internal/taskrt"
	"joss/internal/workloads"
)

// reuseEnv builds one small environment shared by the reuse tests.
func reuseEnv(t *testing.T) *Env {
	t.Helper()
	e, err := NewEnv(0.02)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestRuntimeResetEquivalence is the correctness bar for the reusable
// sweep executor: for every scheduler, a Runtime that already executed
// a different workload and was rewound with Reset must produce a
// Report byte-for-byte identical to a fresh Runtime's — same RNG
// draws, same event order, same floating-point operations, same
// per-kernel stats.
func TestRuntimeResetEquivalence(t *testing.T) {
	e := reuseEnv(t)
	const scale = 0.02
	for _, sn := range SchedulerNames {
		t.Run(sn, func(t *testing.T) {
			opt := taskrt.DefaultOptions()
			opt.Seed = e.Seed

			fresh := taskrt.New(e.Oracle, e.NewScheduler(sn), opt)
			want := fresh.Run(workloads.SLU(scale))

			// The reused runtime first runs a different workload (VG has
			// different kernels, frequencies and DVFS history), then is
			// rewound and pointed at SLU.
			reused := taskrt.New(e.Oracle, e.NewScheduler(sn), opt)
			reused.Run(workloads.VG(scale))
			reused.Sched = e.NewScheduler(sn)
			reused.Opt.Seed = e.Seed
			g := workloads.SLU(scale)
			reused.Reset(g)
			got := reused.Run(g)

			if !reflect.DeepEqual(want, got) {
				t.Errorf("reset-reused report differs from fresh:\nfresh: %+v\nreused: %+v", want, got)
			}

			// A second rewind over the same graph must reproduce it again
			// (pools, memo retention and arena state must not drift).
			reused.Sched = e.NewScheduler(sn)
			reused.Reset(g)
			again := reused.Run(g)
			if !reflect.DeepEqual(want, again) {
				t.Errorf("second reset run differs from fresh:\nfresh: %+v\nagain: %+v", want, again)
			}
		})
	}
}

// TestBuildReuseEquivalence proves graph-arena recycling is invisible:
// a workload rebuilt into another workload's recycled graph must
// execute identically to a freshly built one.
func TestBuildReuseEquivalence(t *testing.T) {
	e := reuseEnv(t)
	const scale = 0.02
	var sluCfg, vgCfg workloads.Config
	for _, c := range workloads.Fig8Configs() {
		switch c.Name {
		case "SLU":
			sluCfg = c
		case "VG":
			vgCfg = c
		}
	}

	want := e.Run("JOSS", sluCfg.Build(scale))

	g := vgCfg.Build(scale)
	g = sluCfg.BuildReuse(g, scale) // recycle VG's arenas into SLU
	if err := g.Validate(); err != nil {
		t.Fatalf("reused graph invalid: %v", err)
	}
	got := e.Run("JOSS", g)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("run on arena-reused graph differs:\nfresh: %+v\nreused: %+v", want, got)
	}
}

// TestResetThenRebuildSameKernelCount guards the in-place-rebuild
// trap: HT_Small and HT_Big register the same two kernel names (Copy,
// Jacobi) with different demands, so a Runtime Reset against the old
// build must still reconcile its oracle memo when the graph is rebuilt
// in place before Run — serving HT_Small's memoized timings for
// HT_Big would be silently wrong.
func TestResetThenRebuildSameKernelCount(t *testing.T) {
	e := reuseEnv(t)
	const scale = 0.02
	var small, big workloads.Config
	for _, c := range workloads.Fig8Configs() {
		switch c.Name {
		case "HT_Small":
			small = c
		case "HT_Big":
			big = c
		}
	}
	want := e.Run("GRWS", big.Build(scale))

	opt := taskrt.DefaultOptions()
	opt.Seed = e.Seed
	rt := taskrt.New(e.Oracle, sched.NewGRWS(), opt)
	g := small.Build(scale)
	rt.Run(g)
	rt.Sched = sched.NewGRWS()
	rt.Reset(g)                  // reconciled against HT_Small's kernels
	g = big.BuildReuse(g, scale) // same pointer, same kernel count, new demands
	got := rt.Run(g)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("in-place rebuilt graph served stale memo:\nfresh: %+v\nreused: %+v", want, got)
	}
}

// TestWarmWorkerAllocs asserts the point of the PR: a warm worker
// (reset-reused Runtime, arena-reused graph) runs a full simulation
// with allocations well below the ~422/op a cold Runtime pays for
// setup.
func TestWarmWorkerAllocs(t *testing.T) {
	e := reuseEnv(t)
	g := workloads.SLU(0.05)
	rt := taskrt.New(e.Oracle, sched.NewGRWS(), taskrt.DefaultOptions())
	rt.Run(g) // warm pools, memo and arenas
	var cfg workloads.Config
	for _, c := range workloads.Fig8Configs() {
		if c.Name == "SLU" {
			cfg = c
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		g = cfg.BuildReuse(g, 0.05)
		rt.Sched = sched.NewGRWS()
		rt.Reset(g)
		rt.Run(g)
	})
	// Warm iterations still pay the scheduler constructor and the
	// report's per-kernel stats — tens of allocations, not the
	// ~422 of a cold start.
	t.Logf("warm worker run: %.0f allocs (cold start was ~422)", allocs)
	if allocs > 60 {
		t.Errorf("warm worker run = %.0f allocs, want <= 60", allocs)
	}
}

// TestSweepWorkerPoolMatchesSerial proves cell results are independent
// of worker count: a sweep at Parallel=1 and one at Parallel=4 must
// produce identical reports for every cell.
func TestSweepWorkerPoolMatchesSerial(t *testing.T) {
	e := reuseEnv(t)
	e.Repeats = 2
	mkJobs := func() []sweepJob {
		var jobs []sweepJob
		for _, wl := range workloads.Fig8Configs() {
			switch wl.Name {
			case "SLU", "VG", "MM_256_dop4":
				for _, sn := range []string{"GRWS", "JOSS"} {
					sn := sn
					jobs = append(jobs, sweepJob{wl: wl, label: sn,
						mk: func() taskrt.Scheduler { return e.NewScheduler(sn) }})
				}
			}
		}
		return jobs
	}
	e.Parallel = 1
	serial := e.sweep(mkJobs())
	e.Parallel = 4
	pooled := e.sweep(mkJobs())
	if !reflect.DeepEqual(serial, pooled) {
		t.Errorf("worker pool changed sweep results:\nserial: %+v\npooled: %+v", serial, pooled)
	}
}

// TestSweepRejectsInvalidEnv asserts the explicit validation of
// Parallel and Repeats (no more silent clamping).
func TestSweepRejectsInvalidEnv(t *testing.T) {
	e := reuseEnv(t)
	job := []sweepJob{{wl: workloads.Fig8Configs()[8], label: "GRWS",
		mk: func() taskrt.Scheduler { return e.NewScheduler("GRWS") }}}
	for _, tc := range []struct{ parallel, repeats int }{
		{0, 1}, {-1, 1}, {1, 0}, {1, -3},
	} {
		e.Parallel, e.Repeats = tc.parallel, tc.repeats
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("sweep accepted Parallel=%d Repeats=%d", tc.parallel, tc.repeats)
				}
			}()
			e.sweep(job)
		}()
	}
}

// TestCrossSweepPlanSharing exercises the goal/constraint-keyed cache
// end to end: two sweeps on one Env with SharePlans reuse trained
// plans (the second sweep samples nothing new), and plans are keyed so
// JOSS and JOSS_NoMemDVFS never collide.
func TestCrossSweepPlanSharing(t *testing.T) {
	e := reuseEnv(t)
	e.SharePlans = true
	e.Parallel = 2
	var mm workloads.Config
	for _, c := range workloads.Fig8Configs() {
		if c.Name == "MM_256_dop4" {
			mm = c
		}
	}
	jobs := func() []sweepJob {
		var out []sweepJob
		for _, sn := range []string{"JOSS", "JOSS_NoMemDVFS"} {
			sn := sn
			out = append(out, sweepJob{wl: mm, label: sn,
				mk: func() taskrt.Scheduler { return e.NewScheduler(sn) }})
		}
		return out
	}
	e.sweep(jobs())
	trained := e.Plans.Len()
	if trained < 2 {
		t.Fatalf("expected >= 2 cached plans (one per scheduler), got %d", trained)
	}
	// The same cells again: every kernel already has a plan, so no new
	// entries appear and runs complete (adopted plans skip sampling).
	rep := e.sweep(jobs())
	if e.Plans.Len() != trained {
		t.Errorf("second sweep grew the plan cache: %d -> %d", trained, e.Plans.Len())
	}
	for _, m := range rep["MM_256_dop4"] {
		if m.Stats.TasksExecuted == 0 {
			t.Error("plan-adopting sweep lost tasks")
		}
	}
	// Keyed separation: JOSS and JOSS_NoMemDVFS trained the same
	// mm_tile kernel but hold distinct cache entries — that is exactly
	// why Plans.Len() >= 2 above rather than 1.
}
