package taskrt

import (
	"math"
	"testing"
	"testing/quick"

	"joss/internal/dag"
	"joss/internal/platform"
	"joss/internal/trace"
)

// fixedSched runs every task at one fixed decision; it records
// completion order for dependency checks.
type fixedSched struct {
	dec     Decision
	scope   StealScope
	rt      *Runtime
	done    []ExecRecord
	perTask map[int]Decision // optional per-task override
}

func (s *fixedSched) Name() string          { return "fixed" }
func (s *fixedSched) Attach(rt *Runtime)    { s.rt = rt }
func (s *fixedSched) Scope() StealScope     { return s.scope }
func (s *fixedSched) TaskDone(r ExecRecord) { s.done = append(s.done, r) }
func (s *fixedSched) Decide(t *dag.Task) Decision {
	if d, ok := s.perTask[t.ID]; ok {
		return d
	}
	return s.dec
}

func demand(ops, bytes float64) platform.TaskDemand {
	return platform.TaskDemand{Ops: ops, Bytes: bytes, ParEff: 1, Activity: 0.9, RowHit: 0.7}
}

func maxDec(tc platform.CoreType, nc int) Decision {
	return Decision{
		Placement: platform.Placement{TC: tc, NC: nc},
		SetFreq:   true, FC: platform.MaxFC, FM: platform.MaxFM, ExactFreq: true,
	}
}

func runChain(t *testing.T, s Scheduler, width, depth int) Report {
	t.Helper()
	g := dag.Chains("chain", demand(5e6, 5e5), width, depth)
	rt := New(platform.DefaultOracle(), s, DefaultOptions())
	return rt.Run(g)
}

func TestAllTasksExecuteExactlyOnce(t *testing.T) {
	s := &fixedSched{dec: maxDec(platform.A57, 1)}
	rep := runChain(t, s, 4, 25)
	if rep.Stats.TasksExecuted != 100 {
		t.Fatalf("executed %d tasks, want 100", rep.Stats.TasksExecuted)
	}
	if len(s.done) != 100 {
		t.Fatalf("TaskDone called %d times, want 100", len(s.done))
	}
	seen := make(map[int]bool)
	for _, r := range s.done {
		if seen[r.Task.ID] {
			t.Fatalf("task %d executed twice", r.Task.ID)
		}
		seen[r.Task.ID] = true
	}
}

func TestDependencyOrderRespected(t *testing.T) {
	g := dag.New("deps")
	k := g.AddKernel("k", demand(2e6, 2e5))
	a := g.AddTask(k)
	b := g.AddTask(k, a)
	c := g.AddTask(k, a)
	d := g.AddTask(k, b, c)
	_ = d
	s := &fixedSched{dec: maxDec(platform.A57, 1)}
	rt := New(platform.DefaultOracle(), s, DefaultOptions())
	rt.Run(g)
	end := make(map[int]float64)
	start := make(map[int]float64)
	for _, r := range s.done {
		end[r.Task.ID] = r.EndSec
		start[r.Task.ID] = r.StartSec
	}
	for _, task := range g.Tasks {
		for _, succ := range g.Succs(task.ID) {
			if start[int(succ)] < end[task.ID]-1e-12 {
				t.Fatalf("task %d started %.9f before pred %d ended %.9f",
					succ, start[int(succ)], task.ID, end[task.ID])
			}
		}
	}
}

func TestParallelismSpeedsUp(t *testing.T) {
	// Four independent chains on four A57 cores should be much
	// faster than on one core (stealing spreads the chains).
	s1 := &fixedSched{dec: maxDec(platform.A57, 1)}
	wide := runChain(t, s1, 4, 25)
	s2 := &fixedSched{dec: maxDec(platform.A57, 1)}
	narrow := runChain(t, s2, 1, 100)
	sp := narrow.MakespanSec / wide.MakespanSec
	if sp < 2.5 {
		t.Fatalf("4-chain speedup = %.2f, want ≥ 2.5 (stealing broken?)", sp)
	}
	if wide.Stats.Steals == 0 {
		t.Fatal("no steals happened for 4 independent chains")
	}
}

func TestMoldableExecutionUsesMultipleCores(t *testing.T) {
	s := &fixedSched{dec: maxDec(platform.A57, 4)}
	g := dag.Chains("mold", demand(40e6, 1e6), 1, 10)
	rt := New(platform.DefaultOracle(), s, DefaultOptions())
	rep := rt.Run(g)
	if rep.Stats.Recruitments == 0 {
		t.Fatal("moldable tasks recruited no cores")
	}
	for _, r := range s.done {
		if r.NCActual < 2 {
			t.Fatalf("moldable task ran on %d cores, want ≥2 (idle cluster)", r.NCActual)
		}
	}
	// And moldability must speed up a serial chain.
	s1 := &fixedSched{dec: maxDec(platform.A57, 1)}
	rt1 := New(platform.DefaultOracle(), s1, DefaultOptions())
	rep1 := rt1.Run(dag.Chains("mold", demand(40e6, 1e6), 1, 10))
	if rep1.MakespanSec/rep.MakespanSec < 2 {
		t.Fatalf("moldable speedup = %.2f, want ≥ 2", rep1.MakespanSec/rep.MakespanSec)
	}
}

func TestFrequencyRequestsApplied(t *testing.T) {
	dec := Decision{
		Placement: platform.Placement{TC: platform.Denver, NC: 1},
		SetFreq:   true, FC: 1, FM: 0, ExactFreq: true,
	}
	s := &fixedSched{dec: dec}
	g := dag.Chains("f", demand(20e6, 2e6), 1, 5)
	rt := New(platform.DefaultOracle(), s, DefaultOptions())
	rt.Run(g)
	if got := rt.M.FC(rt.M.ClusterByType(platform.Denver)); got != 1 {
		t.Fatalf("Denver FC = %d, want 1", got)
	}
	if rt.M.FM() != 0 {
		t.Fatalf("FM = %d, want 0", rt.M.FM())
	}
	// Tasks after the first should start at the throttled frequency.
	last := s.done[len(s.done)-1]
	if last.FCStart != 1 || last.FMStart != 0 {
		t.Fatalf("last task started at fc=%d fm=%d, want 1,0", last.FCStart, last.FMStart)
	}
}

func TestLowFrequencySlowsExecution(t *testing.T) {
	mk := func(fc, fm int) float64 {
		dec := Decision{
			Placement: platform.Placement{TC: platform.A57, NC: 1},
			SetFreq:   true, FC: fc, FM: fm, ExactFreq: true,
		}
		s := &fixedSched{dec: dec}
		rt := New(platform.DefaultOracle(), s, DefaultOptions())
		return rt.Run(dag.Chains("lf", demand(10e6, 2e6), 1, 20)).MakespanSec
	}
	fast := mk(platform.MaxFC, platform.MaxFM)
	slow := mk(0, 0)
	if slow < fast*2 {
		t.Fatalf("lowest frequencies: %.4g vs %.4g, want ≥2× slower", slow, fast)
	}
}

func TestEnergyAccountingSane(t *testing.T) {
	s := &fixedSched{dec: maxDec(platform.A57, 1)}
	rep := runChain(t, s, 2, 50)
	if rep.Exact.TotalJ() <= 0 {
		t.Fatal("no energy accounted")
	}
	// Sensor should be close to exact for a run much longer than 5 ms.
	if rep.MakespanSec > 0.1 {
		relC := math.Abs(rep.Sensor.CPUJ/rep.Exact.CPUJ - 1)
		if relC > 0.10 {
			t.Fatalf("sensor CPU energy off by %.1f%%", relC*100)
		}
	}
	// Average power must be within the TX2 envelope (~<8 W total).
	avgW := rep.Exact.TotalJ() / rep.MakespanSec
	if avgW < 0.5 || avgW > 8 {
		t.Fatalf("average power %.2f W outside TX2 envelope", avgW)
	}
}

func TestFrequencyCoordinationMean(t *testing.T) {
	// Two concurrent tasks on the same cluster requesting opposite
	// frequency extremes: with CoordMean the second request is
	// averaged with the then-current frequency.
	g := dag.New("coord")
	kHi := g.AddKernel("hi", demand(80e6, 1e6))
	kLo := g.AddKernel("lo", demand(80e6, 1e6))
	g.AddTask(kHi)
	g.AddTask(kLo)
	s := &fixedSched{
		dec: maxDec(platform.A57, 1),
		perTask: map[int]Decision{
			0: {Placement: platform.Placement{TC: platform.A57, NC: 1}, SetFreq: true, FC: platform.MaxFC, FM: platform.MaxFM},
			1: {Placement: platform.Placement{TC: platform.A57, NC: 1}, SetFreq: true, FC: 0, FM: platform.MaxFM},
		},
	}
	opt := DefaultOptions()
	rt := New(platform.DefaultOracle(), s, opt)
	rt.Run(g)
	// Final A57 frequency: the last-started task wanted index 0 but
	// coordination with the running task (at max) must have pulled it
	// toward the middle — i.e. not 0.
	if got := rt.M.FC(rt.M.ClusterByType(platform.A57)); got == 0 {
		t.Fatalf("coordination did not average: FC = %d", got)
	}
}

func TestCoordOverrideAppliesExactly(t *testing.T) {
	g := dag.New("coord2")
	kHi := g.AddKernel("hi", demand(80e6, 1e6))
	kLo := g.AddKernel("lo", demand(80e6, 1e6))
	g.AddTask(kHi)
	g.AddTask(kLo)
	s := &fixedSched{
		dec: maxDec(platform.A57, 1),
		perTask: map[int]Decision{
			0: {Placement: platform.Placement{TC: platform.A57, NC: 1}, SetFreq: true, FC: platform.MaxFC, FM: platform.MaxFM},
			1: {Placement: platform.Placement{TC: platform.A57, NC: 1}, SetFreq: true, FC: 0, FM: platform.MaxFM},
		},
	}
	opt := DefaultOptions()
	opt.Coord = CoordOverride
	rt := New(platform.DefaultOracle(), s, opt)
	rt.Run(g)
	if got := rt.M.FC(rt.M.ClusterByType(platform.A57)); got != 0 {
		t.Fatalf("override mode: FC = %d, want 0 (last request)", got)
	}
}

func TestStealScopeSameTypeRespected(t *testing.T) {
	// All tasks placed on Denver with same-type stealing: none may
	// execute on A57.
	s := &fixedSched{dec: maxDec(platform.Denver, 1), scope: StealSameType}
	rep := runChain(t, s, 6, 10)
	if rep.Stats.TasksByType[platform.A57] != 0 {
		t.Fatalf("%d tasks leaked to A57 under same-type stealing",
			rep.Stats.TasksByType[platform.A57])
	}
}

func TestRunRequiresResetAfterFinish(t *testing.T) {
	s := &fixedSched{dec: maxDec(platform.A57, 1)}
	rt := New(platform.DefaultOracle(), s, DefaultOptions())
	rt.Run(dag.Chains("x", demand(1e6, 1e5), 1, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("Run on a finished Runtime without Reset did not panic")
		}
	}()
	rt.Run(dag.Chains("y", demand(1e6, 1e5), 1, 2))
}

// TestResetReusesRuntime checks the Reset contract at the taskrt
// level: after Reset a Runtime runs again (including a different
// graph), reproduces a fresh runtime's report exactly, and rewinds
// the machine to max frequencies.
func TestResetReusesRuntime(t *testing.T) {
	o := platform.DefaultOracle()
	mkDec := func() Decision {
		return Decision{
			Placement: platform.Placement{TC: platform.Denver, NC: 1},
			SetFreq:   true, FC: 1, FM: 0, ExactFreq: true,
		}
	}
	fresh := New(o, &fixedSched{dec: maxDec(platform.A57, 2)}, DefaultOptions())
	want := fresh.Run(dag.Chains("w", demand(8e6, 3e6), 4, 20))

	rt := New(o, &fixedSched{dec: mkDec()}, DefaultOptions())
	rt.Run(dag.Chains("throttle", demand(20e6, 2e6), 1, 5))
	if got := rt.M.FC(rt.M.ClusterByType(platform.Denver)); got != 1 {
		t.Fatalf("pre-reset Denver FC = %d, want 1", got)
	}
	g := dag.Chains("w", demand(8e6, 3e6), 4, 20)
	rt.Sched = &fixedSched{dec: maxDec(platform.A57, 2)}
	rt.Reset(g)
	if got := rt.M.FC(rt.M.ClusterByType(platform.Denver)); got != platform.MaxFC {
		t.Fatalf("Reset left Denver FC = %d, want max", got)
	}
	if rt.Now() != 0 {
		t.Fatalf("Reset left clock at %v", rt.Now())
	}
	rep := rt.Run(g)
	if rep.MakespanSec != want.MakespanSec || rep.Exact != want.Exact ||
		rep.Sensor != want.Sensor || rep.Stats.Steals != want.Stats.Steals {
		t.Fatalf("reset-reused report differs:\nfresh: %+v\nreused: %+v", want, rep)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Report {
		s := &fixedSched{dec: maxDec(platform.A57, 2)}
		rt := New(platform.DefaultOracle(), s, DefaultOptions())
		return rt.Run(dag.Chains("det", demand(8e6, 3e6), 4, 20))
	}
	a, b := run(), run()
	if a.MakespanSec != b.MakespanSec || a.Exact != b.Exact || a.Stats.Steals != b.Stats.Steals {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
}

func TestKernelTypeStats(t *testing.T) {
	s := &fixedSched{dec: maxDec(platform.Denver, 1), scope: StealSameType}
	g := dag.Chains("kstats", demand(2e6, 2e5), 2, 5)
	rt := New(platform.DefaultOracle(), s, DefaultOptions())
	rep := rt.Run(g)
	kt := rep.Stats.KernelType("kstats.kernel")
	if kt == nil || kt[platform.Denver] != 10 {
		t.Fatalf("kernel/type stats wrong: %+v", kt)
	}
}

// Property: for random small graphs and random valid fixed decisions,
// every task executes exactly once, dependencies hold, and energy and
// makespan are positive and finite.
func TestPropertyRuntimeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := seed
		pick := func(n int64) int64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := (rng >> 33) % n
			if v < 0 {
				v += n
			}
			return v
		}
		tcs := []platform.CoreType{platform.Denver, platform.A57}
		tc := tcs[pick(2)]
		ncOpts := map[platform.CoreType][]int{platform.Denver: {1, 2}, platform.A57: {1, 2, 4}}[tc]
		dec := Decision{
			Placement: platform.Placement{TC: tc, NC: ncOpts[pick(int64(len(ncOpts)))]},
			SetFreq:   pick(2) == 0,
			FC:        int(pick(int64(len(platform.CPUFreqsGHz)))),
			FM:        int(pick(int64(len(platform.MemFreqsGHz)))),
		}
		s := &fixedSched{dec: dec}
		width := int(1 + pick(4))
		depth := int(1 + pick(8))
		g := dag.Chains("prop", demand(float64(1+pick(20))*1e6, float64(1+pick(30))*1e5), width, depth)
		opt := DefaultOptions()
		opt.Seed = seed
		rt := New(platform.DefaultOracle(), s, opt)
		rep := rt.Run(g)
		if rep.Stats.TasksExecuted != width*depth {
			return false
		}
		if !(rep.MakespanSec > 0) || math.IsInf(rep.MakespanSec, 0) {
			return false
		}
		if !(rep.Exact.TotalJ() > 0) {
			return false
		}
		end := make(map[int]float64)
		for _, r := range s.done {
			end[r.Task.ID] = r.EndSec
		}
		for _, r := range s.done {
			for _, succ := range g.Succs(r.Task.ID) {
				if end[int(succ)] < r.EndSec-1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceRecording(t *testing.T) {
	tr := &trace.Trace{}
	opt := DefaultOptions()
	opt.Trace = tr
	dec := Decision{
		Placement: platform.Placement{TC: platform.A57, NC: 1},
		SetFreq:   true, FC: 1, FM: 0, ExactFreq: true,
	}
	s := &fixedSched{dec: dec}
	rt := New(platform.DefaultOracle(), s, opt)
	rt.Run(dag.Chains("traced", demand(5e6, 1e6), 2, 10))
	if len(tr.Tasks) != 20 {
		t.Fatalf("trace recorded %d tasks, want 20", len(tr.Tasks))
	}
	if len(tr.Freqs) == 0 {
		t.Fatal("trace recorded no DVFS transitions")
	}
	if tr.NumCore != 6 {
		t.Fatalf("trace NumCore = %d, want 6", tr.NumCore)
	}
	if g := tr.Gantt(40); g == "" {
		t.Fatal("empty gantt for a traced run")
	}
}

func TestDemandScaleAffectsExecution(t *testing.T) {
	run := func(scale float64) float64 {
		g := dag.New("hetero")
		k := g.AddKernel("k", demand(20e6, 2e6))
		task := g.AddTask(k)
		task.DemandScale = scale
		s := &fixedSched{dec: maxDec(platform.A57, 1)}
		rt := New(platform.DefaultOracle(), s, DefaultOptions())
		return rt.Run(g).MakespanSec
	}
	t1 := run(1)
	t3 := run(3)
	if t3 < 2.5*t1 || t3 > 3.5*t1 {
		t.Fatalf("3x-scaled task took %.4g vs %.4g (want ~3x)", t3, t1)
	}
}

func TestSingleTaskGraph(t *testing.T) {
	g := dag.New("one")
	k := g.AddKernel("k", demand(1e6, 1e5))
	g.AddTask(k)
	s := &fixedSched{dec: maxDec(platform.Denver, 2)}
	rt := New(platform.DefaultOracle(), s, DefaultOptions())
	rep := rt.Run(g)
	if rep.Stats.TasksExecuted != 1 || rep.MakespanSec <= 0 {
		t.Fatalf("single-task run: %+v", rep)
	}
}

func TestMoldableOnBusyClusterFallsBack(t *testing.T) {
	// 6 independent moldable tasks wanting 4 A57 cores each: they
	// cannot all get 4 cores, so NCActual must drop without deadlock.
	g := dag.New("busy")
	k := g.AddKernel("k", demand(30e6, 1e6))
	for i := 0; i < 6; i++ {
		g.AddTask(k)
	}
	s := &fixedSched{dec: maxDec(platform.A57, 4)}
	rt := New(platform.DefaultOracle(), s, DefaultOptions())
	rep := rt.Run(g)
	if rep.Stats.TasksExecuted != 6 {
		t.Fatal("lost tasks under contention")
	}
	sawPartial := false
	for _, r := range s.done {
		if r.NCActual < 4 {
			sawPartial = true
		}
		if r.NCActual < 1 {
			t.Fatal("task ran on zero cores")
		}
	}
	if !sawPartial {
		t.Fatal("expected at least one task to run with fewer cores than requested")
	}
}

func TestWideGraphManyRoots(t *testing.T) {
	// 500 independent tasks: stress dispatch and stealing.
	g := dag.New("wide")
	k := g.AddKernel("k", demand(2e6, 2e5))
	for i := 0; i < 500; i++ {
		g.AddTask(k)
	}
	s := &fixedSched{dec: maxDec(platform.A57, 1), scope: StealAll}
	rt := New(platform.DefaultOracle(), s, DefaultOptions())
	rep := rt.Run(g)
	if rep.Stats.TasksExecuted != 500 {
		t.Fatal("lost tasks")
	}
	// With StealAll every core type should have executed something.
	if rep.Stats.TasksByType[platform.Denver] == 0 || rep.Stats.TasksByType[platform.A57] == 0 {
		t.Fatalf("per-type split degenerate: %v", rep.Stats.TasksByType)
	}
}

func TestDiamondHeavyGraph(t *testing.T) {
	// Repeated diamonds: every join has exactly two predecessors that
	// can complete in either order.
	g := dag.New("diamond")
	k := g.AddKernel("k", demand(3e6, 1e6))
	top := g.AddTask(k)
	for i := 0; i < 50; i++ {
		l := g.AddTask(k, top)
		r := g.AddTask(k, top)
		top = g.AddTask(k, l, r)
	}
	s := &fixedSched{dec: maxDec(platform.A57, 2)}
	rt := New(platform.DefaultOracle(), s, DefaultOptions())
	rep := rt.Run(g)
	if rep.Stats.TasksExecuted != g.NumTasks() {
		t.Fatal("diamond graph lost tasks")
	}
}

// TestMidTaskRetimingExact checks the §5.3 rescaling math analytically:
// a task that runs half its work at full frequency and is then
// throttled must finish at exactly the sum of the two phases' times.
func TestMidTaskRetimingExact(t *testing.T) {
	o := platform.DefaultOracle()
	o.JitterFrac = 0
	g := dag.New("ret")
	k := g.AddKernel("k", platform.TaskDemand{Ops: 100e6, Bytes: 1e5, ParEff: 1, Activity: 1})
	g.AddTask(k)
	dec := Decision{
		Placement: platform.Placement{TC: platform.A57, NC: 1},
		SetFreq:   true, FC: platform.MaxFC, FM: platform.MaxFM, ExactFreq: true,
	}
	s := &fixedSched{dec: dec}
	opt := DefaultOptions()
	opt.DispatchOverheadSec = 0
	rt := New(o, s, opt)

	cfgFast := platform.Config{TC: platform.A57, NC: 1, FC: platform.MaxFC, FM: platform.MaxFM}
	cfgSlow := platform.Config{TC: platform.A57, NC: 1, FC: 1, FM: platform.MaxFM}
	tFast := o.TaskTime(k.Demand, cfgFast).TotalSec
	tSlow := o.TaskTime(k.Demand, cfgSlow).TotalSec

	// Throttle the A57 cluster when the task is exactly half done.
	half := tFast / 2
	rt.Eng.At(half, func() {
		rt.M.RequestClusterFreq(rt.M.ClusterByType(platform.A57), 1)
	})
	rep := rt.Run(g)

	// Expected: half the work at the fast rate, the frequency
	// transition completes 50 µs later (still fast), and the rest at
	// the slow rate.
	trans := rt.M.Spec.CPUTransitionSec
	doneAtSwitch := (half + trans) / tFast
	want := half + trans + (1-doneAtSwitch)*tSlow
	if diff := math.Abs(rep.MakespanSec - want); diff > 1e-9 {
		t.Fatalf("retimed makespan %.9f, want %.9f (diff %.2e)", rep.MakespanSec, want, diff)
	}
}
