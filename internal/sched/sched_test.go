package sched

import (
	"math"
	"sync"
	"testing"

	"joss/internal/dag"
	"joss/internal/models"
	"joss/internal/platform"
	"joss/internal/synth"
	"joss/internal/taskrt"
	"joss/internal/workloads"
)

var (
	trainOnce sync.Once
	oracleG   *platform.Oracle
	setG      *models.Set
	eraseG    ERASETable
)

func testModels(t testing.TB) (*platform.Oracle, *models.Set, ERASETable) {
	t.Helper()
	trainOnce.Do(func() {
		oracleG = platform.DefaultOracle()
		rows := synth.Profile(oracleG)
		var err error
		setG, err = models.Train(oracleG, rows)
		if err != nil {
			panic(err)
		}
		eraseG = BuildERASETable(rows)
	})
	return oracleG, setG, eraseG
}

// makeSched builds a fresh scheduler by name (schedulers are stateful
// and single-run).
func makeSched(name string, set *models.Set, erase ERASETable) taskrt.Scheduler {
	switch name {
	case "GRWS":
		return NewGRWS()
	case "ERASE":
		return NewERASE(erase, func(tc platform.CoreType) float64 {
			return set.IdleCPUW[tc][platform.MaxFC]
		})
	case "Aequitas":
		return NewAequitas()
	case "STEER":
		return NewSTEER(set)
	case "JOSS":
		return NewJOSS(set)
	case "JOSS_NoMemDVFS":
		return NewJOSSNoMemDVFS(set)
	}
	panic("unknown scheduler " + name)
}

func runOn(t *testing.T, name string, g *dag.Graph) taskrt.Report {
	t.Helper()
	o, set, erase := testModels(t)
	rt := taskrt.New(o, makeSched(name, set, erase), taskrt.DefaultOptions())
	return rt.Run(g)
}

func TestGRWSCompletesEverything(t *testing.T) {
	g := workloads.MM(256, 4, 0.01)
	rep := runOn(t, "GRWS", g)
	if rep.Stats.TasksExecuted != g.NumTasks() {
		t.Fatalf("executed %d of %d", rep.Stats.TasksExecuted, g.NumTasks())
	}
	// GRWS never issues frequency requests.
	if rep.Stats.FreqRequests != 0 {
		t.Fatalf("GRWS issued %d frequency requests", rep.Stats.FreqRequests)
	}
}

func TestERASESelectsPlacement(t *testing.T) {
	o, set, erase := testModels(t)
	s := makeSched("ERASE", set, erase).(*ERASE)
	g := workloads.MM(256, 4, 0.01)
	rt := taskrt.New(o, s, taskrt.DefaultOptions())
	rep := rt.Run(g)
	if rep.Stats.TasksExecuted != g.NumTasks() {
		t.Fatal("ERASE lost tasks")
	}
	if len(s.selected) == 0 {
		t.Fatal("ERASE never selected a placement")
	}
	// ERASE does not throttle frequencies.
	if rep.Stats.FreqRequests != 0 {
		t.Fatalf("ERASE issued %d freq requests", rep.Stats.FreqRequests)
	}
}

func TestAequitasThrottles(t *testing.T) {
	// A DAG long enough to cross several 1 s slices.
	g := workloads.AL(0.05)
	rep := runOn(t, "Aequitas", g)
	if rep.Stats.TasksExecuted != g.NumTasks() {
		t.Fatal("Aequitas lost tasks")
	}
	if rep.MakespanSec > 3 && rep.Stats.FreqRequests == 0 {
		t.Fatal("Aequitas never adjusted any cluster frequency")
	}
}

func TestSTEERPicksDVFSConfig(t *testing.T) {
	o, set, erase := testModels(t)
	s := makeSched("STEER", set, erase).(*ModelSched)
	g := workloads.MM(256, 4, 0.01)
	rt := taskrt.New(o, s, taskrt.DefaultOptions())
	rt.Run(g)
	k := g.KernelByName("mm_tile")
	cfg, ok := s.SelectedConfig(k)
	if !ok {
		t.Fatal("STEER never selected a config")
	}
	if cfg.FM != platform.MaxFM {
		t.Fatalf("STEER touched the memory knob: %v", cfg)
	}
}

func TestJOSSSelectsFullConfig(t *testing.T) {
	o, set, erase := testModels(t)
	s := makeSched("JOSS", set, erase).(*ModelSched)
	g := workloads.MC(4096, 4, 0.01)
	rt := taskrt.New(o, s, taskrt.DefaultOptions())
	rep := rt.Run(g)
	if rep.Stats.TasksExecuted != g.NumTasks() {
		t.Fatal("JOSS lost tasks")
	}
	cfg, ok := s.SelectedConfig(g.KernelByName("mc_copy"))
	if !ok {
		t.Fatal("JOSS never selected a config")
	}
	if !cfg.Valid(o.Spec) {
		t.Fatalf("invalid config %v", cfg)
	}
	if s.TotalEvals == 0 {
		t.Fatal("no search evaluations recorded")
	}
}

func TestJOSSNoMemDVFSKeepsMemAtMax(t *testing.T) {
	o, set, erase := testModels(t)
	s := makeSched("JOSS_NoMemDVFS", set, erase).(*ModelSched)
	g := workloads.MC(4096, 4, 0.01)
	rt := taskrt.New(o, s, taskrt.DefaultOptions())
	rt.Run(g)
	cfg, ok := s.SelectedConfig(g.KernelByName("mc_copy"))
	if !ok || cfg.FM != platform.MaxFM {
		t.Fatalf("NoMemDVFS config = %v ok=%v, want FM pinned at max", cfg, ok)
	}
	if rt.MemFM() != platform.MaxFM {
		t.Fatalf("memory frequency drifted to %d", rt.MemFM())
	}
}

func TestCoarseningTriggersOnFineGrainedTasks(t *testing.T) {
	o, set, erase := testModels(t)
	s := makeSched("JOSS", set, erase).(*ModelSched)
	g := workloads.FB(0.01)
	rt := taskrt.New(o, s, taskrt.DefaultOptions())
	rep := rt.Run(g)
	if rep.Stats.TasksExecuted != g.NumTasks() {
		t.Fatal("JOSS lost FB tasks")
	}
	leaf := g.KernelByName("fib_leaf")
	plan := s.plans[leaf.Index]
	if plan == nil {
		t.Fatal("no plan for fib_leaf")
	}
	if !plan.fine || plan.batch < 2 {
		t.Fatalf("FB leaves not coarsened: fine=%v batch=%d", plan.fine, plan.batch)
	}
	// Actual DVFS transitions must be far fewer than tasks (repeated
	// requests for the same frequency are no-ops; coarsening bounds
	// the rest).
	trans := rep.Stats.TransitionsCPU + rep.Stats.TransitionsMem
	if trans >= rep.Stats.TasksExecuted/4 {
		t.Fatalf("coarsening ineffective: %d transitions for %d tasks",
			trans, rep.Stats.TasksExecuted)
	}
}

// The headline result (Figure 8 shape): on a representative mix,
// every scheduler beats GRWS on total energy, and JOSS consumes the
// least; JOSS_NoMemDVFS still beats STEER (total-energy objective
// matters even without the memory knob).
func TestEnergyOrderingMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end sweep")
	}
	configs := []workloads.Config{
		{Name: "MM", Build: func(s float64) *dag.Graph { return workloads.MM(256, 4, s) }},
		{Name: "MC", Build: func(s float64) *dag.Graph { return workloads.MC(4096, 4, s) }},
		{Name: "ST", Build: func(s float64) *dag.Graph { return workloads.ST(512, 16, s) }},
		{Name: "SLU", Build: workloads.SLU},
	}
	scheds := []string{"GRWS", "ERASE", "Aequitas", "STEER", "JOSS", "JOSS_NoMemDVFS"}
	total := make(map[string]float64)
	for _, cfg := range configs {
		for _, sn := range scheds {
			g := cfg.Build(0.02)
			rep := runOn(t, sn, g)
			total[sn] += rep.Exact.TotalJ()
			t.Logf("%-4s %-15s E=%8.2f J  T=%6.2f s", cfg.Name, sn, rep.Exact.TotalJ(), rep.MakespanSec)
		}
	}
	if total["JOSS"] >= total["GRWS"] {
		t.Errorf("JOSS (%.1f J) not better than GRWS (%.1f J)", total["JOSS"], total["GRWS"])
	}
	if total["JOSS"] >= total["STEER"] {
		t.Errorf("JOSS (%.1f J) not better than STEER (%.1f J)", total["JOSS"], total["STEER"])
	}
	if total["JOSS_NoMemDVFS"] >= total["STEER"] {
		t.Errorf("JOSS_NoMemDVFS (%.1f J) not better than STEER (%.1f J)",
			total["JOSS_NoMemDVFS"], total["STEER"])
	}
	if total["JOSS"] > total["JOSS_NoMemDVFS"] {
		t.Errorf("full JOSS (%.1f J) worse than NoMemDVFS (%.1f J)",
			total["JOSS"], total["JOSS_NoMemDVFS"])
	}
}

func TestPerformanceConstraintTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end sweep")
	}
	o, set, _ := testModels(t)
	build := func() *dag.Graph { return workloads.MM(256, 4, 0.02) }

	base := taskrt.New(o, NewJOSS(set), taskrt.DefaultOptions()).Run(build())
	c14 := taskrt.New(o, NewJOSSConstrained(set, 1.4), taskrt.DefaultOptions()).Run(build())
	maxp := taskrt.New(o, NewJOSSMaxP(set), taskrt.DefaultOptions()).Run(build())

	t.Logf("JOSS      T=%.3f E=%.1f", base.MakespanSec, base.Exact.TotalJ())
	t.Logf("JOSS+1.4X T=%.3f E=%.1f", c14.MakespanSec, c14.Exact.TotalJ())
	t.Logf("JOSS+MAXP T=%.3f E=%.1f", maxp.MakespanSec, maxp.Exact.TotalJ())

	if c14.MakespanSec >= base.MakespanSec {
		t.Errorf("1.4x constraint did not speed up: %.3f vs %.3f", c14.MakespanSec, base.MakespanSec)
	}
	if maxp.MakespanSec > c14.MakespanSec*1.05 {
		t.Errorf("MAXP (%.3f) slower than 1.4x (%.3f)", maxp.MakespanSec, c14.MakespanSec)
	}
	// MAXP ignores energy; it must not be meaningfully cheaper than
	// the energy-minimising run (it can tie within model error and
	// idle-accrual effects — per-task objectives under-count machine
	// idle, which race-to-idle partly recovers).
	if maxp.Exact.TotalJ() < base.Exact.TotalJ()*0.85 {
		t.Errorf("MAXP energy (%.2f) much below JOSS minimum (%.2f)",
			maxp.Exact.TotalJ(), base.Exact.TotalJ())
	}
}

func TestExhaustiveVsSteepestEndToEnd(t *testing.T) {
	o, set, _ := testModels(t)
	build := func() *dag.Graph { return workloads.ST(512, 16, 0.01) }

	sd := NewJOSS(set)
	taskrt.New(o, sd, taskrt.DefaultOptions()).Run(build())

	ex := NewModelSched(set, Options{Name: "JOSS_exh", Goal: GoalMinEnergy, MemDVFS: true, Exhaustive: true})
	taskrt.New(o, ex, taskrt.DefaultOptions()).Run(build())

	if sd.TotalEvals >= ex.TotalEvals {
		t.Fatalf("steepest evals %d not fewer than exhaustive %d", sd.TotalEvals, ex.TotalEvals)
	}
	t.Logf("evals: steepest %d, exhaustive %d (reduction %.0f%%)",
		sd.TotalEvals, ex.TotalEvals, 100*(1-float64(sd.TotalEvals)/float64(ex.TotalEvals)))
}

func TestERASETableShape(t *testing.T) {
	o, _, erase := testModels(t)
	if len(erase) != len(o.Spec.Placements()) {
		t.Fatalf("ERASE table covers %d placements, want %d", len(erase), len(o.Spec.Placements()))
	}
	d1 := erase[platform.Placement{TC: platform.Denver, NC: 1}]
	d2 := erase[platform.Placement{TC: platform.Denver, NC: 2}]
	if d2 <= d1 {
		t.Fatalf("two Denver cores (%f W) should consume more than one (%f W)", d2, d1)
	}
}

func TestKernelSamplerPlanAndRetry(t *testing.T) {
	pls := platform.TX2().Placements()
	ks := newKernelSampler(pls, true)
	if len(ks.slots) != 10 {
		t.Fatalf("slots = %d, want 10 (5 placements x 2 freqs)", len(ks.slots))
	}
	// Reference slots come first (the paper samples all kernels at fC
	// before switching to f'C).
	for i, slot := range ks.slots {
		if (i < 5) == slot.alt {
			t.Fatalf("slot order wrong at %d: %+v", i, slot)
		}
	}
	// Decisions walk unfilled slots; recording everything completes.
	// Records must carry the frequency the decision requested, or the
	// sampler rejects them as polluted.
	for i := 0; i < 10; i++ {
		dec := ks.decide()
		slot := dec.Tag.(sampleSlot)
		done := ks.record(taskrt.ExecRecord{
			Placement: slot.pl, NCActual: slot.pl.NC,
			FCStart: dec.FC, FMStart: dec.FM,
			StartSec: 0, EndSec: 0.001, Tag: slot,
		})
		if done != (i == 9) {
			t.Fatalf("complete after %d records = %v", i+1, done)
		}
	}
	pairs := make(map[platform.Placement]models.SamplePair)
	ks.samplePairsInto(pairs)
	if len(pairs) != 5 {
		t.Fatalf("samplePairsInto = %d, want 5", len(pairs))
	}

	// Retry logic: a moldable sample with fewer cores than planned is
	// rejected twice, then accepted.
	ks2 := newKernelSampler(pls, false)
	wide := sampleSlot{pl: platform.Placement{TC: platform.A57, NC: 4}}
	rec := taskrt.ExecRecord{
		Placement: wide.pl, NCActual: 2,
		FCStart: models.RefFC, FMStart: models.RefFM,
		EndSec: 0.001, Tag: wide,
	}
	for i := 0; i < slotRetries; i++ {
		ks2.record(rec)
		if _, recorded := ks2.times[wide]; recorded {
			t.Fatal("under-recruited sample recorded before retries exhausted")
		}
	}
	ks2.record(rec)
	if _, recorded := ks2.times[wide]; !recorded {
		t.Fatal("sample not accepted after retries exhausted")
	}
	// The accepted last-resort sample is width-normalised (2 of 4
	// cores -> halved time).
	if got := ks2.times[wide]; math.Abs(got-0.0005) > 1e-12 {
		t.Fatalf("normalised sample = %v, want 0.0005", got)
	}

	// Frequency pollution is rejected the same way.
	ks3 := newKernelSampler(pls, false)
	slot1 := sampleSlot{pl: platform.Placement{TC: platform.Denver, NC: 1}}
	bad := taskrt.ExecRecord{
		Placement: slot1.pl, NCActual: 1,
		FCStart: models.AltFC, FMStart: models.RefFM, // wrong frequency
		EndSec: 0.002, Tag: slot1,
	}
	ks3.record(bad)
	if _, recorded := ks3.times[slot1]; recorded {
		t.Fatal("frequency-polluted sample accepted on first try")
	}
}

func TestERASETableFromRows(t *testing.T) {
	o, _, _ := testModels(t)
	rows := synth.Profile(o)
	table := BuildERASETable(rows)
	for _, pl := range o.Spec.Placements() {
		if table[pl] <= 0 {
			t.Fatalf("no power for placement %v", pl)
		}
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{1.2: "1.2", 1.4: "1.4", 1.8: "1.8", 2.0: "2", 12.5: "12.5"}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Fatalf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestEDPGoal(t *testing.T) {
	o, set, _ := testModels(t)
	edp := NewJOSSEDP(set)
	repEDP := taskrt.New(o, edp, taskrt.DefaultOptions()).Run(workloads.MM(256, 4, 0.02))
	joss := NewJOSS(set)
	repJOSS := taskrt.New(o, joss, taskrt.DefaultOptions()).Run(workloads.MM(256, 4, 0.02))
	maxp := NewJOSSMaxP(set)
	repMAXP := taskrt.New(o, maxp, taskrt.DefaultOptions()).Run(workloads.MM(256, 4, 0.02))

	// EDP sits between pure-energy and pure-performance: no slower
	// than JOSS, no more energy than MAXP (within 10% slack).
	if repEDP.MakespanSec > repJOSS.MakespanSec*1.1 {
		t.Errorf("EDP makespan %.3f exceeds JOSS %.3f", repEDP.MakespanSec, repJOSS.MakespanSec)
	}
	if repEDP.Exact.TotalJ() > repMAXP.Exact.TotalJ()*1.15 {
		t.Errorf("EDP energy %.2f far above MAXP %.2f", repEDP.Exact.TotalJ(), repMAXP.Exact.TotalJ())
	}
	// Its energy-delay product must not exceed either extreme's.
	edpVal := repEDP.Exact.TotalJ() * repEDP.MakespanSec
	for _, r := range []taskrt.Report{repJOSS, repMAXP} {
		if edpVal > r.Exact.TotalJ()*r.MakespanSec*1.05 {
			t.Errorf("EDP product %.3f exceeds %s's %.3f",
				edpVal, r.Scheduler, r.Exact.TotalJ()*r.MakespanSec)
		}
	}
}

func TestSamplingPhaseFractionSmall(t *testing.T) {
	o, set, _ := testModels(t)
	s := NewJOSS(set)
	rep := taskrt.New(o, s, taskrt.DefaultOptions()).Run(workloads.AL(0.2))
	frac := s.LastSelectionSec / rep.MakespanSec
	if frac <= 0 || frac > 0.25 {
		t.Fatalf("sampling phase fraction %.3f, want small and positive (paper: 0.008)", frac)
	}
}
