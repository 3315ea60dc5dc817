package exp

import (
	"path/filepath"
	"reflect"
	"testing"

	"joss/internal/sched"
	"joss/internal/taskrt"
	"joss/internal/workloads"
)

// TestRepeatSplitEquivalence is the correctness bar for the
// repeat-granular executor: a sweep whose ⟨cell, repeat, seed⟩ units
// scatter across four workers must produce per-cell reports
// byte-identical to the canonical semantics — every repeat run on a
// fresh runtime in one place, merged in repeat order — for all six
// schedulers.
func TestRepeatSplitEquivalence(t *testing.T) {
	e := reuseEnv(t)
	e.Repeats = 3
	e.Parallel = 4
	var slu workloads.Config
	for _, c := range workloads.Fig8Configs() {
		if c.Name == "SLU" {
			slu = c
		}
	}

	var jobs []sweepJob
	for _, sn := range SchedulerNames {
		sn := sn
		jobs = append(jobs, sweepJob{wl: slu, label: sn,
			mk: func() taskrt.Scheduler { return e.NewScheduler(sn) }})
	}
	split := e.sweep(jobs)

	for _, j := range jobs {
		g := j.wl.Build(e.Scale)
		reps := make([]taskrt.Report, e.Repeats)
		for r := 0; r < e.Repeats; r++ {
			rt := taskrt.New(e.Oracle, j.mk(), e.runOptions(e.Seed+int64(r)))
			reps[r] = rt.Run(g)
		}
		want := taskrt.MeanReport(reps)
		got := split[j.wl.Name][j.label]
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: repeat-split sweep differs from whole-cell reference:\nwant %+v\ngot  %+v",
				j.label, want, got)
		}
	}
}

// TestPlanStoreSecondProcessZeroSearch exercises the persistence story
// end to end: a first "process" trains plans during a sweep and saves
// the store; a second one loads it into a cold cache and then performs
// zero configuration searches for the trained kernels.
func TestPlanStoreSecondProcessZeroSearch(t *testing.T) {
	e := reuseEnv(t)
	path := filepath.Join(t.TempDir(), "plans.json")
	var mm workloads.Config
	for _, c := range workloads.Fig8Configs() {
		if c.Name == "MM_256_dop4" {
			mm = c
		}
	}

	// First process: train under JOSS with sharing on, then flush.
	e.SharePlans = true
	jobs := []sweepJob{{wl: mm, label: "JOSS",
		mk: func() taskrt.Scheduler { return e.NewScheduler("JOSS") }}}
	e.sweep(jobs)
	trained := e.Plans.Len()
	if trained == 0 {
		t.Fatal("sweep trained no plans")
	}
	if err := e.Plans.SaveFileMerged(path, e.Oracle.Spec); err != nil {
		t.Fatal(err)
	}

	// Second process: same trained models, cold plan cache, warm store.
	e.Plans = sched.NewPlanCache()
	n, err := e.Plans.LoadFile(path, e.Oracle.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if n != trained {
		t.Fatalf("loaded %d plans, saved %d", n, trained)
	}
	ms := sched.NewJOSS(e.Set)
	ms.SetPlanCache(e.Plans, e.Scale)
	rep := e.RunSched(ms, mm.Build(e.Scale))
	if rep.Stats.TasksExecuted == 0 {
		t.Fatal("plan-adopting run lost tasks")
	}
	if ms.TotalEvals != 0 {
		t.Errorf("second process performed %d configuration evaluations, want 0", ms.TotalEvals)
	}

	// A missing store is a cold start, not an error.
	e.Plans = sched.NewPlanCache()
	if n, err := e.Plans.LoadFile(filepath.Join(t.TempDir(), "absent.json"), e.Oracle.Spec); err != nil || n != 0 {
		t.Fatalf("missing store: n=%d err=%v, want 0, nil", n, err)
	}
}

// TestSensorPeriodAndOff asserts the sensor knobs are observers only:
// a coarser period or a disabled sensor changes the sample count and
// nothing else — makespan and the exact energy integral are
// bit-identical, and EnergyOf falls back to Exact when sampling is
// off.
func TestSensorPeriodAndOff(t *testing.T) {
	e := reuseEnv(t)
	base := e.Run("GRWS", workloads.SLU(0.05))
	if base.Samples == 0 {
		t.Fatal("baseline run too short to sample")
	}

	e.SensorPeriodSec = 50e-3
	coarse := e.Run("GRWS", workloads.SLU(0.05))
	if coarse.Samples >= base.Samples {
		t.Errorf("10× coarser period took %d samples, baseline %d", coarse.Samples, base.Samples)
	}
	if coarse.MakespanSec != base.MakespanSec || coarse.Exact != base.Exact {
		t.Error("sensor period changed the simulated execution")
	}

	e.SensorPeriodSec = 0
	e.SensorOff = true
	off := e.Run("GRWS", workloads.SLU(0.05))
	if off.Samples != 0 || off.Sensor.TotalJ() != 0 {
		t.Errorf("sensor-off run still sampled: %d samples, %v J", off.Samples, off.Sensor)
	}
	if off.MakespanSec != base.MakespanSec || off.Exact != base.Exact {
		t.Error("disabling the sensor changed the simulated execution")
	}
	if EnergyOf(off) != off.Exact {
		t.Error("EnergyOf did not fall back to the exact integral")
	}
}

// TestWarmJOSSAllocs asserts the tentpole's allocation target: a fully
// warm worker iteration under JOSS — Reset-reused runtime, recycled
// graph arenas, Reset-recycled scheduler — allocates near the ~22 of
// the GRWS floor, not the ~355 a fresh-scheduler warm run paid.
func TestWarmJOSSAllocs(t *testing.T) {
	e := reuseEnv(t)
	var cfg workloads.Config
	for _, c := range workloads.Fig8Configs() {
		if c.Name == "SLU" {
			cfg = c
		}
	}
	g := cfg.Build(0.05)
	ms := sched.NewJOSS(e.Set)
	rt := taskrt.New(e.Oracle, ms, taskrt.DefaultOptions())
	rt.Run(g) // warm pools, memo, arenas, samplers, tables, search scratch
	allocs := testing.AllocsPerRun(10, func() {
		g = cfg.BuildReuse(g, 0.05)
		ms.Reset(nil)
		rt.Reset(g)
		rt.Run(g)
	})
	t.Logf("warm JOSS run: %.0f allocs (fresh-scheduler warm run was ~355)", allocs)
	if allocs > 60 {
		t.Errorf("warm JOSS run = %.0f allocs, want <= 60", allocs)
	}
}
