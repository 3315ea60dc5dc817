// Package joss_test hosts the repository's one benchmark harness: one
// testing.B benchmark per table and figure of the paper's evaluation
// (run them with `go test -bench=. -benchmem`), ablation benches for
// the design choices of the paper's §5, and the rows cmd/perfgate
// gates on. Custom metrics attach the headline quantity of each
// experiment (normalised energy, accuracy, evaluation reduction) to
// the benchmark output, so a single bench run regenerates the paper's
// numbers alongside the usual ns/op.
package joss_test

import (
	"fmt"
	"sync"
	"testing"

	"joss/internal/exp"
	"joss/internal/obs"
	"joss/internal/platform"
	"joss/internal/sched"
	"joss/internal/service"
	"joss/internal/taskrt"
	"joss/internal/workloads"
)

// benchScale keeps each bench iteration fast; experiments at paper
// scale are run via cmd/jossbench.
const benchScale = 0.01

var (
	envOnce sync.Once
	envG    *exp.Env
)

func benchEnv(b *testing.B) *exp.Env {
	b.Helper()
	envOnce.Do(func() {
		e, err := exp.NewEnv(benchScale)
		if err != nil {
			panic(err)
		}
		envG = e
	})
	return envG
}

// BenchmarkTable1 regenerates the benchmark inventory.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(exp.Table1().Rows) != 10 {
			b.Fatal("Table 1 incomplete")
		}
	}
}

// BenchmarkFig1 regenerates the Figure 1 motivation study (four
// configuration-selection scenarios for MM and MC).
func BenchmarkFig1(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(e.Fig1().Rows) != 8 {
			b.Fatal("Fig1 incomplete")
		}
	}
}

// BenchmarkFig2 regenerates the Figure 2 trade-off ladder.
func BenchmarkFig2(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(e.Fig2().Rows) == 0 {
			b.Fatal("Fig2 incomplete")
		}
	}
}

// BenchmarkFig5 regenerates the Figure 5 synthetic power profile.
func BenchmarkFig5(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(e.Fig5().Rows) != 15 {
			b.Fatal("Fig5 incomplete")
		}
	}
}

// BenchmarkFig8 regenerates the headline Figure 8 sweep (21 benchmark
// configurations x 6 schedulers) and reports the JOSS and STEER
// geomean energies normalised to GRWS.
func BenchmarkFig8(b *testing.B) {
	e := benchEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	var res *exp.Fig8Result
	for i := 0; i < b.N; i++ {
		res = e.Fig8()
	}
	b.ReportMetric(res.GeoMean["JOSS"], "JOSS-vs-GRWS")
	b.ReportMetric(res.GeoMean["STEER"], "STEER-vs-GRWS")
	b.ReportMetric(res.GeoMean["JOSS_NoMemDVFS"], "NoMemDVFS-vs-GRWS")
}

// BenchmarkFig9 regenerates the Figure 9 performance-constraint sweep.
func BenchmarkFig9(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	var res *exp.Fig9Result
	for i := 0; i < b.N; i++ {
		res = e.Fig9()
	}
	mean := 0.0
	for _, m := range res.NormEnergy {
		mean += m["JOSS+1.8X"]
	}
	b.ReportMetric(mean/float64(len(res.NormEnergy)), "E(1.8X)-vs-JOSS")
}

// BenchmarkFig10 regenerates the Figure 10 model-accuracy study and
// reports the three mean accuracies (paper: 0.97 / 0.90 / 0.80).
func BenchmarkFig10(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	var res *exp.Fig10Result
	for i := 0; i < b.N; i++ {
		res = e.Fig10()
	}
	b.ReportMetric(res.PerfMean, "perf-accuracy")
	b.ReportMetric(res.CPUMean, "cpu-accuracy")
	b.ReportMetric(res.MemMean, "mem-accuracy")
}

// BenchmarkOverhead regenerates the §7.4 search-overhead comparison
// and reports the evaluation reduction (paper: ~70%).
func BenchmarkOverhead(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	var res *exp.OverheadResult
	for i := 0; i < b.N; i++ {
		res = e.Overhead()
	}
	b.ReportMetric(res.MeanEvalReduction, "eval-reduction")
	b.ReportMetric(res.MeanEnergyRatio, "exh/sd-energy")
}

// BenchmarkAblationCoordination compares the frequency-coordination
// heuristics of §5.3 (the paper evaluated min, max, weighted average
// and arithmetic mean, and found the mean best) on a high-concurrency
// workload with conflicting per-kernel frequency targets.
func BenchmarkAblationCoordination(b *testing.B) {
	e := benchEnv(b)
	modes := []struct {
		name string
		mode taskrt.CoordMode
	}{
		{"Mean", taskrt.CoordMean},
		{"Min", taskrt.CoordMin},
		{"Max", taskrt.CoordMax},
		{"Override", taskrt.CoordOverride},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			var energy float64
			for i := 0; i < b.N; i++ {
				opt := taskrt.DefaultOptions()
				opt.Coord = m.mode
				rt := taskrt.New(e.Oracle, sched.NewJOSS(e.Set), opt)
				rep := rt.Run(workloads.VG(benchScale * 4))
				energy = exp.EnergyOf(rep).TotalJ()
			}
			b.ReportMetric(energy, "J")
		})
	}
}

// BenchmarkAblationCoarsening compares JOSS with and without the
// fine-grained task coarsening of §5.3 on Fibonacci, the benchmark
// whose tasks are microseconds long.
func BenchmarkAblationCoarsening(b *testing.B) {
	e := benchEnv(b)
	cases := []struct {
		name      string
		threshold float64
	}{
		{"Coarsened", 200e-6},
		// A one-nanosecond threshold effectively disables coarsening:
		// every task issues its own DVFS request.
		{"PerTaskDVFS", 1e-9},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var trans int
			var energy float64
			for i := 0; i < b.N; i++ {
				s := sched.NewModelSched(e.Set, sched.Options{
					Name: "JOSS", Goal: sched.GoalMinEnergy, MemDVFS: true,
					CoarsenThresholdSec: c.threshold,
				})
				rep := e.RunSched(s, workloads.FB(benchScale*4))
				trans = rep.Stats.TransitionsCPU + rep.Stats.TransitionsMem
				energy = exp.EnergyOf(rep).TotalJ()
			}
			b.ReportMetric(float64(trans), "transitions")
			b.ReportMetric(energy, "J")
		})
	}
}

// BenchmarkAblationObjective isolates the paper's central claim
// (§2.1): the same machinery with a CPU-energy objective (STEER), a
// total-energy objective without the memory knob (JOSS_NoMemDVFS) and
// the full four-knob objective (JOSS), on the memory-heavy AL mesh.
func BenchmarkAblationObjective(b *testing.B) {
	e := benchEnv(b)
	for _, name := range []string{"STEER", "JOSS_NoMemDVFS", "JOSS"} {
		b.Run(name, func(b *testing.B) {
			var energy float64
			for i := 0; i < b.N; i++ {
				rep := e.Run(name, workloads.AL(benchScale))
				energy = exp.EnergyOf(rep).TotalJ()
			}
			b.ReportMetric(energy, "J")
		})
	}
}

// BenchmarkAblationSampling varies the second sampling frequency of
// §5.1 (the models package defaults to 1.11 GHz, well separated from
// the 2.04 GHz reference): a closer frequency pair degrades the MB
// estimate of Eq. 3 and with it the selected configurations.
func BenchmarkAblationSampling(b *testing.B) {
	e := benchEnv(b)
	// End-to-end proxy: accuracy of MB estimation for the ST kernel
	// across alternate frequencies.
	d := workloads.ST(2048, 4, benchScale).KernelByName("st_update").Demand
	for _, alt := range []int{0, 1, 2, 3} {
		name := fmt.Sprintf("alt=%.2fGHz", platform.CPUFreqsGHz[alt])
		b.Run(name, func(b *testing.B) {
			var mb float64
			for i := 0; i < b.N; i++ {
				pl := platform.Placement{TC: platform.A57, NC: 2}
				ref := e.Oracle.Measure(d, platform.Config{TC: pl.TC, NC: pl.NC, FC: 4, FM: 2})
				a := e.Oracle.Measure(d, platform.Config{TC: pl.TC, NC: pl.NC, FC: alt, FM: 2})
				mb = estimateMB(ref.TimeSec, a.TimeSec, 4, alt)
			}
			b.ReportMetric(mb, "MB")
		})
	}
}

// The rows below, with BenchmarkFig8, are the ones cmd/perfgate gates.

// BenchmarkRuntimeThroughput measures raw simulator throughput: tasks
// executed per second of wall time under the cheapest scheduler. Each
// iteration pays the full cold-start cost (fresh Runtime, Machine and
// graph) — the baseline BenchmarkRuntimeThroughputWarm amortises.
func BenchmarkRuntimeThroughput(b *testing.B) {
	e := benchEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	tasks := 0
	for i := 0; i < b.N; i++ {
		rep := e.Run("GRWS", workloads.SLU(0.05))
		tasks += rep.Stats.TasksExecuted
	}
	reportTasks(b, tasks)
}

// BenchmarkJOSSRun is model-driven scheduling end to end (sampling,
// selection, DVFS) on a cold runtime.
func BenchmarkJOSSRun(b *testing.B) {
	e := benchEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run("JOSS", workloads.SLU(0.05))
	}
}

// BenchmarkMetricsHotPath is one counter increment plus one histogram
// observation — the cost every instrumented dispatch claim pays. The
// gate holds it at exactly 0 allocs/op: instrumentation must never put
// allocations on the serving path.
func BenchmarkMetricsHotPath(b *testing.B) {
	reg := obs.NewRegistry()
	c := reg.NewCounter("bench_ops_total", "Hot-path benchmark counter.", nil)
	h := reg.NewHistogram("bench_latency_seconds", "Hot-path benchmark histogram.", nil, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(0.0042)
	}
}

// BenchmarkRuntimeThroughputWarm runs the BenchmarkRuntimeThroughput
// simulation as a warm sweep worker does: the Runtime is rewound with
// Reset (keeping event slabs, machine, pools and the oracle memo) and
// the graph is rebuilt into recycled arenas. Its allocs/op is a warm
// floor; the gap to the cold row is the amortised per-run setup.
func BenchmarkRuntimeThroughputWarm(b *testing.B) { benchWarm(b, "GRWS") }

// BenchmarkJOSSRunWarm is the warm worker under JOSS, whose scheduler
// is Reset-recycled (samplers, kernel tables and search scratch
// retained) instead of constructed per run.
func BenchmarkJOSSRunWarm(b *testing.B) { benchWarm(b, "JOSS") }

func benchWarm(b *testing.B, schedName string) {
	e := benchEnv(b)
	slu, _, _ := service.FindWorkload("SLU")
	g := slu.Build(0.05)
	opt := taskrt.DefaultOptions()
	opt.Seed = e.Seed
	s := e.NewScheduler(schedName)
	rt := taskrt.New(e.Oracle, s, opt)
	rt.Run(g) // warm the worker
	b.ReportAllocs()
	b.ResetTimer()
	tasks := 0
	for i := 0; i < b.N; i++ {
		g = slu.BuildReuse(g, 0.05)
		if ms, ok := s.(*sched.ModelSched); ok {
			ms.Reset(nil)
		} else {
			s = e.NewScheduler(schedName)
		}
		rt.Sched = s
		rt.Reset(g)
		rep := rt.Run(g)
		tasks += rep.Stats.TasksExecuted
	}
	reportTasks(b, tasks)
}

// sweepJobs builds the four-workload request the session rows serve.
func sweepJobs(sess *service.Session, schedName string) []service.Job {
	var jobs []service.Job
	for _, name := range []string{"SLU", "MM_256_dop4", "HT_Small", "ST_2048_dop16"} {
		wl, _, _ := service.FindWorkload(name)
		jobs = append(jobs, service.Job{Workload: wl, Label: schedName,
			Make: func() taskrt.Scheduler { return sess.NewScheduler(schedName) }})
	}
	return jobs
}

// BenchmarkSessionSweepWarm is the service path on a warm session
// (admission, fair-share dispatch, pool execution, per-cell merge) on a
// repeat-heavy multi-workload request. A warm request allocates about
// a hundred objects, so a serving-path leak shows as a multiple.
func BenchmarkSessionSweepWarm(b *testing.B) {
	sess := benchEnv(b).Session()
	req := service.SweepRequest{Jobs: sweepJobs(sess, "GRWS"), Scale: 0.05, Seed: 1, Repeats: 3, Parallel: 2}
	if _, err := sess.Submit(req); err != nil { // warm pool, arenas and schedulers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	tasks := 0
	for i := 0; i < b.N; i++ {
		res, err := sess.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range res.Reports {
			for _, rep := range m {
				tasks += rep.Stats.TasksExecuted * req.Repeats
			}
		}
	}
	reportTasks(b, tasks)
}

// BenchmarkColdSweep and BenchmarkWarmPlanSweep serve the same JOSS
// sweep over a fresh plan cache each iteration (every cell samples and
// searches) and over a cache one ordinary sweep filled first (every
// cell adopts a plan, so 0 plan_evals/op proves adoption).
func BenchmarkColdSweep(b *testing.B) { benchPlanSweep(b, false) }

func BenchmarkWarmPlanSweep(b *testing.B) { benchPlanSweep(b, true) }

func benchPlanSweep(b *testing.B, warm bool) {
	sess := benchEnv(b).Session()
	jobs := sweepJobs(sess, "JOSS")
	req := func(pc *sched.PlanCache) service.SweepRequest {
		return service.SweepRequest{Jobs: jobs, Scale: 0.05, Seed: 1, Repeats: 1,
			Parallel: 2, SharePlans: true, Plans: pc}
	}
	warmed := sched.NewPlanCache()
	if warm {
		if _, err := sess.Submit(req(warmed)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	evals := 0
	for i := 0; i < b.N; i++ {
		pc := warmed
		if !warm {
			pc = sched.NewPlanCache()
		}
		res, err := sess.Submit(req(pc))
		if err != nil {
			b.Fatal(err)
		}
		evals += res.PlanEvals
	}
	b.ReportMetric(float64(evals)/float64(b.N), "plan_evals/op")
}

// BenchmarkFig8SharedPlans is the Figure 8 sweep with every reuse
// lever on: worker-pool runtimes plus a cross-sweep plan cache, warmed
// by one sweep before timing.
func BenchmarkFig8SharedPlans(b *testing.B) {
	e := *benchEnv(b)
	e.SharePlans = true
	e.Plans = sched.NewPlanCache()
	res := e.Fig8()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = e.Fig8()
	}
	b.ReportMetric(res.GeoMean["JOSS"], "JOSS-vs-GRWS")
}

func reportTasks(b *testing.B, tasks int) {
	b.ReportMetric(float64(tasks)/b.Elapsed().Seconds(), "tasks/s")
}

func estimateMB(tRef, tAlt float64, refIdx, altIdx int) float64 {
	fRef := platform.CPUFreqsGHz[refIdx]
	fAlt := platform.CPUFreqsGHz[altIdx]
	r := fRef / fAlt
	if r == 1 {
		return 0
	}
	mb := (tAlt/tRef - r) / (1 - r)
	if mb < 0 {
		return 0
	}
	if mb > 1 {
		return 1
	}
	return mb
}
