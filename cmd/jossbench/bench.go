package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"joss/internal/exp"
	"joss/internal/obs"
	"joss/internal/sched"
	"joss/internal/service"
	"joss/internal/taskrt"
	"joss/internal/workloads"
)

// BenchResult is one benchmark's record in the BENCH_*.json report.
type BenchResult struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// BenchReport is the machine-readable output of `jossbench bench`.
type BenchReport struct {
	Timestamp  string        `json:"timestamp"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	NumCPU     int           `json:"num_cpu"`
	Benchmarks []BenchResult `json:"benchmarks"`
}

// runBench runs the simulator micro-benchmark suite via
// testing.Benchmark and writes the JSON report, so performance
// regressions are visible between PRs without parsing `go test -bench`
// text output. With reuse set it additionally runs warm-worker
// variants (Reset-reused runtime, recycled graph arenas, shared
// plans), so the report captures both the cold and the warm numbers
// the sweep executor actually achieves.
func runBench(outPath string, reuse bool) error {
	now := time.Now()
	if outPath == "" {
		outPath = fmt.Sprintf("BENCH_%s.json", now.Format("20060102T150405"))
	}
	// Validate the output path up front — a typo'd -benchout should
	// fail before minutes of benchmarking, not after.
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	f.Close()

	e, err := exp.NewEnv(0.01)
	if err != nil {
		return err
	}

	report := &BenchReport{
		Timestamp: now.Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}

	add := func(name string, metrics func(r testing.BenchmarkResult) map[string]float64,
		fn func(b *testing.B)) {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		br := BenchResult{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if metrics != nil {
			br.Metrics = metrics(r)
		}
		report.Benchmarks = append(report.Benchmarks, br)
		fmt.Printf("%-28s %12.0f ns/op %10d allocs/op", name, br.NsPerOp, br.AllocsPerOp)
		for k, v := range br.Metrics {
			fmt.Printf("  %s=%.4g", k, v)
		}
		fmt.Println()
	}

	// Raw simulator throughput under the cheapest scheduler — the
	// multiplier on every sweep (tasks/s is the headline perf metric).
	var totalTasks int
	var elapsed time.Duration
	add("RuntimeThroughput", func(testing.BenchmarkResult) map[string]float64 {
		return map[string]float64{
			"tasks_per_s": float64(totalTasks) / elapsed.Seconds(),
		}
	}, func(b *testing.B) {
		totalTasks = 0
		start := time.Now()
		for i := 0; i < b.N; i++ {
			rep := e.Run("GRWS", workloads.SLU(0.05))
			totalTasks += rep.Stats.TasksExecuted
		}
		elapsed = time.Since(start)
	})

	// Model-driven scheduling end to end (sampling, selection, DVFS).
	add("JOSSRun", nil, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.Run("JOSS", workloads.SLU(0.05))
		}
	})

	// The metrics hot path in isolation: one counter increment plus one
	// histogram observation — the cost every instrumented dispatch
	// claim pays. The load-bearing column is allocs/op, which perfgate
	// asserts is exactly 0: instrumentation must never put allocations
	// on the serving path.
	obsReg := obs.NewRegistry()
	obsCtr := obsReg.NewCounter("bench_ops_total", "Hot-path benchmark counter.", nil)
	obsHist := obsReg.NewHistogram("bench_latency_seconds", "Hot-path benchmark histogram.", nil, nil)
	add("MetricsHotPath", nil, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			obsCtr.Inc()
			obsHist.Observe(0.0042)
		}
	})

	if reuse {
		// The same simulations executed the way a warm sweep worker
		// runs them: Reset-reused runtime, graph rebuilt into recycled
		// arenas. The allocs/op gap to the cold benchmarks above is
		// the amortised per-run setup.
		var slu workloads.Config
		for _, c := range workloads.Fig8Configs() {
			if c.Name == "SLU" {
				slu = c
			}
		}
		// warm mirrors the sweep executor's worker exactly: Reset-reused
		// runtime, recycled graph arenas, and — for model-driven
		// schedulers — a Reset-recycled scheduler instead of a fresh
		// construction per run (samplers, kernel tables and search
		// scratch retained). The JOSSRunWarm row's allocs/op is the
		// warm-JOSS column tracked across BENCH_*.json files.
		warm := func(schedName string) func(b *testing.B) {
			return func(b *testing.B) {
				g := slu.Build(0.05)
				opt := taskrt.DefaultOptions()
				opt.Seed = e.Seed
				s := e.NewScheduler(schedName)
				rt := taskrt.New(e.Oracle, s, opt)
				rt.Run(g)
				b.ResetTimer()
				totalTasks = 0
				start := time.Now()
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
					totalTasks += rep.Stats.TasksExecuted
				}
				elapsed = time.Since(start)
			}
		}
		add("RuntimeThroughputWarm", func(testing.BenchmarkResult) map[string]float64 {
			return map[string]float64{
				"tasks_per_s": float64(totalTasks) / elapsed.Seconds(),
			}
		}, warm("GRWS"))
		add("JOSSRunWarm", func(testing.BenchmarkResult) map[string]float64 {
			return map[string]float64{
				"tasks_per_s": float64(totalTasks) / elapsed.Seconds(),
			}
		}, warm("JOSS"))

		// The service path end to end on a warm session: request
		// admission, cost-aware fair-share dispatch, pool execution and
		// per-cell merge, on one repeat-heavy multi-workload request —
		// the shape where per-repeat setup hurts most, because parallel
		// workers ping-pong between cells and re-pay the graph rebuild
		// and the oracle's kernel memo on each switch. The load-bearing
		// signal is allocs/op: the builders rebuild into recycled arenas,
		// so a warm request allocates about a hundred objects and a leak
		// on the serving path shows up as a multiple of that (see
		// PERF.md).
		sess := e.Session()
		const sweepRepeats = 3
		var sweepJobs []service.Job
		for _, c := range workloads.Fig8Configs() {
			switch c.Name {
			case "SLU", "MM_256_dop4", "HT_Small", "ST_2048_dop16":
				c := c
				sweepJobs = append(sweepJobs, service.Job{Workload: c, Label: "GRWS",
					Make: func() taskrt.Scheduler { return sess.NewScheduler("GRWS") }})
			}
		}
		sweepReq := service.SweepRequest{
			Jobs:     sweepJobs,
			Scale:    0.05,
			Seed:     1,
			Repeats:  sweepRepeats,
			Parallel: 2,
		}
		// Warm the pool, arenas and schedulers so the row pays no
		// first-touch costs.
		sess.Submit(sweepReq)
		add("SessionSweepWarm", func(testing.BenchmarkResult) map[string]float64 {
			return map[string]float64{
				"tasks_per_s": float64(totalTasks) / elapsed.Seconds(),
			}
		}, func(b *testing.B) {
			totalTasks = 0
			start := time.Now()
			for i := 0; i < b.N; i++ {
				res, _ := sess.Submit(sweepReq)
				for _, m := range res.Reports {
					for _, rep := range m {
						totalTasks += rep.Stats.TasksExecuted * sweepRepeats
					}
				}
			}
			elapsed = time.Since(start)
		})

		// Warm plans, measured as the pair perfgate gates: the same
		// JOSS sweep served cold (a fresh plan cache every iteration, so
		// every cell pays sampling and configuration search) and warm
		// (one ordinary sweep filled the cache first, so every iteration
		// adopts resident plans and performs zero searches). Both rows
		// share the session, workloads, scale and seed. The load-bearing
		// column is plan_evals_per_op — 0 on the warm row proves
		// adoption; the ns/op gap is the search and sampling work a warm
		// cache removes from serving, a few percent here (see PERF.md
		// PR 9 for why a 1-vCPU runner hides most of it).
		var jossJobs []service.Job
		for _, c := range workloads.Fig8Configs() {
			switch c.Name {
			case "SLU", "MM_256_dop4", "HT_Small", "ST_2048_dop16":
				c := c
				jossJobs = append(jossJobs, service.Job{Workload: c, Label: "JOSS",
					Make: func() taskrt.Scheduler { return sess.NewScheduler("JOSS") }})
			}
		}
		jossReq := func(pc *sched.PlanCache) service.SweepRequest {
			return service.SweepRequest{
				Jobs:       jossJobs,
				Scale:      0.05,
				Seed:       1,
				Repeats:    1,
				Parallel:   2,
				SharePlans: true,
				Plans:      pc,
			}
		}
		var planEvals int
		add("ColdSweep", func(testing.BenchmarkResult) map[string]float64 {
			return map[string]float64{"plan_evals_per_op": float64(planEvals)}
		}, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sess.Submit(jossReq(sched.NewPlanCache()))
				if err != nil {
					b.Fatal(err)
				}
				planEvals = res.PlanEvals
			}
		})
		warmed := sched.NewPlanCache()
		if _, err := sess.Submit(jossReq(warmed)); err != nil {
			return err
		}
		add("PretrainedSweep", func(testing.BenchmarkResult) map[string]float64 {
			return map[string]float64{"plan_evals_per_op": float64(planEvals)}
		}, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sess.Submit(jossReq(warmed))
				if err != nil {
					b.Fatal(err)
				}
				planEvals = res.PlanEvals
			}
		})

		// The Figure 8 sweep with every reuse lever on: worker-pool
		// runtimes plus the cross-sweep plan cache. Same trained
		// environment as the cold benchmarks (the oracle and model set
		// are immutable), with its own empty plan cache.
		eShared := *e
		eShared.SharePlans = true
		eShared.Plans = sched.NewPlanCache()
		var fig8Warm *exp.Fig8Result
		add("Fig8SharedPlans", func(testing.BenchmarkResult) map[string]float64 {
			return map[string]float64{
				"joss_vs_grws": fig8Warm.GeoMean["JOSS"],
			}
		}, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fig8Warm = eShared.Fig8()
			}
		})
	}

	// The headline Figure 8 sweep at bench scale.
	var fig8 *exp.Fig8Result
	add("Fig8", func(testing.BenchmarkResult) map[string]float64 {
		return map[string]float64{
			"joss_vs_grws":  fig8.GeoMean["JOSS"],
			"steer_vs_grws": fig8.GeoMean["STEER"],
		}
	}, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fig8 = e.Fig8()
		}
	})

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("[bench report written to %s]\n", outPath)
	return nil
}
