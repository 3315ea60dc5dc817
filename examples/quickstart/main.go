// Quickstart: build a small task application, run it under the JOSS
// scheduler on the simulated Jetson TX2, and compare its energy
// against the GRWS work-stealing baseline.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"joss/internal/dag"
	"joss/internal/models"
	"joss/internal/platform"
	"joss/internal/sched"
	"joss/internal/taskrt"
)

func main() {
	// 1. The platform: an analytic model of the Jetson TX2 (Denver x2
	//    + A57 x4, five CPU frequencies, three memory frequencies).
	oracle := platform.DefaultOracle()

	// 2. The offline stage (once per platform): profile the synthetic
	//    benchmark suite and train the performance / CPU power /
	//    memory power models by multivariate polynomial regression.
	set, err := models.TrainDefault(oracle)
	if err != nil {
		log.Fatal(err)
	}

	// 3. The application: a DAG of two kernels. The "gemm" kernel is
	//    compute-bound, the "stream" kernel is memory-bound — JOSS
	//    will pick different <TC, NC, fC, fM> configurations for each.
	g := dag.New("quickstart")
	gemm := g.AddKernel("gemm", platform.TaskDemand{
		Ops: 30e6, Bytes: 0.8e6, ParEff: 0.95, Activity: 1.0, RowHit: 0.9,
	})
	stream := g.AddKernel("stream", platform.TaskDemand{
		Ops: 0.4e6, Bytes: 3e6, ParEff: 0.9, Activity: 0.4, RowHit: 0.95,
	})
	// Four pipelines of alternating compute and streaming stages.
	for p := 0; p < 4; p++ {
		var prev *dag.Task
		for i := 0; i < 100; i++ {
			k := gemm
			if i%2 == 1 {
				k = stream
			}
			if prev == nil {
				prev = g.AddTask(k)
			} else {
				prev = g.AddTask(k, prev)
			}
		}
	}

	// 4. Run under JOSS and under the GRWS baseline. Execution never
	//    mutates the graph, so both runs share it. Each run gets a new
	//    runtime here; Runtime.Reset would rewind one for the next run.
	run := func(s taskrt.Scheduler) taskrt.Report {
		return taskrt.New(oracle, s, taskrt.DefaultOptions()).Run(g)
	}
	joss := sched.NewJOSS(set)
	repJOSS := run(joss)
	repGRWS := run(sched.NewGRWS())

	fmt.Printf("%-6s makespan %.3fs  CPU %.2fJ  mem %.2fJ  total %.2fJ\n",
		"GRWS", repGRWS.MakespanSec, repGRWS.Exact.CPUJ, repGRWS.Exact.MemJ, repGRWS.Exact.TotalJ())
	fmt.Printf("%-6s makespan %.3fs  CPU %.2fJ  mem %.2fJ  total %.2fJ\n",
		"JOSS", repJOSS.MakespanSec, repJOSS.Exact.CPUJ, repJOSS.Exact.MemJ, repJOSS.Exact.TotalJ())
	fmt.Printf("JOSS saves %.1f%% energy\n",
		100*(1-repJOSS.Exact.TotalJ()/repGRWS.Exact.TotalJ()))

	// 5. Inspect the configurations JOSS selected per kernel.
	for _, k := range g.Kernels {
		if cfg, ok := joss.SelectedConfig(k); ok {
			fmt.Printf("kernel %-8s -> %s\n", k.Name, cfg)
		}
	}
}
