// Command jossbench regenerates the paper's tables and figures on the
// simulated TX2 platform.
//
// Usage:
//
//	jossbench [-scale F] [-parallel N] [-csv] [-shareplans] [-planstore FILE]
//	          [-sensorperiod S] [-nosensor]
//	          [-cpuprofile FILE] [-memprofile FILE]
//	          [-mutexprofile FILE] [-blockprofile FILE]
//	          fig1|fig2|fig5|fig8|fig8split|fig9|fig10|overhead|extras|dopsweep|slu|table1|all
//
// Each subcommand prints the corresponding experiment's rows. The
// simulator's performance rows are ordinary benchmarks in the root
// package's bench_test.go (`go test -bench`), gated by cmd/perfgate.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"joss/internal/exp"
	"joss/internal/profiling"
	"joss/internal/workloads"
)

func main() {
	os.Exit(run())
}

// run is the whole program; it returns the exit code instead of calling
// os.Exit so the deferred profile flush (-cpuprofile/-memprofile)
// happens on every path.
func run() (code int) {
	scale := flag.Float64("scale", workloads.DefaultScale,
		"workload task-count scale (1 = paper-sized DAGs)")
	parallel := flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
	repeats := flag.Int("repeats", 1, "seeds per sweep cell, averaged (paper: 10)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	sharePlans := flag.Bool("shareplans", false,
		"share trained per-kernel plans across the whole sweep — repeats, sibling cells and later figures skip sampling for kernels already trained under the same scheduler options (faster, but results differ from the sampled-every-run default, even at -repeats 1)")
	planStore := flag.String("planstore", "",
		"path to a persistent plan store: trained plans are loaded before the sweep (a process started after another one trained performs zero plan searches for known kernels) and the merged store is written back on completion; implies -shareplans")
	sensorPeriod := flag.Float64("sensorperiod", 0,
		"power sensor sampling period in seconds (0 = the paper's 5 ms); coarser periods cut simulation events on large sweeps")
	noSensor := flag.Bool("nosensor", false,
		"disable the sampled power sensor for throughput sweeps; energies fall back to the event-exact integral")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	mutexProfile := flag.String("mutexprofile", "", "write a contended-mutex profile to this file on exit")
	blockProfile := flag.String("blockprofile", "", "write a goroutine-blocking profile to this file on exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: jossbench [flags] fig1|fig2|fig5|fig8|fig8split|fig9|fig10|overhead|extras|dopsweep|slu|table1|all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		return 2
	}
	// Reject invalid sweep parameters up front rather than clamping
	// them somewhere deep inside a sweep (-parallel 0 means GOMAXPROCS
	// and is the flag default; negative is an error).
	if *repeats < 1 {
		fmt.Fprintf(os.Stderr, "jossbench: -repeats must be >= 1, got %d\n", *repeats)
		return 2
	}
	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "jossbench: -parallel must be >= 0, got %d\n", *parallel)
		return 2
	}
	if *sensorPeriod < 0 {
		fmt.Fprintf(os.Stderr, "jossbench: -sensorperiod must be >= 0, got %g\n", *sensorPeriod)
		return 2
	}

	stopProf, err := profiling.StartProfiles(profiling.Profiles{
		CPU: *cpuProfile, Mem: *memProfile, Mutex: *mutexProfile, Block: *blockProfile,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "jossbench:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "jossbench:", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	e, err := exp.NewEnv(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jossbench:", err)
		return 1
	}
	if *parallel > 0 {
		e.Parallel = *parallel
	}
	e.Repeats = *repeats
	e.SharePlans = *sharePlans
	e.SensorPeriodSec = *sensorPeriod
	e.SensorOff = *noSensor
	if *planStore != "" {
		e.SharePlans = true
		n, err := e.Plans.LoadFile(*planStore, e.Oracle.Spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jossbench:", err)
			return 1
		}
		if !*csv {
			fmt.Printf("[plan store: %d plans loaded from %s]\n", n, *planStore)
		}
	}

	emit := func(t *exp.Table) {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.Render())
		}
	}

	run := func(name string) bool {
		start := time.Now()
		switch name {
		case "table1":
			emit(exp.Table1())
		case "fig1":
			emit(e.Fig1())
		case "fig2":
			emit(e.Fig2())
		case "fig5":
			emit(e.Fig5())
		case "fig8":
			emit(e.Fig8().Table)
		case "fig9":
			emit(e.Fig9().Table)
		case "fig10":
			emit(e.Fig10().Table)
		case "overhead":
			emit(e.Overhead().Table)
		case "extras":
			emit(e.Extras().Table)
		case "dopsweep":
			emit(e.DopSweep())
		case "slu":
			emit(e.SLUAnalysis())
		case "fig8split":
			emit(e.Fig8Split())
		default:
			fmt.Fprintf(os.Stderr, "jossbench: unknown experiment %q\n", name)
			return false
		}
		if !*csv {
			fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		}
		return true
	}

	// flushPlans writes the merged plan store back once the sweeps are
	// done, so the next -planstore process starts warm.
	flushPlans := func() bool {
		if *planStore == "" {
			return true
		}
		if err := e.Plans.SaveFileMerged(*planStore, e.Oracle.Spec); err != nil {
			fmt.Fprintln(os.Stderr, "jossbench:", err)
			return false
		}
		if !*csv {
			fmt.Printf("[plan store: %d plans saved to %s]\n", e.Plans.Len(), *planStore)
		}
		return true
	}

	if flag.Arg(0) == "all" {
		for _, name := range []string{"table1", "fig1", "fig2", "fig5", "fig8", "fig8split", "fig9", "fig10", "overhead", "extras", "dopsweep", "slu"} {
			if !run(name) {
				return 2
			}
		}
		if !flushPlans() {
			return 1
		}
		return 0
	}
	if !run(flag.Arg(0)) {
		return 2
	}
	if !flushPlans() {
		return 1
	}
	return 0
}
