// Command jossrun executes one benchmark under one scheduler on the
// simulated TX2 and prints the energy and time breakdown — the
// single-run counterpart of jossbench's sweeps.
//
// Usage:
//
//	jossrun [-scale F] [-seed N] [-speedup S] [-planstore FILE] -bench NAME -sched NAME
//	jossrun -connect URL [-retries N] [-scale F] [-seed N] [-repeats N] [-speedup S] [-traceout FILE] -bench NAME -sched NAME
//	jossrun -connect URL -async [-retries N] [-scale F] [-seed N] [-repeats N] -bench NAME -sched NAME
//	jossrun -connect URL -watch JOBID
//	jossrun -connect URL -train [-scale F] [-seed N] [-bench A,B|all] [-sched X,Y|all]
//	jossrun -fleet URL1,URL2,... [-scale F] [-seed N] [-repeats N] [-metrics] [-bench A,B|all] [-sched X,Y|all]
//	jossrun -fleet URL1,URL2,... -train [-scale F] [-seed N] [-bench A,B|all] [-sched X,Y|all]
//
// Benchmarks: the 21 Figure 8 configurations (e.g. SLU, MM_256_dop4).
// Schedulers: GRWS, ERASE, Aequitas, STEER, JOSS, JOSS_NoMemDVFS,
// JOSS+MAXP, or JOSS with -speedup for a performance constraint.
//
// With -connect the run is not simulated locally: the request is
// posted to a jossd daemon (URL http://host:port, or unix://PATH for a
// daemon on a unix socket), which serves it from its warm session —
// resident runtimes, trained models and the shared plan store. A
// second request for an already-trained kernel performs zero plan
// searches on the daemon.
//
// -async posts the run as a fire-and-forget job (POST /jobs) and
// prints the job id without waiting: the daemon's fair-share
// dispatcher interleaves it with other requests, and -watch JOBID
// attaches later — polling GET /jobs/JOBID with progress lines until
// the result is served (or the job is cancelled via DELETE).
//
// -train pre-trains plans instead of running anything: with -connect
// it posts the -bench/-sched grid (comma lists or "all") to the
// daemon's /train endpoint — claim-based single-flight training, so
// concurrent trainers and sweeps never search the same plan twice —
// and with -fleet it warms every shard's ring slice in parallel, so a
// following fleet sweep over the same grid, scale and seed performs
// zero plan searches on every shard.
//
// Transient failures — the daemon unreachable, 429 when its admission
// bounds are full, 5xx while it drains — are retried up to -retries
// times with jittered exponential backoff, honouring the daemon's
// Retry-After hint; -retries 0 fails fast on the first refusal.
//
// -fleet shards one sweep across several daemons: cells are routed by
// benchmark identity on a consistent hash ring (keeping each daemon's
// plan cache warm for its kernels), a dead or draining shard's
// unfinished cells fail over to survivors, an overloaded shard's cells
// spill to the next ring candidate, and the merged per-cell reports
// are byte-identical to a single daemon's /sweep response. -bench and
// -sched accept comma lists or "all" in this mode; -metrics follows
// the sweep with every shard's /metrics scraped and summed plus the
// coordinator's own failover counters.
//
// -traceout FILE (with -connect) requests the run with ?trace=1: the
// daemon records a Chrome trace-event log of the simulation — an
// observer that never perturbs the result — and the trace JSON is
// written to FILE for chrome://tracing or Perfetto.
//
// Remote-mode exit codes: 1 permanent failure (the daemon rejected the
// request — retrying cannot help), 2 usage error, 3 transient failure
// (retries exhausted against an overloaded/unreachable daemon, or a
// fleet sweep that lost cells — worth retrying; the final Retry-After
// and backoff state are printed).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"joss/internal/exp"
	"joss/internal/platform"
	"joss/internal/sched"
	"joss/internal/service"
	"joss/internal/taskrt"
	"joss/internal/trace"
	"joss/internal/workloads"
)

func main() {
	benchName := flag.String("bench", "SLU", "benchmark configuration name")
	schedName := flag.String("sched", "JOSS", "scheduler name")
	scale := flag.Float64("scale", workloads.DefaultScale, "task-count scale")
	seed := flag.Int64("seed", 1, "simulation seed")
	speedup := flag.Float64("speedup", 0, "JOSS performance constraint (e.g. 1.4)")
	planStore := flag.String("planstore", "",
		"path to a persistent plan store shared with jossbench: known plans are adopted (skipping sampling and search) and newly trained ones written back")
	connect := flag.String("connect", "",
		"serve the run from a jossd daemon instead of simulating locally (http://host:port, or unix://PATH)")
	fleetList := flag.String("fleet", "",
		"shard a sweep across a comma-separated fleet of jossd daemons with failover (-bench/-sched take comma lists or \"all\")")
	async := flag.Bool("async", false,
		"with -connect: enqueue the run as a daemon job (POST /jobs) and print its id instead of waiting")
	watch := flag.String("watch", "",
		"with -connect: attach to an existing daemon job by id, poll its progress and print the result")
	train := flag.Bool("train", false,
		"with -connect: pre-train the -bench/-sched grid's plans on the daemon (POST /train); with -fleet: warm every shard's ring slice")
	repeats := flag.Int("repeats", 1, "with -connect: seeds per cell, averaged on the daemon")
	retries := flag.Int("retries", 4,
		"with -connect: retries for transient failures (dial errors, 429 overload, 5xx), with jittered exponential backoff honouring Retry-After")
	traceRemote := flag.String("traceout", "",
		"with -connect: request the run with ?trace=1 and write the daemon's Chrome trace-event JSON to this file (single run only)")
	showMetrics := flag.Bool("metrics", false,
		"with -fleet: after the sweep, scrape every shard's /metrics?format=json and print the summed fleet-wide series plus the coordinator's joss_fleet_* counters")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file")
	gantt := flag.Bool("gantt", false, "print a text Gantt chart of the run")
	dotOut := flag.String("dot", "", "write the task DAG in Graphviz DOT format (truncated to 400 tasks)")
	flag.Parse()

	if *connect == "" && (*async || *watch != "") {
		fmt.Fprintln(os.Stderr, "jossrun: -async and -watch are -connect modes (the job lives on a daemon)")
		os.Exit(exitUsage)
	}
	if *train && *connect == "" && *fleetList == "" {
		fmt.Fprintln(os.Stderr, "jossrun: -train needs -connect (train one daemon) or -fleet (warm every shard's ring slice); local runs train lazily")
		os.Exit(exitUsage)
	}
	if *train && (*async || *watch != "") {
		fmt.Fprintln(os.Stderr, "jossrun: -train does not combine with -async/-watch (poll its job via curl /train?async=1 instead)")
		os.Exit(exitUsage)
	}
	if *traceRemote != "" {
		if *connect == "" {
			fmt.Fprintln(os.Stderr, "jossrun: -traceout is a -connect mode (the daemon records the trace); local runs use -trace")
			os.Exit(exitUsage)
		}
		if *async || *watch != "" || *train {
			fmt.Fprintln(os.Stderr, "jossrun: -traceout traces a synchronous /run; it does not combine with -async/-watch/-train")
			os.Exit(exitUsage)
		}
		if *repeats != 1 {
			fmt.Fprintln(os.Stderr, "jossrun: -traceout traces one simulation; use -repeats 1")
			os.Exit(exitUsage)
		}
	}
	if *showMetrics && *fleetList == "" {
		fmt.Fprintln(os.Stderr, "jossrun: -metrics aggregates a fleet's shards; it needs -fleet (a single daemon is curl /metrics)")
		os.Exit(exitUsage)
	}
	if *fleetList != "" {
		if *connect != "" || *async || *watch != "" {
			fmt.Fprintln(os.Stderr, "jossrun: -fleet shards a sweep itself; it does not combine with -connect/-async/-watch")
			os.Exit(exitUsage)
		}
		if *traceOut != "" || *gantt || *dotOut != "" || *planStore != "" {
			fmt.Fprintln(os.Stderr, "jossrun: -trace/-gantt/-dot/-planstore are local-run options (the daemons own their plan stores)")
			os.Exit(exitUsage)
		}
		targets := splitList(*fleetList)
		if len(targets) == 0 {
			fmt.Fprintln(os.Stderr, "jossrun: -fleet wants a comma-separated list of daemon targets")
			os.Exit(exitUsage)
		}
		if *train {
			if err := fleetWarmup(targets, *benchName, *schedName, *speedup, *scale, *seed); err != nil {
				fmt.Fprintln(os.Stderr, "jossrun:", err)
				os.Exit(exitCode(err))
			}
			return
		}
		if err := fleetSweep(targets, *benchName, *schedName, *speedup, *scale, *seed, *repeats, *showMetrics); err != nil {
			fmt.Fprintln(os.Stderr, "jossrun:", err)
			os.Exit(exitCode(err))
		}
		return
	}
	if *connect != "" {
		if *traceOut != "" || *gantt || *dotOut != "" || *planStore != "" {
			fmt.Fprintln(os.Stderr, "jossrun: -trace/-gantt/-dot/-planstore are local-run options (the daemon owns its plan store)")
			os.Exit(exitUsage)
		}
		if *retries < 0 {
			fmt.Fprintln(os.Stderr, "jossrun: -retries must be >= 0")
			os.Exit(exitUsage)
		}
		var err error
		switch {
		case *async && *watch != "":
			err = fmt.Errorf("-async enqueues a new job, -watch attaches to an existing one; pick one")
		case *train:
			err = trainRemote(*connect, *benchName, *schedName, *speedup, *scale, *seed, *retries)
		case *watch != "":
			err = watchRemote(*connect, *watch, *retries)
		case *async:
			err = asyncRemote(*connect, *benchName, *schedName, *speedup, *scale, *seed, *repeats, *retries)
		default:
			err = runRemote(*connect, *benchName, *schedName, *speedup, *scale, *seed, *repeats, *retries, *traceRemote)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "jossrun:", err)
			os.Exit(exitCode(err))
		}
		return
	}
	if *repeats != 1 {
		// Local mode runs exactly one seeded simulation; silently
		// printing a single run as if it were an average would mislead.
		fmt.Fprintln(os.Stderr, "jossrun: -repeats applies to -connect runs (the daemon averages); local mode runs one seed")
		os.Exit(2)
	}

	wl, names, ok := service.FindWorkload(*benchName)
	if !ok {
		fmt.Fprintf(os.Stderr, "jossrun: unknown benchmark %q; available: %s\n",
			*benchName, strings.Join(names, ", "))
		os.Exit(2)
	}

	e, err := exp.NewEnv(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jossrun:", err)
		os.Exit(1)
	}
	e.Seed = *seed

	var s taskrt.Scheduler
	switch {
	case *speedup > 1:
		s = sched.NewJOSSConstrained(e.Set, *speedup)
	case strings.EqualFold(*schedName, "JOSS+MAXP"):
		s = sched.NewJOSSMaxP(e.Set)
	default:
		if s, err = e.Session().ParseScheduler(*schedName); err != nil {
			fmt.Fprintf(os.Stderr, "jossrun: %v; available: %s\n",
				err, strings.Join(service.SchedulerCatalog, ", "))
			os.Exit(exitUsage)
		}
	}

	if *planStore != "" {
		e.SharePlans = true
		n, err := e.LoadPlanStore(*planStore)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jossrun:", err)
			os.Exit(1)
		}
		if ms, ok := s.(*sched.ModelSched); ok {
			ms.SetPlanCache(e.Plans, *scale)
		}
		fmt.Printf("[plan store: %d plans loaded from %s]\n", n, *planStore)
	}

	g := wl.Build(*scale)
	if *dotOut != "" {
		f, err := os.Create(*dotOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jossrun:", err)
			os.Exit(1)
		}
		if err := g.WriteDOT(f, 400); err != nil {
			fmt.Fprintln(os.Stderr, "jossrun:", err)
		}
		f.Close()
	}
	fmt.Printf("running %s (%d tasks, %d kernels, dop %.1f) under %s...\n",
		g.Name, g.NumTasks(), len(g.Kernels), g.DOP(), s.Name())

	var tr *trace.Trace
	opt := taskrt.DefaultOptions()
	opt.Seed = *seed
	if *traceOut != "" || *gantt {
		tr = &trace.Trace{}
		opt.Trace = tr
	}
	rt := taskrt.New(e.Oracle, s, opt)
	rep := rt.Run(g)

	if *planStore != "" {
		if err := e.SavePlanStore(*planStore); err != nil {
			fmt.Fprintln(os.Stderr, "jossrun:", err)
			os.Exit(1)
		}
		fmt.Printf("[plan store: %d plans saved to %s]\n", e.Plans.Len(), *planStore)
	}

	en := exp.EnergyOf(rep)
	fmt.Printf("\nmakespan        %.4f s\n", rep.MakespanSec)
	fmt.Printf("CPU energy      %.4f J\n", en.CPUJ)
	fmt.Printf("memory energy   %.4f J\n", en.MemJ)
	fmt.Printf("total energy    %.4f J  (avg %.3f W)\n",
		en.TotalJ(), en.TotalJ()/rep.MakespanSec)
	fmt.Printf("tasks executed  %d (steals %d, recruitments %d)\n",
		rep.Stats.TasksExecuted, rep.Stats.Steals, rep.Stats.Recruitments)
	fmt.Printf("DVFS            %d requests, %d CPU + %d memory transitions\n",
		rep.Stats.FreqRequests, rep.Stats.TransitionsCPU, rep.Stats.TransitionsMem)

	if tr != nil {
		if *gantt {
			fmt.Println()
			fmt.Print(tr.Gantt(100))
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "jossrun:", err)
				os.Exit(1)
			}
			if err := tr.WriteChrome(f); err != nil {
				fmt.Fprintln(os.Stderr, "jossrun:", err)
			}
			f.Close()
			fmt.Printf("\ntrace written to %s\n", *traceOut)
		}
	}

	fmt.Printf("\ntasks per core type:\n")
	for tc := platform.CoreType(0); tc < platform.NumCoreTypes; tc++ {
		fmt.Printf("  %-8s %d\n", tc.String(), rep.Stats.TasksByType[tc])
	}
	kernels := append([]taskrt.KernelCount(nil), rep.Stats.Kernels...)
	sort.Slice(kernels, func(i, j int) bool { return kernels[i].Name < kernels[j].Name })
	fmt.Printf("\nper-kernel core-type split:\n")
	for _, kc := range kernels {
		fmt.Printf("  %-14s Denver %-7d A57 %d\n",
			kc.Name, kc.ByType[platform.Denver], kc.ByType[platform.A57])
	}
}
