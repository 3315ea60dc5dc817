// Command e2ebench is the JOSS reproduction's end-to-end benchmark. One
// invocation runs one workload for a fixed measured phase, checks every
// output it receives, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer ledger) by name with unit and sample count.
// The last line of standard output is a JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {value, unit}}}
//
// Workloads (see README.md for why each was chosen):
//
//	fig8-sweep         in-process Session.Submit of the Figure 8 grid, closed loop
//	serve-run          POST /sweep of the ledger request to a loopback jossd, closed loop
//	probe-under-sweep  open-loop POST /run probes while a streamed grid saturates jossd
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash e2ebench/run.sh --workload fig8-sweep --seed 1 --seconds 30 --trace 0
//	e2ebench --compare before.txt after.txt
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one benchmark workload's live state.
type workload interface {
	// setup performs one complete set-up, from nothing to ready to
	// measure, and returns its duration and the warm-up pass's share.
	// Only the set-up with keep true stays up for measuring.
	setup(keep bool) (total, warmup time.Duration, err error)
	// phase runs the workload for d and reports what it measured.
	phase(d time.Duration) (phaseResult, error)
	// servingPID is the process serving the workload (0 = this one).
	servingPID() int
	// snapshot reads the serving process's metric registry.
	snapshot() (snapshot, error)
	// ledger measures the workload's request shape at each layer
	// boundary on a quiet session and adds the per-layer rows.
	ledger(l *ledgerRun) error
	// finish runs the output checks that follow the measured phase.
	finish() error
	// close stops everything the workload started.
	close() error
}

// phaseResult is one measured phase: an outcome per operation, the
// simulated tasks completed, the phase's wall time from its start until
// its last operation ended, and, for an open loop, how late the
// generator ran and each operation's latency from its actual send.
type phaseResult struct {
	ops ops
	// marks holds the phase's state at each operation's completion, in
	// the order of ops; start is its state when it began.
	marks    []mark
	start    mark
	tasks    int64
	wall     time.Duration
	late     []float64 // ms
	fromSend []float64 // ms
	// cpu is the serving process's CPU time over the phase, steal the
	// machine's steal time (seconds) and rssMB the serving process's
	// peak RSS at its end; measure fills them.
	cpu   time.Duration
	steal float64
	rssMB float64
	// mismatch is the first output-check failure; any makes the run
	// incorrect.
	mismatch error
}

// failedOp is an operation the daemon refused (a non-200 status) or
// that never got a response: a failed operation, not an output
// mismatch.
type failedOp struct {
	code int // 0 when no response arrived
	msg  string
}

func (e *failedOp) Error() string {
	if e.code == 0 {
		return "no response: " + e.msg
	}
	return fmt.Sprintf("HTTP %d: %s", e.code, e.msg)
}

// outcome records one operation: success, a failed operation (failedOp,
// whose latency becomes +Inf), or an output mismatch (kept if it is the
// first). It reports whether the operation succeeded.
func (ph *phaseResult) outcome(lat time.Duration, err error) bool {
	var failed *failedOp
	switch {
	case err == nil:
		ph.ops.ok(lat)
		return true
	case errors.As(err, &failed):
		ph.ops.fail()
	default:
		ph.ops.ok(lat)
		if ph.mismatch == nil {
			ph.mismatch = fmt.Errorf("operation %d: %w", ph.ops.attempted(), err)
		}
	}
	return false
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	jossd    string
}

// setups is how many times a run sets its workload up; setup_s is the
// median. One set-up (7-14 ms for DefaultConfig and New alone) is too
// short and too exposed to the host's neighbours to stand on its own.
const setups = 7

func main() {
	var o options
	var trace int
	var child bool
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "workload: fig8-sweep, serve-run or probe-under-sweep")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's request seeds derive from")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: print the per-layer ledger instead of the end-to-end metrics")
	flag.StringVar(&o.jossd, "jossd", "", "path to a jossd binary built from the same tree (serve-run, probe-under-sweep and the fig8-sweep ledger)")
	flag.BoolVar(&child, "setup-child", false, "perform one set-up, print its timing as JSON and exit (used by fig8-sweep)")
	flag.BoolVar(&compare, "compare", false, "compare the result records in two saved outputs: e2ebench -compare A B")
	flag.Parse()
	o.trace = trace == 1

	if compare {
		if flag.NArg() != 2 {
			fatalf("usage: e2ebench -compare A B")
		}
		if err := compareRecords(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if flag.NArg() != 0 || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fatalf("usage: e2ebench --workload NAME --seed N --seconds S --trace 0|1 [--jossd PATH]")
	}
	w, err := newWorkload(o)
	if err != nil {
		fatalf("%v", err)
	}
	if child {
		total, warm, err := w.setup(true)
		cerr := w.close()
		if err == nil {
			err = cerr
		}
		if err != nil {
			fatalf("set-up: %v", err)
		}
		json.NewEncoder(os.Stdout).Encode(childTiming{Total: total.Seconds(), Warmup: warm.Seconds()})
		return
	}
	rec, err := run(o, w)
	if cerr := w.close(); err == nil && cerr != nil {
		err = fmt.Errorf("stopping the workload: %w", cerr)
	}
	if err != nil && !errors.Is(err, errIncorrect) {
		fatalf("%s: %v", o.workload, err)
	}
	rec.print(os.Stdout)
	if err != nil || !rec.Correct {
		os.Exit(1)
	}
}

// childTiming is what a -setup-child process prints.
type childTiming struct {
	Total  float64 `json:"setup_s"`
	Warmup float64 `json:"warmup_s"`
}

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", a...)
	os.Exit(2)
}

// errIncorrect marks a run whose outputs failed a check: it still
// prints its record, then exits non-zero.
var errIncorrect = errors.New("output check failed")

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "fig8-sweep":
		return newFig8(o)
	case "serve-run":
		return newServe(o)
	case "probe-under-sweep":
		return newProbe(o)
	}
	return nil, fmt.Errorf("unknown workload %q (want fig8-sweep, serve-run or probe-under-sweep)", o.workload)
}

// run sets the workload up setups times, measures it, checks it and,
// for a traced run, takes the per-layer ledger.
func run(o options, w workload) (*record, error) {
	// The driver runs from e2ebench/, inside the repository.
	root, _ := filepath.Abs("..")
	rec := &record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Host: hostInfo(root), Correct: true, Metrics: make(metrics)}
	var setupTimes, warmups []float64
	for i := 0; i < setups; i++ {
		total, warm, err := w.setup(i == setups-1)
		if err != nil {
			return rec, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupTimes = append(setupTimes, total.Seconds())
		warmups = append(warmups, warm.Seconds())
	}
	rec.Setups = setupTimes

	d := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		ph, err := measure(w, d)
		if err != nil {
			return rec, err
		}
		rec.addPhase(ph)
		if rec.Groups, err = endToEnd(rec.Metrics, ph, setupTimes); err != nil {
			return rec, err
		}
	} else {
		// A traced run measures half its time untraced and half with
		// the /metrics snapshots around it; the difference between the
		// two halves' end-to-end numbers is the tracing overhead.
		plain, err := measure(w, d/2)
		if err != nil {
			return rec, err
		}
		before, err := w.snapshot()
		if err != nil {
			return rec, err
		}
		traced, err := measure(w, d/2)
		if err != nil {
			return rec, err
		}
		after, err := w.snapshot()
		if err != nil {
			return rec, err
		}
		rec.addPhase(plain)
		rec.addPhase(traced)
		l := &ledgerRun{jossd: o.jossd, phase: traced, before: before, after: after, workers: runtime.NumCPU(), m: make(metrics)}
		l.add("setup.warmup_s", "s", median(warmups), len(warmups))
		if err := l.setupStages(); err != nil {
			return rec, fmt.Errorf("ledger: %w", err)
		}
		if err := w.ledger(l); err != nil {
			return rec, fmt.Errorf("ledger: %w", err)
		}
		if err := l.overhead(plain, traced); err != nil {
			return rec, err
		}
		rec.Metrics = l.m
		rec.CrossCheck = l.cross
	}
	want := endToEndNames
	if o.trace {
		want = perLayerNames
	}
	if err := rec.Metrics.expect(want); err != nil {
		return rec, err
	}
	if err := w.finish(); err != nil {
		rec.Correct = false
		rec.Mismatch = append(rec.Mismatch, err.Error())
	}
	if !rec.Correct {
		return rec, errIncorrect
	}
	return rec, nil
}

// measure runs one phase bracketed by the serving process's CPU time
// and the machine's steal time.
func measure(w workload, d time.Duration) (phaseResult, error) {
	pid := w.servingPID()
	cpu0, err := procCPU(pid)
	if err != nil {
		return phaseResult{}, err
	}
	steal0 := stealTicks()
	ph, err := w.phase(d)
	if err != nil {
		return ph, err
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return ph, err
	}
	ph.cpu = cpu1 - cpu0
	ph.steal = float64(stealTicks()-steal0) / clockTicks
	ph.rssMB, err = peakRSSMB(pid)
	return ph, err
}

// endToEnd derives the six end-to-end metrics from a phase and
// returns the number of operation groups they are medians over.
func endToEnd(m metrics, ph phaseResult, setupTimes []float64) (int, error) {
	// The whole phase must meet the percentile rule even where its
	// groups' medians are reported.
	if _, err := percentile(ph.ops.lat, 0.9); err != nil {
		return 0, err
	}
	s, err := summarize(ph.ops.lat, ph.marks, ph.start)
	if err != nil {
		return 0, err
	}
	n := ph.ops.attempted()
	m.add("setup_s", "s", median(setupTimes), len(setupTimes))
	m.add("latency_p50_ms", "ms", s.p50, n)
	m.add("latency_p90_ms", "ms", s.p90, n)
	m.add("sim_tasks_per_s", "1/s", s.rate, n)
	m.add("cpu_ns_per_task", "ns", s.cpuPerTask, n)
	m.add("rss_peak_mb", "MiB", ph.rssMB, 1)
	return s.groups, nil
}

// record is everything one run reports. print writes it for people,
// then as a "record" JSON line (what -compare reads), then the
// contract's result line last.
type record struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Trace      bool      `json:"trace"`
	Host       host      `json:"host"`
	Correct    bool      `json:"correct"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Mismatch   []string  `json:"mismatch,omitempty"`
	Setups     []float64 `json:"setup_samples_s"`
	Wall       float64   `json:"wall_s"`
	StealS     float64   `json:"steal_s"`
	Tasks      int64     `json:"sim_tasks"`
	CPUS       float64   `json:"serving_cpu_s"`
	Groups     int       `json:"groups,omitempty"`
	LateP90MS  float64   `json:"generator_late_p90_ms,omitempty"`
	LateMaxMS  float64   `json:"generator_late_max_ms,omitempty"`
	LateN      int       `json:"generator_late_samples,omitempty"`
	Metrics    metrics   `json:"metrics"`
	CrossCheck []string  `json:"cross_check,omitempty"`
	late       []float64
}

// addPhase folds a phase's counts into the record.
func (r *record) addPhase(ph phaseResult) {
	r.Attempted += ph.ops.attempted()
	r.Failed += ph.ops.failed
	r.Wall += ph.wall.Seconds()
	r.StealS += ph.steal
	r.Tasks += ph.tasks
	r.CPUS += ph.cpu.Seconds()
	if ph.mismatch != nil {
		r.Correct = false
		r.Mismatch = append(r.Mismatch, ph.mismatch.Error())
	}
	r.late = append(r.late, ph.late...)
	if len(r.late) > 0 {
		r.LateN = len(r.late)
		r.LateMaxMS = math.Inf(-1)
		for _, v := range r.late {
			r.LateMaxMS = math.Max(r.LateMaxMS, v)
		}
		r.LateP90MS, _ = percentile(r.late, 0.9)
	}
}
