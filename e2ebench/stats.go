package main

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie beyond it, so p90 needs 100 samples.
const minBeyond = 10

// errTooFewSamples marks a percentile the rule refuses.
var errTooFewSamples = errors.New("too few samples beyond the percentile")

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses (errTooFewSamples) when
// fewer than minBeyond samples lie beyond the rank. xs need not be
// sorted; it is not modified. A failed operation enters as +Inf, so it
// counts as missing every latency limit.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of 0 samples: %w", 100*q, errTooFewSamples)
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d: %w",
			100*q, n, beyond, minBeyond, errTooFewSamples)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[idx], nil
}

// median is the plain middle value (mean of the two middle ones for an
// even count) used for repeated set-up and ledger timings, which carry
// too few samples for the percentile rule.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ops is the outcome record of a measured phase's operations: one
// latency per attempted operation, +Inf for a failed or refused one.
type ops struct {
	lat    []float64 // milliseconds
	failed int
}

func (o *ops) ok(d time.Duration) { o.lat = append(o.lat, ms(d)) }

func (o *ops) fail() {
	o.lat = append(o.lat, math.Inf(1))
	o.failed++
}

func (o *ops) attempted() int { return len(o.lat) }

// mark is a measured phase's state when one operation completed: the
// time since the phase started, the simulated tasks completed so far
// and the serving process's CPU time so far.
type mark struct {
	at    time.Duration
	tasks int64
	cpu   time.Duration
}

// markNow reads the phase's state now. A failed CPU read (the serving
// process is gone) reads as zero; measure's own reads report it.
func markNow(start time.Time, pid int, tasks int64) mark {
	cpu, _ := procCPU(pid)
	return mark{at: time.Since(start), tasks: tasks, cpu: cpu}
}

// groupSize is the fewest operations a group holds, so that a group's
// p90 has 10 samples beyond it.
const groupSize = 100

// summary is a phase's end-to-end figures, each the median over
// consecutive groups of operations.
type summary struct {
	p50, p90, rate, cpuPerTask float64
	groups                     int
}

// summarize splits a phase's operations, in completion order, into
// consecutive groups of at least groupSize (one group when there are
// fewer), and returns the medians over groups of each group's p50 and
// p90 latency, task rate and CPU per task. The host's neighbours take
// CPU in bursts of seconds; a median over groups keeps a burst inside
// one group from moving the run's figures. lat and marks are per
// operation; start is the phase's state at its start.
func summarize(lat []float64, marks []mark, start mark) (summary, error) {
	n := len(lat)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return marks[order[a]].at < marks[order[b]].at })
	k := max(n/groupSize, 1)
	var p50s, p90s, rates, cpus []float64
	prev := start
	for g := 0; g < k; g++ {
		idx := order[g*n/k : (g+1)*n/k]
		gl := make([]float64, len(idx))
		for i, j := range idx {
			gl[i] = lat[j]
		}
		p50, err := percentile(gl, 0.5)
		if err != nil {
			return summary{}, err
		}
		p90, err := percentile(gl, 0.9)
		if err != nil {
			p90 = math.NaN() // a traced half-phase reports p50 only
		}
		end := marks[idx[len(idx)-1]]
		tasks := float64(end.tasks - prev.tasks)
		if tasks <= 0 {
			return summary{}, fmt.Errorf("a group of %d operations completed no simulated tasks", len(idx))
		}
		p50s, p90s = append(p50s, p50), append(p90s, p90)
		rates = append(rates, tasks/(end.at-prev.at).Seconds())
		cpus = append(cpus, float64((end.cpu-prev.cpu).Nanoseconds())/tasks)
		prev = end
	}
	return summary{p50: median(p50s), p90: median(p90s), rate: median(rates), cpuPerTask: median(cpus), groups: k}, nil
}

// metricName is the name rule every reported metric obeys.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// endToEndNames and perLayerNames are the metric sets an untraced and a
// traced run print; they match BENCHMARK.json, and a run that would
// print any other set fails instead.
var (
	endToEndNames = []string{"setup_s", "latency_p50_ms", "latency_p90_ms",
		"sim_tasks_per_s", "cpu_ns_per_task", "rss_peak_mb"}
	perLayerNames = []string{
		"setup.warmup_s", "setup.profile_s", "setup.train_s", "setup.erase_s", "setup.session_s",
		"dispatch.queue_wait_ms", "dispatch.queue_wait_p90_ms",
		"dispatch.claims_batch_per_op", "dispatch.claims_scalar_per_op",
		"dispatch.claim_ms_batch", "dispatch.claim_ms_scalar",
		"dispatch.busy_frac", "dispatch.units_dropped",
		"sched.plan_search_ms_per_op", "sched.plan_evals_per_op",
		"service.http_server_ms", "service.job_queue_wait_ms", "jossd.loopback_ms",
		"workloads.build_us", "workloads.build_allocs",
		"taskrt.run_ns_per_task", "taskrt.run_allocs", "taskrt.tasks_per_op",
		"service.submit_ms", "service.handler_ms", "service.response_kb",
		"trace.overhead_p50_ms", "trace.overhead_sim_tasks_per_s",
	}
)

// metric is one reported value with its unit and the number of samples
// it summarises.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// metrics is a run's metric set by name.
type metrics map[string]metric

func (ms metrics) add(name, unit string, v float64, samples int) {
	if !metricName.MatchString(name) {
		panic("invalid metric name " + name)
	}
	ms[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// expect checks the set holds exactly the named metrics.
func (ms metrics) expect(names []string) error {
	for _, n := range names {
		if _, ok := ms[n]; !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
	}
	if len(ms) != len(names) {
		return fmt.Errorf("measured %d metrics, want exactly %v", len(ms), names)
	}
	return nil
}
