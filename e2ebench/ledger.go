package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"time"

	"joss/internal/dag"
	"joss/internal/models"
	"joss/internal/platform"
	"joss/internal/sched"
	"joss/internal/service"
	"joss/internal/synth"
	"joss/internal/taskrt"
)

// quietTime is how long each quiet ledger row repeats its operation
// (at least minReps times).
const (
	quietTime = time.Second
	minReps   = 3
)

// ledgerRun collects a traced run's per-layer rows: the deltas of the
// serving process's metric registry over the traced phase, and the
// workload's request shape timed at each layer boundary on a quiet
// session — BuildReuse, taskrt Reset+Run, Session.Submit, the
// in-process handler, and jossd over loopback TCP. Every row is timed
// from the benchmark's side of the boundary; no span lives in the
// program.
type ledgerRun struct {
	jossd         string
	phase         phaseResult
	before, after snapshot
	workers       int
	m             metrics
	cross         []string
}

func (l *ledgerRun) add(name, unit string, v float64, n int) { l.m.add(name, unit, v, n) }

// repeat calls fn at least minReps times and until quietTime has
// passed, returning each call's duration in milliseconds.
func repeat(fn func() error) ([]float64, error) {
	var out []float64
	start := time.Now()
	for len(out) < minReps || time.Since(start) < quietTime {
		t := time.Now()
		if err := fn(); err != nil {
			return out, err
		}
		out = append(out, ms(time.Since(t)))
	}
	return out, nil
}

// setupStages times DefaultConfig's stages and service.New one by one,
// as many times as the run sets up.
func (l *ledgerRun) setupStages() error {
	var prof, train, erase, sess []float64
	for i := 0; i < setups; i++ {
		o := platform.DefaultOracle()
		t0 := time.Now()
		rows := synth.Profile(o)
		t1 := time.Now()
		set, err := models.Train(o, rows)
		if err != nil {
			return err
		}
		t2 := time.Now()
		et := sched.BuildERASETable(rows)
		t3 := time.Now()
		if _, err := service.New(service.Config{Oracle: o, Set: set, ERASE: et}); err != nil {
			return err
		}
		t4 := time.Now()
		prof = append(prof, t1.Sub(t0).Seconds())
		train = append(train, t2.Sub(t1).Seconds())
		erase = append(erase, t3.Sub(t2).Seconds())
		sess = append(sess, t4.Sub(t3).Seconds())
	}
	l.add("setup.profile_s", "s", median(prof), len(prof))
	l.add("setup.train_s", "s", median(train), len(train))
	l.add("setup.erase_s", "s", median(erase), len(erase))
	l.add("setup.session_s", "s", median(sess), len(sess))
	return nil
}

// phaseLayers derives the dispatch, plan-search and (for a daemon
// workload, endpoint non-empty) HTTP rows from the registry deltas over
// the traced phase, and lists every delta for the cross-check.
func (l *ledgerRun) phaseLayers(endpoint string) {
	ops := float64(l.phase.ops.attempted())
	d := func(name string, labels map[string]string) hdelta { return l.before.delta(l.after, name, labels) }
	batch, scalar := map[string]string{"claim": "batch"}, map[string]string{"claim": "scalar"}
	qw := d("joss_dispatch_queue_wait_seconds", nil)
	l.add("dispatch.queue_wait_ms", "ms", 1000*qw.mean(), int(qw.count))
	l.add("dispatch.queue_wait_p90_ms", "ms", 1000*qw.quantile(0.9), int(qw.count))
	cb, cs := d("joss_dispatch_claims_total", batch), d("joss_dispatch_claims_total", scalar)
	l.add("dispatch.claims_batch_per_op", "count", cb.count/ops, int(ops))
	l.add("dispatch.claims_scalar_per_op", "count", cs.count/ops, int(ops))
	sb, ss := d("joss_dispatch_service_seconds", batch), d("joss_dispatch_service_seconds", scalar)
	l.add("dispatch.claim_ms_batch", "ms", 1000*sb.mean(), int(sb.count))
	l.add("dispatch.claim_ms_scalar", "ms", 1000*ss.mean(), int(ss.count))
	l.add("dispatch.busy_frac", "ratio", (sb.sum+ss.sum)/(float64(l.workers)*l.phase.wall.Seconds()), int(sb.count+ss.count))
	l.add("dispatch.units_dropped", "count", d("joss_dispatch_units_dropped_total", nil).count, 1)
	ps := d("joss_service_plan_search_seconds", nil)
	l.add("sched.plan_search_ms_per_op", "ms", 1000*ps.sum/ops, int(ops))
	if endpoint != "" {
		hs := d("joss_http_request_seconds", map[string]string{"endpoint": endpoint})
		jq := d("joss_service_job_queue_wait_seconds", nil)
		l.add("service.http_server_ms", "ms", 1000*hs.mean(), int(hs.count))
		l.add("service.job_queue_wait_ms", "ms", 1000*jq.mean(), int(jq.count))
		fromSend := l.phase.fromSend
		if fromSend == nil {
			fromSend = l.phase.ops.lat
		}
		l.add("jossd.loopback_ms", "ms", mean(fromSend)-1000*hs.mean(), len(fromSend))
	}
	l.cross = append(l.cross, fmt.Sprintf("/metrics cross-check over the traced phase (%d operations, wall %.3fs, client mean %.3fms):",
		l.phase.ops.attempted(), l.phase.wall.Seconds(), mean(l.phase.ops.lat)))
	l.crossDeltas(l.before, l.after)
}

// crossDeltas lists every joss_dispatch_*, joss_service_* and joss_http_*
// series that moved between two snapshots.
func (l *ledgerRun) crossDeltas(before, after snapshot) {
	keys := make([]string, 0, len(after))
	for k := range after {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p := after[k]
		if !strings.HasPrefix(p.Name, "joss_dispatch_") && !strings.HasPrefix(p.Name, "joss_service_") &&
			!strings.HasPrefix(p.Name, "joss_http_") {
			continue
		}
		dd := before.delta(after, p.Name, p.Labels)
		switch {
		case p.Type == "histogram" && dd.count != 0:
			l.cross = append(l.cross, fmt.Sprintf("  %-62s Δcount %8.0f  Δsum %10.4fs  mean %9.3fms  p90 %9.3fms",
				k, dd.count, dd.sum, 1000*dd.mean(), 1000*dd.quantile(0.9)))
		case p.Type == "counter" && dd.count != 0:
			l.cross = append(l.cross, fmt.Sprintf("  %-62s Δ %8.0f", k, dd.count))
		}
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// schedCache recycles schedulers per label the way a session worker
// does: model schedulers rewind with Reset (re-attached to the plan
// cache when plans are shared), RunResetters with ResetRun, anything
// else is built fresh per run.
type schedCache struct {
	sess *service.Session
	req  service.SweepRequest
	m    map[string]taskrt.Scheduler
}

func (c *schedCache) get(label string) taskrt.Scheduler {
	if s, ok := c.m[label]; ok {
		switch cs := s.(type) {
		case *sched.ModelSched:
			cs.Reset(c.sess.Set())
			if c.req.SharePlans {
				cs.SetPlanCache(c.sess.Plans(), c.req.Scale)
			}
			return cs
		case sched.RunResetter:
			cs.ResetRun()
			return s
		}
	}
	s := c.sess.NewScheduler(label)
	switch cs := s.(type) {
	case *sched.ModelSched:
		if c.req.SharePlans {
			cs.SetPlanCache(c.sess.Plans(), c.req.Scale)
		}
		c.m[label] = s
	case sched.RunResetter:
		c.m[label] = s
	}
	return s
}

// allocs reports the heap objects fn allocates.
func allocs(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// quiet times the request shape on a quiet warm session, one boundary
// per row: warm BuildReuse per cell, warm Reset+Run per cell on one
// goroutine, Session.Submit, and the in-process HTTP handler serving
// body at endpoint.
func (l *ledgerRun) quiet(sess *service.Session, req service.SweepRequest, endpoint string, body []byte) error {
	cells := len(req.Jobs)
	repeats := max(req.Repeats, 1)

	// BuildReuse: one arena recycled across the cells in request order,
	// as a worker rebuilds it per cell.
	var g *dag.Graph
	for _, j := range req.Jobs {
		g = j.Workload.BuildReuse(g, req.Scale)
	}
	var buildAllocs uint64
	builds, err := repeat(func() error {
		buildAllocs = allocs(func() {
			for _, j := range req.Jobs {
				g = j.Workload.BuildReuse(g, req.Scale)
			}
		})
		return nil
	})
	if err != nil {
		return err
	}
	l.add("workloads.build_us", "us", 1000*median(builds)/float64(cells), len(builds)*cells)
	l.add("workloads.build_allocs", "count", float64(buildAllocs)/float64(cells), cells)

	// taskrt: each distinct workload built once; one runtime runs every
	// cell and repeat with the request's seeds.
	graphs := make(map[string]*dag.Graph)
	for _, j := range req.Jobs {
		if graphs[j.Workload.Name] == nil {
			graphs[j.Workload.Name] = j.Workload.BuildReuse(nil, req.Scale)
		}
	}
	sc := &schedCache{sess: sess, req: req, m: make(map[string]taskrt.Scheduler)}
	var rt *taskrt.Runtime
	var tasks int64
	pass := func() {
		tasks = 0
		for _, j := range req.Jobs {
			g := graphs[j.Workload.Name]
			for r := 0; r < repeats; r++ {
				opt := taskrt.DefaultOptions()
				opt.Seed = req.Seed + int64(r)
				s := sc.get(j.Label)
				if rt == nil {
					rt = taskrt.New(sess.Oracle(), s, opt)
				} else {
					rt.Sched, rt.Opt = s, opt
					rt.Reset(g)
				}
				tasks += int64(rt.Run(g).Stats.TasksExecuted)
			}
		}
	}
	pass() // warm the runtime's pools and oracle memo
	var runAllocs uint64
	var nsPerTask []float64
	if _, err := repeat(func() error {
		t := time.Now()
		runAllocs = allocs(pass)
		nsPerTask = append(nsPerTask, float64(time.Since(t).Nanoseconds())/float64(tasks))
		return nil
	}); err != nil {
		return err
	}
	l.add("taskrt.run_ns_per_task", "ns", median(nsPerTask), len(nsPerTask))
	l.add("taskrt.run_allocs", "count", float64(runAllocs)/float64(cells*repeats), cells*repeats)
	l.add("taskrt.tasks_per_op", "count", float64(tasks), 1)

	var evals int
	submits, err := repeat(func() error {
		res, err := sess.Submit(req)
		if err != nil {
			return err
		}
		evals = res.PlanEvals
		return complete(res, cells)
	})
	if err != nil {
		return fmt.Errorf("quiet Submit: %w", err)
	}
	l.add("sched.plan_evals_per_op", "count", float64(evals), 1)
	l.add("service.submit_ms", "ms", median(submits), len(submits))

	h := service.NewHandler(sess)
	var respBytes int
	handled, err := repeat(func() error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, endpoint, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process %s: HTTP %d: %s", endpoint, rec.Code, rec.Body.Bytes())
		}
		respBytes = rec.Body.Len()
		return nil
	})
	if err != nil {
		return err
	}
	l.add("service.handler_ms", "ms", median(handled), len(handled))
	l.add("service.response_kb", "KiB", float64(respBytes)/1024, 1)
	l.cross = append(l.cross, fmt.Sprintf("quiet boundaries: build %.1fus/cell, taskrt %.1fns/task, Submit %.3fms, handler %.3fms",
		l.m["workloads.build_us"].Value, l.m["taskrt.run_ns_per_task"].Value,
		l.m["service.submit_ms"].Value, l.m["service.handler_ms"].Value))
	return nil
}

// overTCP sends body to endpoint on a fresh loopback jossd, one request
// at a time, and derives the HTTP rows from the daemon's /metrics
// deltas around those requests. The fig8-sweep workload, which never
// leaves the process, takes its jossd rows this way.
func (l *ledgerRun) overTCP(endpoint string, body []byte) error {
	d, err := startDaemon(l.jossd)
	if err != nil {
		return err
	}
	defer d.stop()
	c := newClient(1)
	defer c.CloseIdleConnections()
	send := func() error {
		code, b, err := post(c, d.url+endpoint, body)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("%s: HTTP %d: %s", endpoint, code, b)
		}
		return err
	}
	if err := send(); err != nil {
		return err
	}
	before, err := scrape(c, d.url)
	if err != nil {
		return err
	}
	client, err := repeat(send)
	if err != nil {
		return err
	}
	after, err := scrape(c, d.url)
	if err != nil {
		return err
	}
	hs := before.delta(after, "joss_http_request_seconds", map[string]string{"endpoint": endpoint})
	jq := before.delta(after, "joss_service_job_queue_wait_seconds", nil)
	l.add("service.http_server_ms", "ms", 1000*hs.mean(), int(hs.count))
	l.add("service.job_queue_wait_ms", "ms", 1000*jq.mean(), int(jq.count))
	l.add("jossd.loopback_ms", "ms", mean(client)-1000*hs.mean(), len(client))
	l.cross = append(l.cross, fmt.Sprintf("/metrics cross-check over %d quiet jossd requests (client mean %.3fms):",
		len(client), mean(client)))
	l.crossDeltas(before, after)
	return nil
}

// overhead reports what tracing cost: the traced half's p50 latency and
// task rate minus the untraced half's.
func (l *ledgerRun) overhead(plain, traced phaseResult) error {
	s0, err := summarize(plain.ops.lat, plain.marks, plain.start)
	if err != nil {
		return err
	}
	s1, err := summarize(traced.ops.lat, traced.marks, traced.start)
	if err != nil {
		return err
	}
	l.add("trace.overhead_p50_ms", "ms", s1.p50-s0.p50, traced.ops.attempted())
	l.add("trace.overhead_sim_tasks_per_s", "1/s", s1.rate-s0.rate, traced.ops.attempted())
	return nil
}

// gridBody is the wire form of an in-process full-grid request.
func gridBody(req service.SweepRequest) []byte {
	seed := req.Seed
	share := req.SharePlans
	b, _ := json.Marshal(service.WireSweepRequest{Scale: req.Scale, Seed: &seed,
		Repeats: req.Repeats, Parallel: req.Parallel, SharePlans: &share})
	return b
}
