// Package service is the warm-session layer between the experiment
// drivers (package exp), the CLI daemons (cmd/jossd) and the execution
// core: a Session is a long-lived object holding the trained models,
// a fixed pool of workers — each owning a resident taskrt.Runtime,
// recycled dag.Graph arenas and Reset-recycled schedulers — and the
// shared persistent sched.PlanCache. It serves an unbounded stream of
// sweep requests without per-invocation training: the first request
// pays cold-start setup and plan search, every later request runs at
// warm-path allocation counts, and requests for kernels the plan store
// already knows perform zero plan searches.
//
// Requests execute concurrently: every admitted request becomes a job
// whose ⟨cell, repeat, seed⟩ run units enter the session's central
// fair-share dispatcher (internal/dispatch), so a small request
// admitted behind a large sweep takes the next free worker instead of
// waiting for the sweep to drain. Submit is the synchronous form
// (admit, then wait); Enqueue returns a JobHandle for the async
// lifecycle — Status, Cancel, per-cell streaming, Wait.
//
// Every run unit a Session executes is an independent deterministic
// simulation, so results do not depend on worker count, worker
// assignment, unit interleaving across jobs or dispatch order (with
// the documented exception of SweepRequest.SharePlans, which trades
// that independence for skipped sampling). That is what lets requests
// interleave freely with per-request results bit-identical to serial
// submission, and what lets exp rebuild its figure drivers as thin
// clients of a Session with bit-identical outputs.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"joss/internal/dag"
	"joss/internal/dispatch"
	"joss/internal/jobstore"
	"joss/internal/models"
	"joss/internal/obs"
	"joss/internal/platform"
	"joss/internal/sched"
	"joss/internal/synth"
	"joss/internal/taskrt"
	"joss/internal/trace"
	"joss/internal/workloads"
)

// ErrDraining is returned by Enqueue/Submit once StartDrain has been
// called: the session finishes its in-flight jobs but admits nothing
// new. The HTTP layer maps it to 503 Service Unavailable.
var ErrDraining = errors.New("service: session is draining, not admitting new jobs")

// Config assembles a Session. Oracle and Set are required; the rest
// default sensibly.
type Config struct {
	Oracle *platform.Oracle
	Set    *models.Set
	// ERASE is the offline categorised power table the ERASE baseline
	// needs; sessions built without it cannot construct ERASE by name.
	ERASE sched.ERASETable
	// Parallel is the default worker count for requests that leave
	// SweepRequest.Parallel at 0 (default GOMAXPROCS).
	Parallel int
	// PlanStorePath, when set, makes the plan cache persistent: New
	// loads the store, and after each request run on the resident
	// cache, and at Close, the session writes it back (lock-and-merge,
	// see sched.PlanCache.SaveFileMerged) if the cache holds plans the
	// store has not seen.
	PlanStorePath string
	// RetainJobs bounds the finished jobs kept for lookup by id — live
	// and journal-replayed alike (default 256; active jobs are never
	// evicted).
	RetainJobs int
	// MaxJobs and MaxQueuedUnits bound admission (0 = unbounded):
	// MaxJobs caps concurrently admitted unfinished jobs,
	// MaxQueuedUnits caps the undispatched run units across all jobs.
	// Enqueue/Submit reject excess requests with an error matching
	// dispatch.ErrOverloaded, which the HTTP layer turns into 429 +
	// Retry-After.
	MaxJobs        int
	MaxQueuedUnits int
	// JobStorePath, when set, makes jobs crash-durable: every wire
	// sweep (SweepRequest.WireSpec non-nil) is journaled at admission
	// and its result on completion, New replays the journal into the
	// job registry, and Close closes the journal.
	// A session owns its journal exclusively (flock) from New to Close.
	JobStorePath string
	// DisableMetrics builds the session without its obs.Registry: no
	// metric families are registered, every instrumentation hook is
	// skipped, and Metrics() returns nil. Metrics are on by default —
	// they are allocation-free on the run paths — so this exists for
	// A/B overhead measurement and the instrumented-vs-bare
	// differential tests, not for production tuning.
	DisableMetrics bool
}

// DefaultConfig profiles the simulated TX2 and trains the JOSS models
// — the once-per-platform offline stage of Figure 4 — returning a
// Config ready for New. This is what a daemon pays once at startup so
// no request ever trains.
func DefaultConfig() (Config, error) {
	o := platform.DefaultOracle()
	rows := synth.Profile(o)
	set, err := models.Train(o, rows)
	if err != nil {
		return Config{}, fmt.Errorf("service: training failed: %w", err)
	}
	return Config{Oracle: o, Set: set, ERASE: sched.BuildERASETable(rows)}, nil
}

// Session is the warm execution service. Admitted requests share one
// dispatcher-fed worker pool, and every resource a request warms —
// runtimes, graph arenas, scheduler scratch, oracle memos, trained
// plans — stays resident for the next one.
type Session struct {
	oracle    *platform.Oracle
	set       *models.Set
	erase     sched.ERASETable
	plans     *sched.PlanCache
	parallel  int
	storePath string
	retain    int

	pool *dispatch.Pool

	// workerMu guards the worker-state slice, which grows in lockstep
	// with the pool (index = dispatch worker id).
	workerMu sync.Mutex
	workers  []*worker

	// costMu guards the ⟨workload name, scale⟩ → task-count memo
	// (dispatch costing); a distinct workload pays one throwaway DAG
	// build per session, after which dispatch planning is
	// allocation-free.
	costMu sync.Mutex
	costs  map[costKey]int

	// jobMu guards the job registry (registry.go): every record by id
	// and in admission order, and the id sequence.
	jobMu    sync.Mutex
	jobSeq   int64
	jobsByID map[string]Record
	jobOrder []Record

	// store is the crash-durable job journal (nil without
	// Config.JobStorePath); epoch anchors deadline arithmetic and
	// draining gates admission.
	store    *jobstore.Store
	epoch    time.Time
	draining atomic.Bool

	// flushedLen is the resident cache's length when the plan store
	// last held all of it, so only a cache that outgrew the store pays
	// a flush.
	flushedLen atomic.Int64

	requests atomic.Int64

	// registry/metrics are the session's observability surface (nil
	// with Config.DisableMetrics): the registry also carries the
	// dispatcher's and job journal's families, and /metrics serves it.
	registry *obs.Registry
	metrics  *sessionMetrics
}

// New builds a Session from a trained configuration, loading the plan
// store when one is configured. Returns the number of plans loaded via
// Session.Plans().Len().
func New(cfg Config) (*Session, error) {
	if cfg.Oracle == nil || cfg.Set == nil {
		return nil, fmt.Errorf("service: Config needs a non-nil Oracle and Set")
	}
	s := &Session{
		oracle:    cfg.Oracle,
		set:       cfg.Set,
		erase:     cfg.ERASE,
		plans:     sched.NewPlanCache(),
		parallel:  cfg.Parallel,
		storePath: cfg.PlanStorePath,
		retain:    cfg.RetainJobs,
		pool:      dispatch.NewPool(0),
		costs:     make(map[costKey]int),
		jobsByID:  make(map[string]Record),
		epoch:     time.Now(),
	}
	s.pool.SetLimits(dispatch.Limits{
		MaxJobs:        cfg.MaxJobs,
		MaxQueuedUnits: cfg.MaxQueuedUnits,
	})
	if s.parallel < 1 {
		s.parallel = runtime.GOMAXPROCS(0)
	}
	if s.retain < 1 {
		s.retain = 256
	}
	if !cfg.DisableMetrics {
		s.registry = obs.NewRegistry()
		s.metrics = newSessionMetrics(s.registry, s)
		s.pool.SetMetrics(dispatch.NewMetrics(s.registry, s.pool))
	}
	if s.storePath != "" {
		if _, err := s.plans.LoadFile(s.storePath, s.oracle.Spec); err != nil {
			return nil, err
		}
		// Everything loaded from the store is, by definition, already
		// persisted.
		s.flushedLen.Store(int64(s.plans.Len()))
	}
	if cfg.JobStorePath != "" {
		if err := s.openJobStore(cfg.JobStorePath); err != nil {
			return nil, err
		}
		if s.registry != nil {
			s.store.SetMetrics(jobstore.NewMetrics(s.registry))
		}
	}
	return s, nil
}

// flushPlans writes the resident plan cache to the plan store
// (lock-and-merge) when it holds more plans than the store last saw.
// It is a no-op without a store path, and a warm steady state never
// rewrites the store, so processes sharing it do not serialise on its
// lock once per request.
func (s *Session) flushPlans() error {
	if s.storePath == "" {
		return nil
	}
	n := s.plans.Len()
	if int64(n) == s.flushedLen.Load() {
		return nil
	}
	if err := s.plans.SaveFileMerged(s.storePath, s.oracle.Spec); err != nil {
		return err
	}
	// n, not the post-save length: a plan a concurrent run stored
	// during the save may have missed the file. Plans the merge
	// adopted from disk cost one redundant flush later.
	s.flushedLen.Store(int64(n))
	return nil
}

// Plans returns the session's resident plan cache.
func (s *Session) Plans() *sched.PlanCache { return s.plans }

// Set returns the trained model set the session schedules with.
func (s *Session) Set() *models.Set { return s.set }

// Oracle returns the simulated platform oracle.
func (s *Session) Oracle() *platform.Oracle { return s.oracle }

// Parallel returns the session's default per-request worker bound,
// which is also the ceiling the HTTP layer clamps wire requests to.
func (s *Session) Parallel() int { return s.parallel }

// Requests returns the number of requests completed so far. It is
// lock-free (atomic) so liveness probes never block behind in-flight
// work.
func (s *Session) Requests() int { return int(s.requests.Load()) }

// Metrics returns the session's metric registry — the joss_dispatch_*,
// joss_service_*, joss_http_* and (with a job store) joss_jobstore_*
// families /metrics serves. Nil when Config.DisableMetrics was set.
func (s *Session) Metrics() *obs.Registry { return s.registry }

// Workers returns the pool's current worker-goroutine count (the pool
// grows with admitted requests' Parallel, so this is a high-water mark
// since New or the last Close, not a configuration echo). Wire
// requests are clamped to Parallel, so only in-process callers can
// raise it above Parallel.
func (s *Session) Workers() int { return s.pool.Workers() }

// Uptime reports the time since the session was built (New).
func (s *Session) Uptime() time.Duration { return time.Since(s.epoch) }

// Close waits for the admitted units to run and retires the pool's
// workers, whose OS threads exit with them, then flushes the plan
// store if the cache outgrew it and closes the job journal (releasing
// its exclusive lock). A session without a job store stays usable after
// Close (a flush point, not a teardown: the next request starts fresh
// workers); one with a job store must not admit further work
// afterwards.
func (s *Session) Close() error {
	s.pool.Close()
	err := s.flushPlans()
	if s.store != nil {
		if cerr := s.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// StartDrain stops admission: every subsequent Enqueue/Submit fails
// with ErrDraining while in-flight jobs run to completion. The daemon
// calls this on SIGTERM, then WaitIdle, then Close.
func (s *Session) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Session) Draining() bool { return s.draining.Load() }

// Load reports the session's dispatch load: jobs in flight, queued
// (undispatched) units, and units executing right now. /healthz
// advertises it for operators and e2ebench.
func (s *Session) Load() (jobs, queuedUnits, inflightUnits int) {
	return s.pool.Load()
}

// Job is one (workload, scheduler-constructor) cell of a sweep. Make
// must build a fresh scheduler each call; within one request — and
// across requests on one session — a Label must always denote the same
// constructor, because workers recycle cached schedulers per label.
// Likewise a workload Name must always denote the same DAG shape at a
// given scale (the session memoizes its task count for dispatch
// costing).
type Job struct {
	Workload workloads.Config
	Label    string
	Make     func() taskrt.Scheduler
}

// SweepRequest is one unit of service: a set of cells, each run
// Repeats times with consecutive seeds and merged to its arithmetic
// mean (§6.1).
type SweepRequest struct {
	Jobs []Job
	// Scale multiplies workload task counts (1 = paper-sized DAGs).
	Scale float64
	// Seed feeds repeat r of every cell with Seed+r.
	Seed int64
	// Repeats per cell (0 defaults to 1; negative panics).
	Repeats int
	// Parallel bounds the number of pool workers this request occupies
	// at once (0 defaults to the session's; negative panics). It is a
	// share ceiling, not a reservation: co-resident requests compete
	// for workers under the dispatcher's fair-share policy.
	Parallel int
	// SharePlans lets model-driven schedulers adopt and publish plans
	// through the plan cache: a kernel trained once — by an earlier
	// repeat, a sibling cell, a previous request, or another process
	// sharing the store — skips the §5.1 sampling phase. Off, every
	// run samples afresh and results are bit-reproducible regardless
	// of request history and co-resident requests.
	SharePlans bool
	// SensorPeriodSec overrides the simulated INA3221's 5 ms sampling
	// period (0 = paper default); SensorOff removes the sensor.
	SensorPeriodSec float64
	SensorOff       bool
	// Plans overrides the session's resident plan cache for this
	// request (nil = the resident cache). The exp.Env thin client uses
	// this so its exported Plans field keeps working. A caller-supplied
	// cache is never flushed to the session's plan store; its owner
	// saves it (sched.PlanCache.SaveFileMerged).
	Plans *sched.PlanCache
	// Weight scales the request's fair share on the dispatcher: a
	// Weight-2 request receives twice the unit throughput of a
	// Weight-1 request under contention (0 defaults to 1; negative
	// panics). Weights shape scheduling only — results stay
	// bit-identical to any other interleaving.
	Weight float64
	// DeadlineMS, when positive, is a relative soft deadline: among
	// requests at equal attained service the dispatcher runs the
	// earliest absolute deadline (admission time + DeadlineMS) first,
	// and a request with a deadline beats one without. Deadlines
	// order work; they never expire or drop it.
	DeadlineMS int64
	// WireSpec, when non-nil on a session with a job store, is the
	// opaque (compact-JSON) wire form of this request, journaled at
	// admission so the job can be reported after a crash. The HTTP
	// layer sets it; Go-API callers normally leave it nil.
	WireSpec json.RawMessage
	// Trace, when non-nil, makes the request's run unit record its
	// execution timeline (taskrt.Options.Trace): task intervals,
	// frequency residency and power samples, exportable as Chrome
	// trace-event JSON. Recording is observer-only — it never touches
	// the simulation's RNG, so the report is bit-identical with or
	// without it. Valid only on single-unit requests (at most one cell
	// and one repeat); Enqueue panics otherwise, since concurrent units
	// would race on the one Trace. The HTTP layer sets it for
	// POST /run?trace=1.
	Trace *trace.Trace
}

// SweepResult carries a request's reports plus the service-level
// telemetry the warm-path guarantees are asserted on.
type SweepResult struct {
	// Reports is keyed by workload name then job label. A cancelled
	// request carries only the cells whose repeats all completed.
	Reports map[string]map[string]taskrt.Report
	// PlanEvals is the total number of §5.2 configuration-search
	// evaluations model-driven schedulers performed across all run
	// units. Zero means zero plan searches — every kernel either
	// adopted a cached plan or is not model-scheduled.
	PlanEvals int
	// Units is the number of ⟨cell, repeat⟩ run units admitted;
	// UnitsDone the number that actually executed (less than Units
	// only after a cancellation).
	Units     int
	UnitsDone int
	// Workers is the request's worker-share ceiling (min of its
	// Parallel and its unit count).
	Workers int
	// Cancelled reports the request was cancelled before completing.
	Cancelled bool
	// Interrupted counts run units aborted mid-simulation by the
	// cooperative cancel (Cancelled requests only; dropped queued
	// units are counted in Units−UnitsDone instead).
	// Aborted units produce no report and their cells are absent
	// from Reports.
	Interrupted int
	// PlanStoreErr records a failed plan-store flush (the sweep itself
	// succeeded; callers decide whether that is fatal).
	PlanStoreErr error
}

// worker is the long-lived execution environment one pool slot owns: a
// Runtime whose engine, machine, pools and oracle memo are recycled
// with Reset between runs, a graph whose task/edge arenas are recycled
// with BuildReuse between workloads, and a per-label cache of recyclable
// schedulers (ModelSched.Reset / sched.RunResetter) — all lazily built
// on the worker's first unit and retained across jobs.
type worker struct {
	rt *taskrt.Runtime
	g  *dag.Graph
	// built keys the graph currently built into the arenas by
	// ⟨workload name, scale⟩, the identity cellFacts memoizes on too, so
	// the cells of one workload under different schedulers — and
	// interleaved jobs — share one build.
	built  costKey
	scheds map[string]taskrt.Scheduler
	// yield is the runtime's poll hook for this slot's units: it lets
	// the dispatcher run a much smaller job's unit on the nested slot
	// while this slot's unit is parked (nil on a nested slot, so
	// nesting stops at depth 1).
	yield func()
	// running is set while the slot's runtime is inside Run; nested
	// is the slot a unit dispatched during that Run executes on. Both
	// are touched only by the owning dispatch worker's goroutine.
	running bool
	nested  *worker
}

// workerAt returns the state slot for a unit dispatched to worker id:
// the worker's own, or — while the worker's own unit is parked in a
// preemption poll — its nested slot, built on first use with its own
// runtime, graph and scheduler cache. The parked unit's scheduler is
// mid-run, so the nested unit must never see (let alone Reset) it.
func (s *Session) workerAt(id int) *worker {
	s.workerMu.Lock()
	w := s.workers[id]
	s.workerMu.Unlock()
	if !w.running {
		return w
	}
	if w.nested == nil {
		w.nested = &worker{}
	}
	return w.nested
}

// ensureWorkers grows the pool and its state slots to at least n.
func (s *Session) ensureWorkers(n int) {
	s.workerMu.Lock()
	for len(s.workers) < n {
		id := len(s.workers)
		s.workers = append(s.workers, &worker{yield: func() { s.pool.Preempt(id) }})
	}
	s.workerMu.Unlock()
	s.pool.Grow(n)
}

// costKey memoizes per-⟨workload name, scale⟩ task counts.
type costKey struct {
	name  string
	scale float64
}

// taskCount returns the workload's DAG task count at the given scale —
// the dispatch cost of one of its run units. The first lookup per
// ⟨name, scale⟩ builds the workload into a throwaway graph, so the
// session keeps no arena just for counting; every later one is a map
// hit, so admission-time planning allocates nothing once the session
// has seen its workloads.
func (s *Session) taskCount(wl workloads.Config, scale float64) int {
	k := costKey{wl.Name, scale}
	s.costMu.Lock()
	defer s.costMu.Unlock()
	if n, ok := s.costs[k]; ok {
		return n
	}
	n := wl.Build(scale).NumTasks()
	s.costs[k] = n
	return n
}

// cellCosts appends each cell's dispatch cost to buf and returns it.
func (s *Session) cellCosts(jobs []Job, scale float64, buf []int) []int {
	for _, j := range jobs {
		buf = append(buf, s.taskCount(j.Workload, scale))
	}
	return buf
}

// runOptions builds the runtime options every service-driven run uses.
func runOptions(req *SweepRequest, seed int64) taskrt.Options {
	opt := taskrt.DefaultOptions()
	opt.Seed = seed
	opt.SensorPeriodSec = req.SensorPeriodSec
	opt.SensorOff = req.SensorOff
	opt.Trace = req.Trace
	return opt
}

// schedulerFor returns the unit's scheduler, recycling cached ones.
// ModelScheds are rewound with Reset(set) (and re-attached to the plan
// cache when sharing is on); ERASE/CATA-style schedulers are rewound
// through the unified RunResetter contract. Schedulers with neither
// reset shape carry run state with no recycling contract and are
// constructed fresh per unit.
func (s *Session) schedulerFor(w *worker, j Job, req *SweepRequest, plans *sched.PlanCache) taskrt.Scheduler {
	if cached, ok := w.scheds[j.Label]; ok {
		switch cs := cached.(type) {
		case *sched.ModelSched:
			cs.Reset(s.set)
			if req.SharePlans {
				cs.SetPlanCache(plans, req.Scale)
			}
		case sched.RunResetter:
			cs.ResetRun()
		}
		return cached
	}
	sc := j.Make()
	cacheable := false
	switch cs := sc.(type) {
	case *sched.ModelSched:
		cacheable = true
		if req.SharePlans {
			cs.SetPlanCache(plans, req.Scale)
		}
	case sched.RunResetter:
		cacheable = true
	}
	if cacheable {
		if w.scheds == nil {
			w.scheds = make(map[string]taskrt.Scheduler)
		}
		w.scheds[j.Label] = sc
	}
	return sc
}

// runUnit executes one run unit — a single seeded repeat of one cell —
// on the worker's recycled environment, returning the report, the
// plan-search evaluations the unit performed, and whether the run was
// aborted mid-simulation by the job's cancel flag. The workload is
// rebuilt into the worker's arenas only when the unit's ⟨workload,
// scale⟩ differs from the worker's previous one (execution never
// mutates the graph — per-run task state lives in the runtime's lane —
// so units of the same workload re-run the built DAG as-is, whatever
// their scheduler, even after an aborted run).
func (s *Session) runUnit(w *worker, h *JobHandle, cell, repeat int) (taskrt.Report, int, bool) {
	req := &h.req
	j := req.Jobs[cell]
	if k := (costKey{j.Workload.Name, req.Scale}); w.g == nil || w.built != k {
		w.g = j.Workload.BuildReuse(w.g, req.Scale)
		w.built = k
	}
	sc := s.schedulerFor(w, j, req, h.plans)
	seed := req.Seed + int64(repeat)
	opt := runOptions(req, seed)
	opt.Cancel = &h.cancel
	opt.Yield = w.yield
	if w.rt == nil {
		w.rt = taskrt.New(s.oracle, sc, opt)
	} else {
		w.rt.Sched = sc
		w.rt.Opt = opt
		if opt.Trace != nil {
			// taskrt.New stamps the trace's core count; the recycled
			// path must do the same for the Gantt/busy views to size.
			opt.Trace.NumCore = w.rt.M.NumCores()
		}
		w.rt.Reset(w.g)
	}
	w.running = true
	rep := w.rt.Run(w.g)
	w.running = false
	evals := 0
	if ms, ok := sc.(*sched.ModelSched); ok {
		evals = ms.TotalEvals
	}
	if w.rt.Interrupted() {
		return taskrt.Report{}, evals, true
	}
	return rep, evals, false
}

// Submit executes one sweep request and returns the per-cell mean
// reports: the synchronous form of Enqueue + Wait. Units of this and
// any co-resident requests interleave over the session's worker pool
// under the fair-share dispatcher. Cells merge their repeats in repeat
// order (taskrt.MeanReport), so per-cell reports are bit-identical to
// running every repeat on a fresh runtime in one place — the property
// exp's equivalence tests pin down. The error is non-nil only when
// admission rejects the request (dispatch.ErrOverloaded, ErrDraining,
// or a job-journal write failure).
func (s *Session) Submit(req SweepRequest) (SweepResult, error) {
	h, err := s.Enqueue(req)
	if err != nil {
		return SweepResult{}, err
	}
	return h.Wait(), nil
}

// EnergyOf returns a report's sensor-sampled energy, falling back to
// the exact integral for runs too short to collect 5 ms samples (or
// run with the sensor off).
func EnergyOf(rep taskrt.Report) platform.Energy {
	if rep.Samples == 0 {
		return rep.Exact
	}
	return rep.Sensor
}

// NewScheduler builds a fresh scheduler by name, panicking on unknown
// names (the exp-facing contract). Use ParseScheduler for a
// error-returning variant suitable for request validation.
func (s *Session) NewScheduler(name string) taskrt.Scheduler {
	sc, err := s.ParseScheduler(name)
	if err != nil {
		panic("service: " + err.Error())
	}
	return sc
}

// ParseScheduler resolves a scheduler name into a fresh instance: the
// paper's six (GRWS, ERASE, Aequitas, STEER, JOSS, JOSS_NoMemDVFS),
// the related-work extensions (HERMES, OnDemand, MemScale, CoScale,
// CATA), the trade-off variants JOSS+MAXP and JOSS+EDP, and
// performance-constrained JOSS spelled "JOSS+<speedup>X" (e.g.
// JOSS+1.4X). Schedulers are stateful and single-run; services
// construct one per run unit (or recycle via the reset contracts).
func (s *Session) ParseScheduler(name string) (taskrt.Scheduler, error) {
	switch name {
	case "GRWS":
		return sched.NewGRWS(), nil
	case "ERASE":
		if s.erase == nil {
			return nil, fmt.Errorf("session has no ERASE power table")
		}
		return sched.NewERASE(s.erase, func(tc platform.CoreType) float64 {
			return s.set.IdleCPUW[tc][platform.MaxFC]
		}), nil
	case "Aequitas":
		return sched.NewAequitas(), nil
	case "STEER":
		return sched.NewSTEER(s.set), nil
	case "JOSS":
		return sched.NewJOSS(s.set), nil
	case "JOSS_NoMemDVFS":
		return sched.NewJOSSNoMemDVFS(s.set), nil
	case "JOSS+MAXP":
		return sched.NewJOSSMaxP(s.set), nil
	case "JOSS+EDP":
		return sched.NewJOSSEDP(s.set), nil
	case "HERMES":
		return sched.NewHERMES(), nil
	case "OnDemand":
		return sched.NewOnDemand(), nil
	case "MemScale":
		return sched.NewMemScale(), nil
	case "CoScale":
		return sched.NewCoScale(), nil
	case "CATA":
		return sched.NewCATA(), nil
	}
	if v, ok := strings.CutPrefix(name, "JOSS+"); ok {
		if v, ok := strings.CutSuffix(v, "X"); ok {
			if f, err := strconv.ParseFloat(v, 64); err == nil && f > 1 {
				return sched.NewJOSSConstrained(s.set, f), nil
			}
		}
	}
	return nil, fmt.Errorf("unknown scheduler %q", name)
}

// SchedulerNames lists the Figure 8 schedulers in the paper's order.
var SchedulerNames = []string{"GRWS", "ERASE", "Aequitas", "STEER", "JOSS", "JOSS_NoMemDVFS"}

// SchedulerCatalog lists every name ParseScheduler accepts (the
// placeholder spells the constrained-JOSS pattern), in the order the
// switch resolves them — the single source /healthz advertises.
var SchedulerCatalog = []string{
	"GRWS", "ERASE", "Aequitas", "STEER", "JOSS", "JOSS_NoMemDVFS",
	"JOSS+MAXP", "JOSS+EDP", "HERMES", "OnDemand", "MemScale",
	"CoScale", "CATA", "JOSS+<speedup>X",
}

// FindWorkload resolves a Figure 8 benchmark configuration by name
// (case-insensitive), returning the available names for error
// messages.
func FindWorkload(name string) (workloads.Config, []string, bool) {
	var names []string
	var found workloads.Config
	ok := false
	for _, c := range workloads.Fig8Configs() {
		names = append(names, c.Name)
		if strings.EqualFold(c.Name, name) {
			found, ok = c, true
		}
	}
	return found, names, ok
}
