// Package exp contains one driver per table and figure of the paper's
// evaluation: the motivation studies (Figures 1 and 2), the synthetic
// profiling view (Figure 5), the benchmark inventory (Table 1), the
// headline energy comparison (Figure 8), the performance-constraint
// study (Figure 9), model accuracy (Figure 10) and the §7.4 overhead
// analysis. Each driver returns a renderable table whose rows mirror
// what the paper reports.
//
// Since the warm-session refactor the drivers are thin clients of
// service.Session: Env owns a Session whose worker pool (resident
// runtimes, recycled graph arenas, Reset-recycled schedulers) and plan
// cache execute every sweep, and a figure driver only assembles jobs
// and formats the returned reports.
package exp

import (
	"fmt"

	"joss/internal/dag"
	"joss/internal/models"
	"joss/internal/platform"
	"joss/internal/sched"
	"joss/internal/service"
	"joss/internal/synth"
	"joss/internal/taskrt"
	"joss/internal/workloads"
)

// Env is a fully characterised experimental setup: the simulated TX2,
// its synthetic-benchmark profiles and the trained JOSS models — the
// once-per-platform offline stage of Figure 4 — plus the warm
// service.Session every sweep executes on.
type Env struct {
	Oracle *platform.Oracle
	// MC memoizes the oracle's deterministic standalone measurements
	// across experiment drivers (motivation, Figure 10): a kernel
	// swept by several figures pays the mechanistic model once per
	// ⟨demand, config⟩.
	MC    *platform.MeasureCache
	Rows  []synth.Row
	Set   *models.Set
	ERASE sched.ERASETable
	// Scale multiplies workload task counts (1 = paper-sized DAGs).
	Scale float64
	// Seed feeds every runtime's deterministic RNG.
	Seed int64
	// Repeats is the number of seeds each sweep cell is run with;
	// reported energies are arithmetic means across repeats, as in
	// the paper (§6.1: each experiment repeated 10 times, arithmetic
	// average reported). Must be ≥ 1; sweeps reject other values.
	Repeats int
	// Parallel is the number of sweep workers (each owning a
	// long-lived Runtime and graph arena, resident in the session).
	// Must be ≥ 1; sweeps reject other values.
	Parallel int
	// SharePlans lets model-driven schedulers reuse trained per-kernel
	// plans through Plans, the environment's cross-sweep cache: a
	// kernel trained once — by an earlier repeat, a sibling cell, or a
	// previous sweep on this Env — skips the §5.1 sampling phase in
	// every later run under the same scheduler options. Off by default
	// because skipping sampling changes per-run trajectories (and,
	// under concurrent workers, which run trains first): enable it for
	// throughput-oriented sweeps, not for reproducing the paper's
	// repeat-averaged numbers.
	SharePlans bool
	// Plans is the cross-sweep plan cache consulted when SharePlans is
	// set; NewEnv initialises it to the session's resident cache.
	// Plans are keyed by ⟨kernel+demand, scheduler, goal, constraint,
	// scale⟩, so sharing one cache across schedulers and figures is
	// safe. Its LoadFile / SaveFileMerged persist it across processes.
	Plans *sched.PlanCache
	// SensorPeriodSec overrides the simulated INA3221's 5 ms sampling
	// period for every run the Env executes (0 = paper default), and
	// SensorOff removes the sensor entirely — reports then carry only
	// the event-exact integral, which EnergyOf falls back to. Both are
	// throughput levers; leave unset to reproduce the paper.
	SensorPeriodSec float64
	SensorOff       bool

	// session executes every sweep: worker pool, warm runtimes,
	// recycled schedulers.
	session *service.Session
}

// NewEnv profiles and trains a fresh environment and starts its warm
// session.
func NewEnv(scale float64) (*Env, error) {
	o := platform.DefaultOracle()
	rows := synth.Profile(o)
	set, err := models.Train(o, rows)
	if err != nil {
		return nil, fmt.Errorf("exp: training failed: %w", err)
	}
	eraseT := sched.BuildERASETable(rows)
	sess, err := service.New(service.Config{Oracle: o, Set: set, ERASE: eraseT})
	if err != nil {
		return nil, fmt.Errorf("exp: starting session: %w", err)
	}
	return &Env{
		Oracle:   o,
		MC:       platform.NewMeasureCache(o),
		Rows:     rows,
		Set:      set,
		ERASE:    eraseT,
		Scale:    scale,
		Seed:     1,
		Repeats:  1,
		Parallel: sess.Parallel(),
		Plans:    sess.Plans(),
		session:  sess,
	}, nil
}

// Session exposes the Env's warm session (for the daemon and tests).
func (e *Env) Session() *service.Session { return e.session }

// SchedulerNames lists the Figure 8 schedulers in the paper's order.
var SchedulerNames = service.SchedulerNames

// NewScheduler builds a fresh scheduler by name. Schedulers are
// stateful and single-run, so sweeps construct one per run (or recycle
// via the reset contracts).
func (e *Env) NewScheduler(name string) taskrt.Scheduler {
	return e.session.NewScheduler(name)
}

// runOptions builds the runtime options every Env-driven run uses:
// the given seed plus the Env's sensor configuration.
func (e *Env) runOptions(seed int64) taskrt.Options {
	opt := taskrt.DefaultOptions()
	opt.Seed = seed
	opt.SensorPeriodSec = e.SensorPeriodSec
	opt.SensorOff = e.SensorOff
	return opt
}

// Run executes one workload graph under the named scheduler.
func (e *Env) Run(schedName string, g *dag.Graph) taskrt.Report {
	rt := taskrt.New(e.Oracle, e.NewScheduler(schedName), e.runOptions(e.Seed))
	return rt.Run(g)
}

// RunSched executes a workload under a caller-constructed scheduler.
func (e *Env) RunSched(s taskrt.Scheduler, g *dag.Graph) taskrt.Report {
	rt := taskrt.New(e.Oracle, s, e.runOptions(e.Seed))
	return rt.Run(g)
}

// RunFixed executes a workload with every task pinned to cfg.
func (e *Env) RunFixed(cfg platform.Config, g *dag.Graph) taskrt.Report {
	return e.RunSched(sched.NewFixed(cfg), g)
}

// sweepJob is one (workload, scheduler-constructor) cell of a sweep.
type sweepJob struct {
	wl    workloads.Config
	label string
	mk    func() taskrt.Scheduler
}

// sweep submits jobs to the Env's warm session: the ⟨cell, repeat,
// seed⟩ run units enter the session's fair-share dispatcher, whose
// pool workers — each owning a long-lived Runtime, recycled graph
// arenas and Reset-recycled schedulers — drain them largest-cell-first
// (Parallel bounds this request's share) and merge each cell's repeats
// in repeat order (taskrt.MeanReport). Results do not depend on worker
// count, dispatch order or co-resident requests (with the opt-in
// exception of SharePlans, which trades that independence for skipped
// sampling). Reports are keyed by workload name then label.
func (e *Env) sweep(jobs []sweepJob) map[string]map[string]taskrt.Report {
	if e.Parallel < 1 {
		panic(fmt.Sprintf("exp: Env.Parallel must be >= 1, got %d", e.Parallel))
	}
	if e.Repeats < 1 {
		panic(fmt.Sprintf("exp: Env.Repeats must be >= 1, got %d", e.Repeats))
	}
	req := service.SweepRequest{
		Jobs:            make([]service.Job, len(jobs)),
		Scale:           e.Scale,
		Seed:            e.Seed,
		Repeats:         e.Repeats,
		Parallel:        e.Parallel,
		SharePlans:      e.SharePlans,
		SensorPeriodSec: e.SensorPeriodSec,
		SensorOff:       e.SensorOff,
		Plans:           e.Plans,
	}
	for i, j := range jobs {
		req.Jobs[i] = service.Job{Workload: j.wl, Label: j.label, Make: j.mk}
	}
	res, err := e.session.Submit(req)
	if err != nil {
		// The Env owns its session and never configures admission
		// bounds or drains it, so Submit cannot be refused.
		panic(fmt.Sprintf("exp: session refused sweep: %v", err))
	}
	return res.Reports
}

// EnergyOf returns the report's sensor-sampled energy, falling back to
// the exact integral for runs too short to collect 5 ms samples.
func EnergyOf(rep taskrt.Report) platform.Energy {
	return service.EnergyOf(rep)
}
