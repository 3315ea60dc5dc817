package sched

import (
	"math"
	"sync"

	"joss/internal/dag"
	"joss/internal/models"
	"joss/internal/platform"
	"joss/internal/search"
	"joss/internal/taskrt"
)

// CachedPlan is a kernel's selected configuration in a transferable
// form (no pointers into a particular run).
type CachedPlan struct {
	Cfg          platform.Config
	Fine         bool
	Batch        int
	PredictedSec float64
}

// PlanKey identifies a trained plan unambiguously across sweeps. Two
// schedulers may share a plan only when everything that shaped the
// selection matches: the kernel itself (name alone is not identity —
// the three Heat Diffusion sizes all register a "Jacobi" kernel with
// different demands, so the demand is part of the key), the scheduler
// and its goal/knob-set/constraint/search family, and the workload
// scale the sweep runs at (task counts change sampling concurrency).
// In particular JOSS and JOSS_NoMemDVFS never share a plan.
type PlanKey struct {
	Kernel     string
	Demand     platform.TaskDemand
	Sched      string
	Goal       Goal
	MemDVFS    bool
	Speedup    float64
	Exhaustive bool
	// CoarsenThresholdSec and CoarsenWindowSec shape the cached
	// Fine/Batch fields, so schedulers with different coarsening knobs
	// must not share plans even when everything else matches.
	CoarsenThresholdSec float64
	CoarsenWindowSec    float64
	Scale               float64
}

// PlanCache shares per-kernel selected configurations across every run
// of a sweep — the repeats of one cell, sibling cells of one figure
// that reuse a kernel (the four MM configurations share mm_tile), and
// whole sweeps executed on the same environment (Fig 8 ↔ Fig 9 ↔ the
// overhead study). A run that adopts a cached plan skips the §5.1
// sampling phase and the configuration search for that kernel. Safe
// for concurrent use by the sweep executor's workers.
type PlanCache struct {
	mu    sync.RWMutex
	plans map[PlanKey]CachedPlan
}

// NewPlanCache returns an empty cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{plans: make(map[PlanKey]CachedPlan)}
}

// Lookup returns the cached plan for a key, if any.
func (pc *PlanCache) Lookup(k PlanKey) (CachedPlan, bool) {
	pc.mu.RLock()
	defer pc.mu.RUnlock()
	p, ok := pc.plans[k]
	return p, ok
}

// Store publishes a kernel's selected plan (first writer wins, so
// later runs reuse the earliest selection).
func (pc *PlanCache) Store(k PlanKey, p CachedPlan) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if _, dup := pc.plans[k]; !dup {
		pc.plans[k] = p
	}
}

// Len returns the number of cached plans.
func (pc *PlanCache) Len() int {
	pc.mu.RLock()
	defer pc.mu.RUnlock()
	return len(pc.plans)
}

// Goal selects a model-based scheduler's objective.
type Goal int

const (
	// GoalMinEnergy minimises total (CPU + memory) energy — JOSS.
	GoalMinEnergy Goal = iota
	// GoalMinCPUEnergy minimises CPU energy only — STEER.
	GoalMinCPUEnergy
	// GoalMaxPerf maximises individual task performance — JOSS+MAXP.
	GoalMaxPerf
	// GoalMinEDP minimises the energy-delay product per task, a
	// classic balanced trade-off target (an extension beyond the
	// paper's two scenarios, expressible because the framework
	// already predicts both time and power).
	GoalMinEDP
)

// Options configure a model-based scheduler (JOSS and its variants,
// and STEER which shares the machinery with a narrower knob set and a
// CPU-energy objective).
type Options struct {
	Name string
	Goal Goal
	// MemDVFS enables the memory frequency knob; when false, fM is
	// pinned at the maximum (STEER, JOSS_NoMemDVFS).
	MemDVFS bool
	// Speedup > 1 adds the §5.2.2 performance constraint: each
	// kernel must run Speedup× faster than its minimum-energy
	// configuration would.
	Speedup float64
	// Exhaustive replaces steepest-descent search with exhaustive
	// enumeration (the §7.4 overhead comparison).
	Exhaustive bool
	// CoarsenThresholdSec is the fine-grained-task threshold: kernels
	// whose sampled time is below it get frequency requests batched
	// (§5.3, task coarsening adopted from STEER).
	CoarsenThresholdSec float64
	// CoarsenWindowSec is the amount of fine-grained work one
	// frequency request covers.
	CoarsenWindowSec float64
	// Adaptive enables re-sampling (a future-work extension beyond
	// the paper): if a kernel's measured execution times drift from
	// the prediction its configuration was selected with — e.g. its
	// working set grows across phases — the kernel is sent back
	// through sampling and selection.
	Adaptive bool
	// DriftTolerance is the relative time error that counts as drift
	// (default 0.5).
	DriftTolerance float64
	// DriftWindow is the number of consecutive drifting executions
	// that triggers re-sampling (default 8).
	DriftWindow int
}

func defaults(o Options) Options {
	if o.CoarsenThresholdSec == 0 {
		o.CoarsenThresholdSec = 200e-6
	}
	if o.CoarsenWindowSec == 0 {
		o.CoarsenWindowSec = 1e-3
	}
	if o.DriftTolerance == 0 {
		o.DriftTolerance = 0.5
	}
	if o.DriftWindow == 0 {
		o.DriftWindow = 8
	}
	return o
}

// NewJOSS returns the full JOSS scheduler: four knobs, total-energy
// objective, steepest-descent configuration selection.
func NewJOSS(set *models.Set) *ModelSched {
	return NewModelSched(set, Options{Name: "JOSS", Goal: GoalMinEnergy, MemDVFS: true})
}

// NewJOSSNoMemDVFS returns JOSS with the memory DVFS knob unavailable
// (fM pinned at maximum) but still optimising total energy — the
// JOSS_NoMemDVFS datapoint of Figure 8.
func NewJOSSNoMemDVFS(set *models.Set) *ModelSched {
	return NewModelSched(set, Options{Name: "JOSS_NoMemDVFS", Goal: GoalMinEnergy})
}

// NewJOSSConstrained returns JOSS targeting energy reduction under a
// performance constraint of `speedup`× relative to plain JOSS
// (Figure 9's JOSS+1.2X / +1.4X / +1.8X).
func NewJOSSConstrained(set *models.Set, speedup float64) *ModelSched {
	return NewModelSched(set, Options{
		Name: "JOSS+" + trimFloat(speedup) + "X", Goal: GoalMinEnergy,
		MemDVFS: true, Speedup: speedup,
	})
}

// NewJOSSMaxP returns JOSS maximising individual task performance
// without considering energy (Figure 9's JOSS+MAXP).
func NewJOSSMaxP(set *models.Set) *ModelSched {
	return NewModelSched(set, Options{Name: "JOSS+MAXP", Goal: GoalMaxPerf, MemDVFS: true})
}

// NewJOSSEDP returns JOSS minimising the per-task energy-delay
// product instead of plain energy.
func NewJOSSEDP(set *models.Set) *ModelSched {
	return NewModelSched(set, Options{Name: "JOSS+EDP", Goal: GoalMinEDP, MemDVFS: true})
}

// NewSTEER returns the STEER baseline (§6.2): models for performance
// and CPU power, knobs <TC, NC, fC> (no memory DVFS), objective = CPU
// energy.
func NewSTEER(set *models.Set) *ModelSched {
	return NewModelSched(set, Options{Name: "STEER", Goal: GoalMinCPUEnergy})
}

// ModelSched is the shared implementation of the model-driven
// schedulers (JOSS family and STEER): online two-frequency sampling
// per kernel (§5.1), per-kernel look-up tables, configuration
// selection for the trade-off goal (§5.2) and task coarsening for
// fine-grained kernels (§5.3).
type ModelSched struct {
	set *models.Set
	opt Options
	rt  *taskrt.Runtime

	// samplers and plans are dense Kernel.Index-indexed slices, sized
	// in Attach once the graph's kernel count is known (nil slot = no
	// sampler started / no plan selected yet).
	samplers  []*kernelSampler
	plans     []*kernelPlan
	planCache *PlanCache
	planScale float64

	// Run-to-run recycled scratch, the scheduler-side counterpart of
	// taskrt.Runtime's pools: sampler/plan free lists, the platform's
	// placement list, the sample-pair and kernel-table buffers one
	// selection works in, the search scratch, and the bound energy/
	// time functions the searches evaluate (curKT/curConc carry the
	// selection-in-progress context those functions read).
	samplerPool []*kernelSampler
	planPool    []*kernelPlan
	pls         []platform.Placement
	pairBuf     map[platform.Placement]models.SamplePair
	ktBuf       *models.KernelTables
	searcher    search.Searcher
	curKT       *models.KernelTables
	curConc     int
	energyFn    search.EnergyFn
	timeFn      search.TimeFn

	// TotalEvals counts configuration evaluations across all kernel
	// selections (§7.4's overhead metric).
	TotalEvals int
	// Resamples counts adaptive re-sampling events (Options.Adaptive).
	Resamples int
	// LastSelectionSec is the virtual time at which the most recent
	// kernel finished sampling and selection — the end of the §5.1
	// sampling phase (the paper reports it costs 0.8% of execution
	// time on average).
	LastSelectionSec float64
}

type kernelPlan struct {
	cfg             platform.Config
	fine            bool
	batch           int
	count           int
	pendingOverhead float64
	// predictedSec is the model-predicted execution time at cfg, for
	// drift detection under Options.Adaptive.
	predictedSec float64
	driftStreak  int
}

// NewModelSched builds a scheduler from a trained model set.
func NewModelSched(set *models.Set, opt Options) *ModelSched {
	return &ModelSched{set: set, opt: defaults(opt)}
}

// Reset rewinds the scheduler so it can drive another run, the way
// taskrt.Runtime.Reset rewinds a runtime: per-kernel samplers and
// selected plans are recycled into free lists (their maps, slot
// tables and boxed tags retained), the kernel-table and search
// scratch stay warm, and the overhead counters return to zero. A
// Reset scheduler reproduces a freshly constructed one's run byte for
// byte (TestModelSchedResetEquivalence). A non-nil set switches the
// trained models (same platform only); nil keeps the current set. Any
// attached plan cache is dropped — call SetPlanCache again after
// Reset if cross-run plan sharing is wanted.
func (s *ModelSched) Reset(set *models.Set) {
	if set != nil {
		s.set = set
	}
	for i, ks := range s.samplers {
		if ks != nil {
			s.samplerPool = append(s.samplerPool, ks)
			s.samplers[i] = nil
		}
	}
	for i, p := range s.plans {
		if p != nil {
			s.planPool = append(s.planPool, p)
			s.plans[i] = nil
		}
	}
	s.planCache = nil
	s.planScale = 0
	s.TotalEvals = 0
	s.Resamples = 0
	s.LastSelectionSec = 0
}

// takeSampler pops a recycled sampler (or builds the first ones).
func (s *ModelSched) takeSampler() *kernelSampler {
	if n := len(s.samplerPool); n > 0 {
		ks := s.samplerPool[n-1]
		s.samplerPool = s.samplerPool[:n-1]
		ks.reuse(s.pls, true)
		return ks
	}
	return newKernelSampler(s.pls, true)
}

// takePlan pops a zeroed recycled plan (or allocates the first ones).
func (s *ModelSched) takePlan() *kernelPlan {
	if n := len(s.planPool); n > 0 {
		p := s.planPool[n-1]
		s.planPool = s.planPool[:n-1]
		*p = kernelPlan{}
		return p
	}
	return &kernelPlan{}
}

// SetPlanCache attaches a shared cross-sweep plan cache: kernels with
// a cached plan skip sampling and selection, and freshly selected
// plans are published for later runs. Plans are keyed by PlanKey —
// kernel identity, this scheduler's goal/knobs/constraint and the
// given workload scale — so schedulers with different objectives can
// safely share one cache.
func (s *ModelSched) SetPlanCache(pc *PlanCache, scale float64) {
	s.planCache = pc
	s.planScale = scale
}

// planKey builds the cache key for one kernel under this scheduler's
// options at the attached cache's scale: the key Decide consults and
// selectConfig publishes. Only the kernel's Name and Demand are read.
func (s *ModelSched) planKey(k *dag.Kernel) PlanKey {
	return PlanKey{
		Kernel:              k.Name,
		Demand:              k.Demand,
		Sched:               s.opt.Name,
		Goal:                s.opt.Goal,
		MemDVFS:             s.opt.MemDVFS,
		Speedup:             s.opt.Speedup,
		Exhaustive:          s.opt.Exhaustive,
		CoarsenThresholdSec: s.opt.CoarsenThresholdSec,
		CoarsenWindowSec:    s.opt.CoarsenWindowSec,
		Scale:               s.planScale,
	}
}

// Name implements taskrt.Scheduler.
func (s *ModelSched) Name() string { return s.opt.Name }

// Attach implements taskrt.Scheduler. The dense per-kernel slices and
// the placement list reuse their buffers across runs (a Reset
// scheduler attaches allocation-free once warm).
func (s *ModelSched) Attach(rt *taskrt.Runtime) {
	s.rt = rt
	s.pls = platform.AppendPlacements(s.pls[:0], rt.Spec())
	nk := rt.NumKernels()
	if cap(s.samplers) < nk {
		s.samplers = make([]*kernelSampler, nk)
		s.plans = make([]*kernelPlan, nk)
	}
	s.samplers = s.samplers[:nk]
	clear(s.samplers)
	s.plans = s.plans[:nk]
	clear(s.plans)
}

// Scope implements taskrt.Scheduler: tasks stay on the selected core
// type (stealing within the type keeps load balanced, §5.3).
func (s *ModelSched) Scope() taskrt.StealScope { return taskrt.StealSameType }

// Decide implements taskrt.Scheduler.
func (s *ModelSched) Decide(t *dag.Task) taskrt.Decision {
	if plan := s.plans[t.Kernel.Index]; plan != nil {
		dec := taskrt.Decision{
			Placement: platform.Placement{TC: plan.cfg.TC, NC: plan.cfg.NC},
			SetFreq:   true,
			FC:        plan.cfg.FC,
			FM:        plan.cfg.FM,
		}
		if plan.fine {
			// Task coarsening: only the leader of each batch issues
			// the DVFS request; the batch then runs at that setting.
			dec.SetFreq = plan.count%plan.batch == 0
		}
		plan.count++
		if plan.pendingOverhead > 0 {
			dec.OverheadSec = plan.pendingOverhead
			plan.pendingOverhead = 0
		}
		return dec
	}
	// Only consult the cache for kernels this run has never started
	// sampling: after adaptive drift detection sends a kernel back
	// through sampling, its sampler exists and the (stale) cached plan
	// must not short-circuit the re-sampling.
	if s.planCache != nil && s.samplers[t.Kernel.Index] == nil {
		if cp, ok := s.planCache.Lookup(s.planKey(t.Kernel)); ok {
			plan := s.takePlan()
			plan.cfg = cp.Cfg
			plan.fine = cp.Fine
			plan.batch = cp.Batch
			plan.predictedSec = cp.PredictedSec
			s.plans[t.Kernel.Index] = plan
			return s.Decide(t)
		}
	}
	ks := s.samplers[t.Kernel.Index]
	if ks == nil {
		ks = s.takeSampler()
		s.samplers[t.Kernel.Index] = ks
	}
	return ks.decide()
}

// TaskDone implements taskrt.Scheduler: records sampling measurements
// and, once a kernel is fully sampled, runs configuration selection.
// Under Options.Adaptive it also watches selected kernels for drift
// between predicted and measured times and re-samples on sustained
// mismatch.
func (s *ModelSched) TaskDone(rec taskrt.ExecRecord) {
	k := rec.Task.Kernel
	if plan := s.plans[k.Index]; plan != nil {
		if s.opt.Adaptive {
			s.checkDrift(k, plan, rec)
		}
		return
	}
	ks := s.samplers[k.Index]
	if ks == nil || !ks.record(rec) {
		return
	}
	s.selectConfig(k, ks)
}

// checkDrift counts consecutive executions whose time deviates from
// the selection-time prediction by more than the tolerance; a full
// window of them sends the kernel back through sampling (§ future
// work: adapting to phase changes).
func (s *ModelSched) checkDrift(k *dag.Kernel, plan *kernelPlan, rec taskrt.ExecRecord) {
	if plan.predictedSec <= 0 || rec.NCActual != plan.cfg.NC ||
		rec.FCStart != plan.cfg.FC || rec.FMStart != plan.cfg.FM {
		// Only judge executions that ran as planned; partial
		// recruitment or coordinated frequencies are not model error.
		return
	}
	rel := rec.Elapsed()/plan.predictedSec - 1
	if rel < 0 {
		rel = -rel
	}
	if rel > s.opt.DriftTolerance {
		plan.driftStreak++
	} else {
		plan.driftStreak = 0
	}
	if plan.driftStreak >= s.opt.DriftWindow {
		s.plans[k.Index] = nil
		s.planPool = append(s.planPool, plan)
		if old := s.samplers[k.Index]; old != nil {
			s.samplerPool = append(s.samplerPool, old)
		}
		s.samplers[k.Index] = s.takeSampler()
		s.Resamples++
	}
}

// evalEnergy scores one configuration for the selection in progress
// (curKT/curConc); it is bound once into energyFn so searches evaluate
// it without a per-selection closure.
func (s *ModelSched) evalEnergy(cfg platform.Config) (float64, bool) {
	if !s.opt.MemDVFS && cfg.FM != platform.MaxFM {
		return 0, false
	}
	switch s.opt.Goal {
	case GoalMinCPUEnergy:
		return s.set.CPUEnergyEstimate(s.curKT, cfg, s.curConc)
	case GoalMinEDP:
		e, ok := s.set.EnergyEstimate(s.curKT, cfg, s.curConc)
		if !ok {
			return 0, false
		}
		p, ok := s.curKT.At(cfg)
		if !ok {
			return 0, false
		}
		return e * p.TimeSec, true
	default:
		return s.set.EnergyEstimate(s.curKT, cfg, s.curConc)
	}
}

// evalTime predicts one configuration's time for the selection in
// progress; bound once into timeFn like evalEnergy.
func (s *ModelSched) evalTime(cfg platform.Config) (float64, bool) {
	if !s.opt.MemDVFS && cfg.FM != platform.MaxFM {
		return 0, false
	}
	p, ok := s.curKT.At(cfg)
	if !ok {
		return 0, false
	}
	return p.TimeSec, true
}

// selectConfig builds the kernel's look-up tables and searches for the
// configuration satisfying the trade-off goal (§5.2).
func (s *ModelSched) selectConfig(k *dag.Kernel, ks *kernelSampler) {
	if s.pairBuf == nil {
		s.pairBuf = make(map[platform.Placement]models.SamplePair)
	}
	ks.samplePairsInto(s.pairBuf)
	if len(s.pairBuf) == 0 {
		return
	}
	s.ktBuf = s.set.BuildTablesInto(s.ktBuf, k.Name, s.pairBuf)
	kt := s.ktBuf
	conc := s.rt.RunningTasks()
	if conc < 1 {
		conc = 1
	}
	s.curKT, s.curConc = kt, conc
	if s.energyFn == nil {
		s.energyFn = s.evalEnergy
		s.timeFn = s.evalTime
	}
	energy, time := s.energyFn, s.timeFn

	spec := s.rt.Spec()
	var res search.Result
	switch {
	case s.opt.Goal == GoalMaxPerf:
		res = search.Fastest(spec, time)
	case s.opt.Speedup > 1:
		var base search.Result
		if s.opt.Exhaustive {
			base = s.searcher.Exhaustive(spec, energy)
		} else {
			base = s.searcher.SteepestDescent(spec, energy)
		}
		if !base.Found {
			return
		}
		baseT, _ := time(base.Cfg)
		res = s.searcher.UnderConstraint(spec, energy, time, baseT/s.opt.Speedup, !s.opt.Exhaustive)
		res.Evals += base.Evals
	case s.opt.Exhaustive:
		res = s.searcher.Exhaustive(spec, energy)
	default:
		res = s.searcher.SteepestDescent(spec, energy)
	}
	if !res.Found {
		return
	}
	s.TotalEvals += res.Evals

	plan := s.takePlan()
	plan.cfg = res.Cfg
	plan.pendingOverhead = float64(res.Evals) * EvalCostSec
	if p, ok := kt.At(res.Cfg); ok {
		plan.predictedSec = p.TimeSec
	}
	s.LastSelectionSec = s.rt.Now()
	if refT, ok := kt.RefTime[platform.Placement{TC: res.Cfg.TC, NC: res.Cfg.NC}]; ok &&
		refT < s.opt.CoarsenThresholdSec {
		plan.fine = true
		plan.batch = int(math.Ceil(s.opt.CoarsenWindowSec / refT))
		if plan.batch < 1 {
			plan.batch = 1
		}
	}
	s.plans[k.Index] = plan
	if s.planCache != nil {
		s.planCache.Store(s.planKey(k), CachedPlan{
			Cfg:          plan.cfg,
			Fine:         plan.fine,
			Batch:        plan.batch,
			PredictedSec: plan.predictedSec,
		})
	}
}

// SelectedConfig returns the configuration chosen for a kernel, if
// selection has happened (for tests and analysis).
func (s *ModelSched) SelectedConfig(k *dag.Kernel) (platform.Config, bool) {
	if k.Index >= len(s.plans) || s.plans[k.Index] == nil {
		return platform.Config{}, false
	}
	return s.plans[k.Index].cfg, true
}

func trimFloat(f float64) string {
	// Render 1.2 as "1.2", 1.0 as "1".
	s := make([]byte, 0, 8)
	whole := int(f)
	s = appendInt(s, whole)
	frac := int(math.Round((f - float64(whole)) * 10))
	if frac > 0 {
		s = append(s, '.')
		s = appendInt(s, frac)
	}
	return string(s)
}

func appendInt(b []byte, v int) []byte {
	if v >= 10 {
		b = appendInt(b, v/10)
	}
	return append(b, byte('0'+v%10))
}
