// Package taskrt implements the task-parallel runtime the paper's
// schedulers are built on — a reimplementation of the XiTAO runtime
// concepts the paper relies on (§5.3, §6.2) over the discrete-event
// simulator:
//
//   - per-core work deques with random work stealing (tasks are placed
//     in the queue of a randomly selected core of the chosen type and
//     may be stolen by other cores of the same type; the GRWS baseline
//     steals across all cores);
//   - moldable execution: a task with NC > 1 dynamically recruits idle
//     cores of its cluster and is partitioned among them; the last
//     partition wakes the dependents;
//   - per-task DVFS requests with arithmetic-mean frequency
//     coordination on shared resources (cluster and memory) when
//     concurrent tasks disagree;
//   - mid-task rescaling: when a cluster or memory frequency
//     transition completes, the remaining work of every affected
//     running task is re-timed under the new configuration;
//   - instantaneous task-concurrency tracking for idle-power
//     attribution.
//
// The execution hot path is allocation-free in steady state: per-core
// queues are growable ring deques, dispatch/wake/completion callbacks
// are closure-free bound events, execution states and decision boxes
// are pooled, and the oracle's per-⟨demand, config⟩ timing/occupancy
// answers are memoized per kernel, reached through its dense index: a
// dense config-indexed slab for the kernel's base demand and a sparse
// map for tasks whose DemandScale sizes them apart from it. A Runtime
// is reusable: Reset rewinds the engine, machine, deques, pools and
// stats — retaining the warmed pools and any oracle memo whose kernels
// are unchanged — so a sweep worker executes an unbounded stream of
// runs while paying environment construction once.
package taskrt

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"

	"joss/internal/dag"
	"joss/internal/platform"
	"joss/internal/sim"
	"joss/internal/trace"
)

// CancelPollEvents is the cooperative poll period: a Run with
// Options.Cancel set polls the flag, and calls Options.Yield, once per
// this many executed simulation events. It bounds worst-case cancel
// latency, and how long a unit preempting this run waits for it to
// give way, by a constant number of events rather than one full cell
// simulation. The value keeps the poll (one atomic load each for the
// flag and an idle Yield) amortised to noise on the warm path while
// still tripping in well under a millisecond of wall clock.
const CancelPollEvents = 512

// StealScope restricts which victims a core may steal from.
type StealScope int

const (
	// StealSameType allows stealing only between cores of the same
	// cluster type, preserving the scheduler's core-type choice
	// (paper §5.3).
	StealSameType StealScope = iota
	// StealAll allows stealing from any core (the GRWS baseline).
	StealAll
)

// CoordMode selects the frequency-coordination heuristic applied when
// concurrent tasks share a cluster or the memory subsystem (§5.3).
type CoordMode int

const (
	// CoordMean averages the task's requested frequency with the
	// resource's current frequency — the heuristic the paper found
	// best.
	CoordMean CoordMode = iota
	// CoordMin takes the lower of the two frequencies.
	CoordMin
	// CoordMax takes the higher of the two frequencies.
	CoordMax
	// CoordOverride always applies the task's request.
	CoordOverride
)

// Decision is a scheduler's placement and frequency choice for one
// ready task.
type Decision struct {
	Placement platform.Placement
	// SetFreq requests DVFS throttling to FC/FM when the task starts.
	SetFreq bool
	FC, FM  int
	// ExactFreq bypasses frequency coordination (used by sampling,
	// which needs the cluster at a known frequency).
	ExactFreq bool
	// OverheadSec models the scheduler's decision cost (e.g. the
	// configuration-search evaluations of §7.4); it delays the task.
	OverheadSec float64
	// Tag is returned in the ExecRecord so schedulers can recognise
	// what this execution was for (e.g. which sampling slot).
	Tag any
}

// ExecRecord reports one completed task execution back to the
// scheduler.
type ExecRecord struct {
	Task      *dag.Task
	Placement platform.Placement
	// NCActual is the number of cores the moldable task actually
	// recruited (≤ Placement.NC).
	NCActual int
	// FCStart/FMStart are the frequency indices in effect when the
	// task began executing.
	FCStart, FMStart int
	StartSec, EndSec float64
	Tag              any
}

// Elapsed returns the execution time in seconds.
func (r ExecRecord) Elapsed() float64 { return r.EndSec - r.StartSec }

// Scheduler decides placement and frequencies for ready tasks.
// Implementations live in package sched.
type Scheduler interface {
	Name() string
	// Attach is called once before execution starts.
	Attach(rt *Runtime)
	// Decide is called when a task becomes ready.
	Decide(t *dag.Task) Decision
	// TaskDone is called when a task completes.
	TaskDone(rec ExecRecord)
	// Scope returns the stealing scope. The runtime reads it once per
	// Run, after Attach.
	Scope() StealScope
}

// StealObserver is an optional scheduler extension notified on steals
// (Aequitas bases its thief/victim heuristic on them).
type StealObserver interface {
	OnSteal(thief, victim int, t *dag.Task)
}

// KernelCount reports one kernel's task executions per core type.
type KernelCount struct {
	Name   string
	ByType [platform.NumCoreTypes]int
}

// Stats counts runtime events during one execution.
type Stats struct {
	TasksExecuted int
	Steals        int
	FreqRequests  int
	Recruitments  int
	// TransitionsCPU / TransitionsMem are completed DVFS transitions
	// (requests for the current frequency are no-ops).
	TransitionsCPU int
	TransitionsMem int
	// TasksByType[tc] counts tasks executed per core type.
	TasksByType [platform.NumCoreTypes]int
	// Events is the number of simulation events the engine processed
	// over the whole run (trailing scheduler timers included), captured
	// from sim.Engine.Processed when the event loop drains.
	Events int
	// Kernels counts task executions per kernel per core type, in
	// graph kernel order (kernels that executed no task are omitted).
	// The dense slice replaces the per-run map the report used to
	// carry; use KernelType for name lookups.
	Kernels []KernelCount
}

// KernelType returns the per-core-type execution counts for a kernel
// name, or nil if the kernel executed no task.
func (s *Stats) KernelType(name string) *[platform.NumCoreTypes]int {
	for i := range s.Kernels {
		if s.Kernels[i].Name == name {
			return &s.Kernels[i].ByType
		}
	}
	return nil
}

// Report is the outcome of one application execution.
type Report struct {
	Scheduler   string
	Graph       string
	MakespanSec float64
	// Sensor is the INA3221-style 5 ms-sampled energy (what the
	// paper reports); Exact is the event-exact integral.
	Sensor  platform.Energy
	Exact   platform.Energy
	Samples int
	Stats   Stats
}

type execState struct {
	seq       uint64 // creation order, for deterministic iteration
	task      *dag.Task
	placement platform.Placement
	cores     []int
	cluster   int
	remaining float64 // fraction of the task still to run
	rate      float64 // fraction per second under current frequencies
	lastT     float64
	ev        *sim.Event
	startSec  float64
	fcStart   int
	fmStart   int
	tag       any
}

// ringDeque is a growable ring buffer of tasks supporting the three
// queue operations the runtime needs: push-back (enqueue), pop-back
// (LIFO own-queue fetch) and pop-front (FIFO steal).
type ringDeque struct {
	buf  []*dag.Task
	head int
	n    int
}

func (q *ringDeque) len() int { return q.n }

// reset empties the deque, retaining its buffer. Pops nil out their
// slots as they go, so only the live window needs clearing — a no-op
// after a completed run, which drains every queue.
func (q *ringDeque) reset() {
	for ; q.n > 0; q.n-- {
		q.buf[q.head] = nil
		q.head = (q.head + 1) & (len(q.buf) - 1)
	}
	q.head = 0
}

func (q *ringDeque) grow() {
	size := len(q.buf) * 2
	if size == 0 {
		size = 8
	}
	buf := make([]*dag.Task, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}

func (q *ringDeque) pushBack(t *dag.Task) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = t
	q.n++
}

func (q *ringDeque) popBack() *dag.Task {
	q.n--
	i := (q.head + q.n) & (len(q.buf) - 1)
	t := q.buf[i]
	q.buf[i] = nil
	return t
}

func (q *ringDeque) popFront() *dag.Task {
	t := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return t
}

type core struct {
	id      int
	cluster int
	queue   ringDeque
	exec    *execState
	wakeEv  *sim.Event
}

// Options tune runtime behaviour.
type Options struct {
	Seed  int64
	Coord CoordMode
	// DispatchOverheadSec is the fixed cost of dispatching one ready
	// task (queue operations), added to the scheduler's per-decision
	// overhead.
	DispatchOverheadSec float64
	// SensorPeriodSec overrides the power sensor's 5 ms INA3221
	// sampling period (0 = the paper's default). Coarser periods trade
	// sensor-energy resolution for fewer simulation events on
	// large-scale throughput sweeps; the exact energy integral is
	// unaffected.
	SensorPeriodSec float64
	// SensorOff disables the sampled power sensor entirely: the run's
	// Report carries Samples == 0 and only the event-exact integral
	// (exp.EnergyOf falls back to Exact).
	SensorOff bool
	// Trace, if non-nil, records the execution timeline (task
	// placements, DVFS transitions, power samples).
	Trace *trace.Trace
	// Cancel, when non-nil, is polled cooperatively during Run: the
	// event loop checks the flag every CancelPollEvents executed
	// events and, when it is set, unwinds cleanly instead of finishing
	// the simulation. An aborted run returns a zero-valued Report with
	// Interrupted() true and the runtime stays Reset-able: after Reset
	// it reproduces a fresh runtime's results byte for byte. A nil
	// Cancel keeps the historical single-call event loop.
	Cancel *atomic.Bool
	// Yield, when non-nil, is called at every Cancel poll (it is
	// ignored when Cancel is nil). The run is paused between events
	// while Yield runs, and Yield may execute other runs on other
	// runtimes on the calling goroutine; when it returns, this run
	// resumes untouched, and a Cancel set meanwhile takes effect at
	// once.
	Yield func()
}

// DefaultOptions returns the options used by the experiments.
func DefaultOptions() Options {
	return Options{Seed: 1, Coord: CoordMean, DispatchOverheadSec: 1e-6}
}

// oracleAnswer is one memoized oracle answer: a demand's time
// breakdown and per-core occupancy at one configuration.
type oracleAnswer struct {
	tb    platform.TimeBreakdown
	occ   platform.CoreOccupancy
	valid bool
}

// demandCache holds the oracle's deterministic answers for one demand
// across a dense config grid, so retiming a task under frequencies it
// has already seen costs one array load instead of the oracle's
// transcendental math. Unlike platform.Config.Index, the runtime's
// grid indexes NC exactly (recruitment can yield any core count up to
// the cluster size, not just powers of two), so slabs are sized per
// machine in New.
type demandCache []oracleAnswer

// scaledKey identifies a memoized answer for a task whose DemandScale
// differs from its kernel's base demand: the scale and the index of
// the config on the runtime's exact-NC grid.
type scaledKey struct {
	scale float64
	cfg   int
}

// kernelCache is the per-kernel slot of the runtime's oracle memo,
// indexed by dag.Kernel.Index (dense — no map on the base-demand hot
// path). The oracle is a pure function of ⟨demand, config⟩, so entries
// survive Runtime.Reset as long as the kernel at that index keeps the
// same name and demand: the repeat loop of a sweep cell rebuilds the
// same workload and pays the oracle's transcendental math only once per
// worker, not once per run. Tasks at their kernel's base demand share
// one dense slab; tasks scaled apart from it (the Biomarker
// heterogeneity, where a kernel has hundreds of distinct scales and
// each runs at a few configs) keep only the answers they computed, in
// a map keyed on ⟨scale, config⟩.
type kernelCache struct {
	name   string
	demand platform.TaskDemand
	base   demandCache // base demand (DemandScale 0 or 1), lazily built
	scaled map[scaledKey]oracleAnswer
}

// Bound-event handlers: long-lived adapters that let the runtime
// schedule its methods through sim.AfterEvent without a per-call
// closure allocation.
type enqueueHandler struct{ rt *Runtime }

func (h *enqueueHandler) OnEvent(target int, p0 any) { h.rt.enqueue(target, p0.(*dag.Task)) }

type wakeHandler struct{ rt *Runtime }

func (h *wakeHandler) OnEvent(id int, _ any) {
	c := h.rt.cores[id]
	c.wakeEv = nil
	h.rt.fetch(id)
}

type completeHandler struct{ rt *Runtime }

func (h *completeHandler) OnEvent(_ int, p0 any) { h.rt.complete(p0.(*execState)) }

// Runtime executes a task graph under a scheduler on the simulated
// platform.
type Runtime struct {
	Eng   *sim.Engine
	M     *platform.Machine
	O     *platform.Oracle
	Sched Scheduler
	Opt   Options

	rng         *rand.Rand
	cores       []*core
	byType      [platform.NumCoreTypes][]int
	allCores    []int
	running     []*execState // ordered by execState.seq
	execSeq     uint64
	remaining   int
	stats       Stats
	graph       *dag.Graph
	scope       StealScope // Sched.Scope() of the current run
	finished    bool
	interrupted bool

	// Per-run task-state lane (structure-of-arrays, indexed by
	// Task.ID): the unfinished-predecessor counters and pending
	// scheduler decisions of the current execution. Keeping them here —
	// not on dag.Task — leaves the graph immutable during execution, so
	// one built DAG serves any number of repeated runs without a per-run
	// rewind walk: starting a run is one memcpy of the graph's cached
	// base counters.
	npred []int32
	decs  []*Decision

	// Pools and caches keeping the steady-state hot path
	// allocation-free.
	esPool      []*execState
	decPool     []*Decision
	kcache      []kernelCache // oracle memo, indexed by Kernel.Index
	slabPool    []demandCache // recycled slabs for kcache base entries
	cfgSlots    int           // size of the exact-NC config grid
	maxNC       int
	kernelStats [][platform.NumCoreTypes]int

	enqH enqueueHandler
	wakH wakeHandler
	cmpH completeHandler

	// Captured at the moment the last task completes, so trailing
	// scheduler timers cannot inflate the measured run.
	endMakespan float64
	endSensor   platform.Energy
	endExact    platform.Energy
	endSamples  int
}

// New builds a runtime over a fresh engine and machine.
func New(o *platform.Oracle, s Scheduler, opt Options) *Runtime {
	eng := sim.New()
	m := platform.NewMachine(eng, o)
	rt := &Runtime{
		Eng:   eng,
		M:     m,
		O:     o,
		Sched: s,
		Opt:   opt,
		rng:   rand.New(rand.NewSource(opt.Seed)),
	}
	rt.enqH.rt = rt
	rt.wakH.rt = rt
	rt.cmpH.rt = rt
	rt.maxNC = m.Spec.MaxClusterCores()
	rt.cfgSlots = int(platform.NumCoreTypes) * (rt.maxNC + 1) *
		platform.NumCPUFreqs * platform.NumMemFreqs
	for id := 0; id < m.NumCores(); id++ {
		ci := m.ClusterOfCore(id)
		rt.cores = append(rt.cores, &core{id: id, cluster: ci})
		tc := m.CoreType(id)
		rt.byType[tc] = append(rt.byType[tc], id)
		rt.allCores = append(rt.allCores, id)
	}
	m.OnClusterFreqChange = rt.onClusterFreqChange
	m.OnMemFreqChange = rt.onMemFreqChange
	if opt.Trace != nil {
		opt.Trace.NumCore = m.NumCores()
	}
	return rt
}

// Rand returns the runtime's deterministic RNG (shared with the
// scheduler so a run is fully reproducible from its seed).
func (rt *Runtime) Rand() *rand.Rand { return rt.rng }

// Now returns the current virtual time.
func (rt *Runtime) Now() float64 { return rt.Eng.Now() }

// RunningTasks returns the instantaneous task concurrency (distinct
// tasks currently executing), the quantity JOSS uses to attribute
// idle power (§5.3).
func (rt *Runtime) RunningTasks() int { return len(rt.running) }

// Spec returns the platform specification.
func (rt *Runtime) Spec() platform.Spec { return rt.M.Spec }

// ClusterFC returns the current frequency index of the cluster hosting
// core type tc.
func (rt *Runtime) ClusterFC(tc platform.CoreType) int {
	return rt.M.FC(rt.M.ClusterByType(tc))
}

// MemFM returns the current memory frequency index.
func (rt *Runtime) MemFM() int { return rt.M.FM() }

// RequestClusterFreqByType lets schedulers (Aequitas) throttle a
// cluster directly.
func (rt *Runtime) RequestClusterFreqByType(tc platform.CoreType, fc int) {
	rt.stats.FreqRequests++
	rt.M.RequestClusterFreq(rt.M.ClusterByType(tc), fc)
}

// After schedules a scheduler callback in virtual time (for periodic
// policies like Aequitas's 1-second time slices).
func (rt *Runtime) After(d float64, fn func()) { rt.Eng.After(d, fn) }

// QueueLen returns the number of queued tasks on a core (Aequitas's
// work-queue-size signal).
func (rt *Runtime) QueueLen(core int) int { return rt.cores[core].queue.len() }

// CoreIsBusy reports whether a core is executing a task.
func (rt *Runtime) CoreIsBusy(core int) bool { return rt.cores[core].exec != nil }

// CoresOfType returns the core IDs of one type.
func (rt *Runtime) CoresOfType(tc platform.CoreType) []int { return rt.byType[tc] }

// Finished reports whether the run has completed (schedulers use it to
// stop periodic timers).
func (rt *Runtime) Finished() bool { return rt.finished }

// Interrupted reports whether the last Run was aborted by
// Options.Cancel before completing. An interrupted runtime must be
// Reset before it can Run again, exactly like a finished one.
func (rt *Runtime) Interrupted() bool { return rt.interrupted }

// NumKernels returns the number of kernels of the graph being executed
// (valid from Scheduler.Attach onward); schedulers use it to size
// Kernel.Index-indexed state.
func (rt *Runtime) NumKernels() int { return len(rt.graph.Kernels) }

// Reset rewinds the runtime so it can execute another run: the engine
// returns to time 0 (retaining its pooled events), the machine to max
// frequencies with the meter rewound, the deques, pools and stats to
// their initial state, and the RNG is re-seeded from Opt.Seed. The
// oracle memo is reconciled against g: entries whose kernel identity
// (name and demand) is unchanged at the same index are retained —
// deterministic oracle answers cannot go stale — and the rest are
// recycled. Callers may assign a new Sched and Opt.Seed before Reset;
// a Reset-reused Runtime reproduces a fresh Runtime's report
// byte for byte.
func (rt *Runtime) Reset(g *dag.Graph) {
	rt.Eng.Reset()
	rt.M.Reset()
	rt.rng.Seed(rt.Opt.Seed)
	for _, c := range rt.cores {
		c.queue.reset()
		c.exec = nil
		c.wakeEv = nil
	}
	rt.running = rt.running[:0]
	rt.execSeq = 0
	rt.stats = Stats{}
	rt.finished = false
	rt.interrupted = false
	rt.graph = nil
	rt.prepareCaches(g)
}

// prepareCaches reconciles the oracle memo with g's kernel list and
// sizes the per-kernel stats buffer. Run calls it unconditionally:
// graphs are rebuilt in place by dag.Renew, so pointer identity says
// nothing about kernel identity — only this name+demand walk does.
// It is idempotent and cheap when the kernel set is unchanged (the
// sweep repeat loop).
func (rt *Runtime) prepareCaches(g *dag.Graph) {
	nk := len(g.Kernels)
	for i := nk; i < len(rt.kcache); i++ {
		rt.recycleKernelCache(&rt.kcache[i])
	}
	// Slots past the current length keep their (cleared) maps, so a
	// worker that comes back to a wider graph reuses their storage.
	if nk > cap(rt.kcache) {
		rt.kcache = slices.Grow(rt.kcache[:cap(rt.kcache)], nk-cap(rt.kcache))
	}
	rt.kcache = rt.kcache[:nk]
	for i, k := range g.Kernels {
		kc := &rt.kcache[i]
		if kc.name == k.Name && kc.demand == k.Demand {
			continue // identical kernel: memoized answers stay valid
		}
		rt.recycleKernelCache(kc)
		kc.name, kc.demand = k.Name, k.Demand
	}

	if cap(rt.kernelStats) < nk {
		rt.kernelStats = make([][platform.NumCoreTypes]int, nk)
	}
	rt.kernelStats = rt.kernelStats[:nk]
	for i := range rt.kernelStats {
		rt.kernelStats[i] = [platform.NumCoreTypes]int{}
	}
}

// recycleKernelCache empties a stale entry: its base slab returns to
// the pool and its scaled-answer map is cleared, not dropped, so the
// map's storage serves the slot's next kernel.
func (rt *Runtime) recycleKernelCache(kc *kernelCache) {
	if kc.base != nil {
		clear(kc.base)
		rt.slabPool = append(rt.slabPool, kc.base)
		kc.base = nil
	}
	clear(kc.scaled)
}

func (rt *Runtime) newSlab() demandCache {
	if n := len(rt.slabPool); n > 0 {
		dc := rt.slabPool[n-1]
		rt.slabPool = rt.slabPool[:n-1]
		return dc
	}
	return make(demandCache, rt.cfgSlots)
}

// Run executes the graph to completion and returns the report. A
// finished Runtime must be rewound with Reset before it can Run again.
// Execution never mutates g: per-run predecessor counters and pending
// decisions live in the runtime's own task-state lane, seeded from the
// graph's cached base state, so the same built graph can back any
// number of runs concurrently across runtimes.
func (rt *Runtime) Run(g *dag.Graph) Report {
	if rt.finished {
		panic("taskrt: Runtime has finished a run; call Reset before reusing it")
	}
	base, roots := g.BaseState()
	n := g.NumTasks()
	if cap(rt.npred) < n {
		rt.npred = make([]int32, n)
	}
	rt.npred = rt.npred[:n]
	copy(rt.npred, base)
	if cap(rt.decs) < n {
		rt.decs = make([]*Decision, n)
	}
	rt.decs = rt.decs[:n]
	clear(rt.decs) // drops (does not recycle) boxes left by an aborted run
	rt.graph = g
	rt.remaining = n
	rt.prepareCaches(g)
	// Every dispatch without scheduler overhead is delayed by exactly
	// DispatchOverheadSec: the engine queues those events in a FIFO lane.
	rt.Eng.SetFixedDelay(rt.Opt.DispatchOverheadSec)
	rt.Sched.Attach(rt)
	rt.scope = rt.Sched.Scope()
	rt.M.Meter.ConfigureSensor(rt.Opt.SensorPeriodSec, rt.Opt.SensorOff)
	rt.M.Meter.Reset()
	rt.M.Meter.StartSensor()

	for _, t := range roots {
		rt.dispatch(t)
	}
	// Run until all tasks completed; the sensor stops itself when the
	// last task finishes, so the event queue drains naturally. With a
	// cancel flag installed, execute in CancelPollEvents batches and
	// poll between them (Yield included) — an idle poll costs an atomic
	// load or two per batch and allocates nothing, so the warm path's
	// allocation profile is unchanged.
	if c := rt.Opt.Cancel; c == nil {
		rt.Eng.Run()
	} else {
		for !c.Load() && rt.Eng.RunLimit(CancelPollEvents) == CancelPollEvents {
			if y := rt.Opt.Yield; y != nil {
				y()
			}
		}
		if c.Load() && rt.remaining != 0 {
			return rt.abort(g)
		}
		// A cancel that trips after the last task completed is too
		// late to matter: drain the trailing scheduler timers so the
		// report is bit-identical to an uncancelled run.
		rt.Eng.Run()
	}
	if rt.remaining != 0 {
		panic(fmt.Sprintf("taskrt: deadlock — %d tasks never became ready (graph %q)",
			rt.remaining, g.Name))
	}

	rt.stats.TransitionsCPU = rt.M.TransitionsCPU
	rt.stats.TransitionsMem = rt.M.TransitionsMem
	rt.stats.Events = int(rt.Eng.Processed())
	for i, k := range g.Kernels {
		counts := rt.kernelStats[i]
		total := 0
		for _, c := range counts {
			total += c
		}
		if total == 0 {
			continue
		}
		rt.stats.Kernels = append(rt.stats.Kernels, KernelCount{Name: k.Name, ByType: counts})
	}
	return Report{
		Scheduler:   rt.Sched.Name(),
		Graph:       g.Name,
		MakespanSec: rt.endMakespan,
		Sensor:      rt.endSensor,
		Exact:       rt.endExact,
		Samples:     rt.endSamples,
		Stats:       rt.stats,
	}
}

// abort unwinds a run cancelled mid-simulation: the sampled sensor is
// stopped, the runtime is marked finished and Interrupted, and a
// zero-measurement Report is returned. Nothing else is torn down here
// — Reset already rewinds the engine's pending events, the per-core
// deques, the machine and the meter, and the next Run re-seeds the
// task-state lane from the graph's base state — so an aborted runtime
// is reusable exactly like a finished one. Pooled Decision/execState
// boxes still referenced by the abandoned run are simply not
// recycled; fresh ones are allocated on demand.
func (rt *Runtime) abort(g *dag.Graph) Report {
	rt.finished = true
	rt.interrupted = true
	rt.M.Meter.StopSensor()
	return Report{Scheduler: rt.Sched.Name(), Graph: g.Name}
}

// newDecision takes a Decision box from the pool.
func (rt *Runtime) newDecision() *Decision {
	if n := len(rt.decPool); n > 0 {
		d := rt.decPool[n-1]
		rt.decPool = rt.decPool[:n-1]
		return d
	}
	return &Decision{}
}

func (rt *Runtime) freeDecision(d *Decision) {
	*d = Decision{}
	rt.decPool = append(rt.decPool, d)
}

// newExecState takes an execution state from the pool.
func (rt *Runtime) newExecState() *execState {
	if n := len(rt.esPool); n > 0 {
		es := rt.esPool[n-1]
		rt.esPool = rt.esPool[:n-1]
		return es
	}
	return &execState{}
}

func (rt *Runtime) freeExecState(es *execState) {
	cores := es.cores[:0]
	*es = execState{cores: cores}
	rt.esPool = append(rt.esPool, es)
}

// dispatch asks the scheduler for a decision and enqueues the ready
// task on a random core of the chosen type.
func (rt *Runtime) dispatch(t *dag.Task) {
	dec := rt.Sched.Decide(t)
	pl := dec.Placement
	ids := rt.byType[pl.TC]
	if len(ids) == 0 {
		panic(fmt.Sprintf("taskrt: no cores of type %v", pl.TC))
	}
	target := ids[rt.rng.Intn(len(ids))]
	pd := rt.newDecision()
	*pd = dec
	rt.decs[t.ID] = pd
	delay := dec.OverheadSec + rt.Opt.DispatchOverheadSec
	if delay > 0 {
		rt.Eng.AfterEvent(delay, &rt.enqH, target, t)
	} else {
		rt.enqueue(target, t)
	}
}

func (rt *Runtime) enqueue(target int, t *dag.Task) {
	c := rt.cores[target]
	c.queue.pushBack(t)
	rt.wake(target)
	// Wake an idle potential thief whenever queued work cannot start
	// immediately on the home core (it is busy, or this enqueue burst
	// has already given it a task), so no queue waits while cores in
	// scope sleep.
	if c.exec != nil || c.queue.len() > 1 {
		if thief, ok := rt.idleCoreInScope(target); ok {
			rt.wake(thief)
		}
	}
}

// stealPool returns the victim candidates for a core under the current
// scope. Pools are precomputed — no per-scan allocation.
func (rt *Runtime) stealPool(core int) []int {
	if rt.scope == StealAll {
		return rt.allCores
	}
	return rt.byType[rt.M.CoreType(core)]
}

// idleCoreInScope finds an idle core allowed to steal from `from`.
func (rt *Runtime) idleCoreInScope(from int) (int, bool) {
	pool := rt.stealPool(from)
	j := rt.rng.Intn(len(pool))
	for range pool {
		id := pool[j]
		if j++; j == len(pool) {
			j = 0
		}
		if id != from && rt.cores[id].exec == nil && rt.cores[id].queue.len() == 0 {
			return id, true
		}
	}
	return 0, false
}

// wake schedules a fetch attempt for an idle core.
func (rt *Runtime) wake(id int) {
	c := rt.cores[id]
	if c.exec != nil || c.wakeEv != nil {
		return
	}
	c.wakeEv = rt.Eng.AfterEvent(0, &rt.wakH, id, nil)
}

// fetch makes an idle core look for work: own queue first (LIFO),
// then stealing (FIFO from a random victim in scope).
func (rt *Runtime) fetch(id int) {
	c := rt.cores[id]
	if c.exec != nil {
		return
	}
	if c.queue.len() > 0 {
		rt.start(id, c.queue.popBack())
		return
	}
	// Steal.
	pool := rt.stealPool(id)
	j := rt.rng.Intn(len(pool))
	for range pool {
		vid := pool[j]
		if j++; j == len(pool) {
			j = 0
		}
		if vid == id {
			continue
		}
		v := rt.cores[vid]
		if v.queue.len() == 0 {
			continue
		}
		t := v.queue.popFront()
		rt.stats.Steals++
		if so, ok := rt.Sched.(StealObserver); ok {
			so.OnSteal(id, vid, t)
		}
		rt.start(id, t)
		return
	}
	// Nothing to do: sleep until woken by an enqueue or completion.
}

// start begins executing task t on core `lead`, recruiting idle
// same-cluster cores for moldable execution.
func (rt *Runtime) start(lead int, t *dag.Task) {
	pd := rt.decs[t.ID]
	dec := *pd
	rt.freeDecision(pd)
	rt.decs[t.ID] = nil
	c := rt.cores[lead]
	cluster := c.cluster

	// Under cross-type stealing (GRWS) the executing core's type wins:
	// the task runs on the thief's cluster, whatever the dispatcher
	// picked. Same-type stealing never changes the type.
	execPl := dec.Placement
	execPl.TC = rt.M.Spec.Clusters[cluster].Type

	rt.execSeq++
	es := rt.newExecState()
	es.seq = rt.execSeq
	es.task = t
	es.placement = execPl
	es.cluster = cluster
	es.remaining = 1
	es.lastT = rt.Now()
	es.startSec = rt.Now()
	es.fcStart = rt.M.FC(cluster)
	es.fmStart = rt.M.FM()
	es.tag = dec.Tag
	es.cores = append(es.cores, lead)
	if dec.Placement.NC > 1 {
		for _, id := range rt.M.Clusters[cluster].CoreIDs() {
			if len(es.cores) >= dec.Placement.NC {
				break
			}
			if id == lead {
				continue
			}
			cc := rt.cores[id]
			if cc.exec == nil && cc.queue.len() == 0 {
				if cc.wakeEv != nil {
					cc.wakeEv.Cancel()
					cc.wakeEv = nil
				}
				es.cores = append(es.cores, id)
				rt.stats.Recruitments++
			}
		}
	}

	for _, id := range es.cores {
		rt.cores[id].exec = es
	}
	rt.running = append(rt.running, es)

	// DVFS requests with frequency coordination (§5.3).
	if dec.SetFreq {
		rt.requestFreqs(es, dec)
	}

	rt.retime(es)
}

// requestFreqs applies the coordination heuristic and issues DVFS
// requests for the task's desired frequencies.
func (rt *Runtime) requestFreqs(es *execState, dec Decision) {
	wantFC, wantFM := dec.FC, dec.FM
	if !dec.ExactFreq && rt.Opt.Coord != CoordOverride {
		// Other tasks currently share the cluster?
		othersOnCluster := false
		for _, other := range rt.running {
			if other != es && other.cluster == es.cluster {
				othersOnCluster = true
				break
			}
		}
		if othersOnCluster {
			wantFC = coordinate(rt.Opt.Coord,
				platform.CPUFreqsGHz, rt.M.FC(es.cluster), wantFC)
		}
		if len(rt.running) > 1 { // memory is shared machine-wide
			wantFM = coordinate(rt.Opt.Coord,
				platform.MemFreqsGHz, rt.M.FM(), wantFM)
		}
	}
	rt.stats.FreqRequests++
	rt.M.RequestClusterFreq(es.cluster, wantFC)
	rt.M.RequestMemFreq(wantFM)
}

// coordinate merges the resource's current frequency index with the
// requested one under the given mode.
func coordinate(mode CoordMode, table []float64, cur, want int) int {
	switch mode {
	case CoordMean:
		ghz := (table[cur] + table[want]) / 2
		return nearestIdx(table, ghz)
	case CoordMin:
		if cur < want {
			return cur
		}
		return want
	case CoordMax:
		if cur > want {
			return cur
		}
		return want
	default:
		return want
	}
}

func nearestIdx(table []float64, ghz float64) int {
	best, bestD := 0, -1.0
	for i, f := range table {
		d := f - ghz
		if d < 0 {
			d = -d
		}
		if bestD < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// effConfig returns the configuration a running task currently
// experiences: its placement with the machine's live frequencies.
func (rt *Runtime) effConfig(es *execState) platform.Config {
	return platform.Config{
		TC: es.placement.TC,
		NC: len(es.cores),
		FC: rt.M.FC(es.cluster),
		FM: rt.M.FM(),
	}
}

// oracleAt returns the memoized time breakdown and per-core occupancy
// for a task's effective demand at cfg. The oracle is deterministic,
// so each ⟨demand, config⟩ cell is computed once per Runtime lifetime
// — not per run — and then served from the kernel's memo: its dense
// slab for the base demand, its sparse map for a scaled one.
func (rt *Runtime) oracleAt(t *dag.Task, cfg platform.Config) (platform.TimeBreakdown, platform.CoreOccupancy) {
	kc := &rt.kcache[t.Kernel.Index]
	idx := ((int(cfg.TC)*(rt.maxNC+1)+cfg.NC)*platform.NumCPUFreqs+cfg.FC)*
		platform.NumMemFreqs + cfg.FM
	// The base/scaled split is dag.Task.EffectiveDemand's predicate.
	if s := t.DemandScale; s > 0 && s != 1 {
		key := scaledKey{s, idx}
		a, ok := kc.scaled[key]
		if !ok {
			if kc.scaled == nil {
				kc.scaled = make(map[scaledKey]oracleAnswer)
			}
			a = rt.answer(t, cfg)
			kc.scaled[key] = a
		}
		return a.tb, a.occ
	}
	if kc.base == nil {
		kc.base = rt.newSlab()
	}
	a := &kc.base[idx]
	if !a.valid {
		*a = rt.answer(t, cfg)
	}
	return a.tb, a.occ
}

// answer asks the oracle for a task's effective demand at cfg.
func (rt *Runtime) answer(t *dag.Task, cfg platform.Config) oracleAnswer {
	d := t.EffectiveDemand()
	tb := rt.O.TaskTime(d, cfg)
	return oracleAnswer{tb: tb, occ: rt.occupancyFor(d, cfg, tb), valid: true}
}

// retime recomputes a running task's completion under the current
// frequencies, updating per-core occupancies and the completion event.
func (rt *Runtime) retime(es *execState) {
	now := rt.Now()
	if es.rate > 0 {
		es.remaining -= (now - es.lastT) * es.rate
		if es.remaining < 0 {
			es.remaining = 0
		}
	}
	es.lastT = now

	cfg := rt.effConfig(es)
	tb, occ := rt.oracleAt(es.task, cfg)
	es.rate = 1 / tb.TotalSec

	for _, id := range es.cores {
		if rt.M.CoreBusy(id) {
			rt.M.UpdateOccupancy(id, occ)
		} else {
			rt.M.SetCoreBusy(id, occ)
		}
	}

	if es.ev != nil {
		es.ev.Cancel()
	}
	es.ev = rt.Eng.AfterEvent(es.remaining*tb.TotalSec, &rt.cmpH, 0, es)
}

// occupancyFor converts the oracle's task-level account into per-core
// power contributions consistent with Oracle.Measure.
func (rt *Runtime) occupancyFor(d platform.TaskDemand, cfg platform.Config, tb platform.TimeBreakdown) platform.CoreOccupancy {
	// Total dynamic power over the task's NC cores (incl. prefetch
	// bandwidth term), folded into a per-core activity factor.
	perCPU := rt.O.CPUDynPower(d, cfg, tb.StallFrac, tb.BWGBs)
	cp := rt.O.Core[cfg.TC]
	f := cfg.FCGHz()
	v := platform.CPUVoltage(cfg.FC)
	effAct := 0.0
	if denom := cp.CdynW * f * v * v * float64(cfg.NC); denom > 0 {
		effAct = perCPU / denom
	}
	memW := rt.O.MemAccessPower(d, cfg, tb.BWGBs) / float64(cfg.NC)
	return platform.CoreOccupancy{
		Kernel:     d.Kernel,
		EffAct:     effAct,
		MemAccessW: memW,
	}
}

// complete finishes a task: frees its cores, wakes dependents and
// reports to the scheduler.
func (rt *Runtime) complete(es *execState) {
	rec := ExecRecord{
		Task:      es.task,
		Placement: es.placement,
		NCActual:  len(es.cores),
		FCStart:   es.fcStart,
		FMStart:   es.fmStart,
		StartSec:  es.startSec,
		EndSec:    rt.Now(),
		Tag:       es.tag,
	}
	for i, r := range rt.running {
		if r == es {
			copy(rt.running[i:], rt.running[i+1:])
			rt.running[len(rt.running)-1] = nil
			rt.running = rt.running[:len(rt.running)-1]
			break
		}
	}
	for _, id := range es.cores {
		rt.cores[id].exec = nil
		rt.M.SetCoreIdle(id)
	}
	if tr := rt.Opt.Trace; tr != nil {
		tr.AddTask(trace.TaskEvent{
			TaskID: es.task.ID, Kernel: es.task.Kernel.Name,
			Cores:    append([]int(nil), es.cores...),
			StartSec: es.startSec, EndSec: rt.Now(),
			FC: es.fcStart, FM: es.fmStart,
		})
		tr.AddPower(trace.PowerSample{
			AtSec: rt.Now(), CPUW: rt.M.CPUPowerW(), MemW: rt.M.MemPowerW(),
		})
	}
	rt.stats.TasksExecuted++
	rt.stats.TasksByType[es.placement.TC]++
	rt.kernelStats[es.task.Kernel.Index][es.placement.TC]++

	rt.remaining--
	task := es.task
	cores := es.cores
	es.ev = nil
	rt.Sched.TaskDone(rec)

	for _, s := range task.Succs {
		rt.npred[s.ID]--
		if rt.npred[s.ID] == 0 {
			rt.dispatch(s)
		}
	}

	if rt.remaining == 0 {
		rt.finished = true
		rt.M.Meter.StopSensor()
		rt.endMakespan = rt.M.Meter.Elapsed()
		rt.endExact = rt.M.Meter.Exact()
		rt.endSensor, rt.endSamples = rt.M.Meter.Sensor()
		rt.freeExecState(es)
		return
	}

	// Freed cores look for more work.
	for _, id := range cores {
		rt.wake(id)
	}
	rt.freeExecState(es)
}

// onClusterFreqChange rescales every task running on the cluster.
// rt.running is kept in creation (seq) order, so iteration order can
// never depend on map layout — runs stay reproducible.
func (rt *Runtime) onClusterFreqChange(cluster int) {
	if tr := rt.Opt.Trace; tr != nil {
		tr.AddFreq(trace.FreqEvent{
			AtSec: rt.Now(), Domain: fmt.Sprintf("cpu%d", cluster),
			Freq: rt.M.FC(cluster),
		})
	}
	for _, es := range rt.running {
		if es.cluster == cluster {
			rt.retime(es)
		}
	}
}

// onMemFreqChange rescales every running task.
func (rt *Runtime) onMemFreqChange() {
	if tr := rt.Opt.Trace; tr != nil {
		tr.AddFreq(trace.FreqEvent{AtSec: rt.Now(), Domain: "mem", Freq: rt.M.FM()})
	}
	for _, es := range rt.running {
		rt.retime(es)
	}
}
