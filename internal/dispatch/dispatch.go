// Package dispatch is the session-wide fair-share run-unit dispatcher:
// a fixed pool of workers pulling the ⟨cell, repeat⟩ units of many
// concurrently admitted jobs from one central multi-queue. It replaces
// the run-a-whole-request-then-the-next worker loop the service layer
// used before: a 2-cell probe admitted behind a 500-cell sweep no
// longer waits for the sweep — it gets the next free worker and
// finishes while the sweep is still draining.
//
// The policy has two levels:
//
//   - Across jobs, least attained service: every job accrues the cost
//     of the units dispatched on its behalf, a newly admitted job
//     starts at the minimum attained service of the jobs already
//     active, and each free worker serves the job with the least
//     attained service. Small jobs therefore overtake large ones
//     (their total demand is below the big job's next quantum) while
//     concurrent long jobs converge to equal shares — a deficit
//     round-robin over unit costs.
//   - Within a job, largest cell first (by the admission-time cost of
//     the cell), repeats of one cell adjacent and in repeat order, so
//     a big cell's repeats spread over workers early instead of
//     forming the straggler tail.
//
// Dispatch order is a wall-clock policy only. Units must be
// independent of each other and of which worker runs them — the
// service's run units are independent deterministic simulations — so
// reordering, interleaving and parking never change results, which is
// what keeps concurrent submission bit-identical to serial submission.
//
// A claim can give way to a much smaller job. Spec.Run calls
// Pool.Preempt at its own cooperative polls (the service's runtimes
// poll every taskrt.CancelPollEvents events). When every worker holds
// a claim and the job a free worker would serve next both beats the
// polling worker's job and has less undispatched demand in total than
// the polling unit's cost, Preempt claims that job's next unit and runs
// it to completion on the same worker while the polling unit stays
// parked, then returns so the parked unit resumes where it stopped. A
// nested unit never nests again, and a large job's units never nest
// inside a small job's unit, so a short request stops waiting out the
// longest running claim without parking anything for long. A poll with
// nothing to preempt is one atomic load.
//
// Workers are CPU-bound and never block between claims while units
// are queued, so a serving process must leave a Go processor (P)
// beyond its workers for its I/O goroutines, which would otherwise
// wait out the runtime's 10 ms forced preemption (cmd/jossd runs
// workers + 1). That is the Go half of serving isolation. The OS half:
// each worker locks its goroutine to an OS thread and, on Linux, lowers
// that thread to nice +10, so a serving thread that wakes (an HTTP
// handler, the network poller, a client on the same host) gets a CPU
// at once instead of queueing behind the simulation. A lowered thread
// cannot be raised again without privilege, so it runs nothing but its
// worker and exits with it; Close retires the workers.
//
// Cancellation is cooperative and unit-granular: Cancel drops a job's
// queued units; a claimed unit returns from Run when Run decides to
// (the service's runtimes poll a cancel flag and abort mid-run) and
// the job finishes once its claimed units have returned. A parked
// unit of a cancelled job unwinds after the unit nested on top of it
// returns.
//
// Overload is handled at admission, not by queueing without bound:
// SetLimits caps the jobs in flight and the queued units across the
// pool, and Admit rejects excess jobs with an error matching
// ErrOverloaded so the serving layer can shed load (HTTP 429) instead
// of accumulating latency.
package dispatch

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrOverloaded is the sentinel matched (via errors.Is) by admission
// rejections. The concrete error is an *OverloadError carrying the
// pool occupancy that triggered the rejection.
var ErrOverloaded = errors.New("dispatch: pool overloaded")

// OverloadError reports an admission rejection against the pool's
// configured Limits. errors.Is(err, ErrOverloaded) is true.
type OverloadError struct {
	Jobs           int // jobs in flight at rejection
	MaxJobs        int // configured bound (0 = unbounded)
	QueuedUnits    int // undispatched units at rejection, job included
	MaxQueuedUnits int // configured bound (0 = unbounded)
}

func (e *OverloadError) Error() string {
	jobs := fmt.Sprintf("%d jobs", e.Jobs)
	if e.MaxJobs > 0 {
		jobs = fmt.Sprintf("%d/%d jobs", e.Jobs, e.MaxJobs)
	}
	units := fmt.Sprintf("%d queued units", e.QueuedUnits)
	if e.MaxQueuedUnits > 0 {
		units = fmt.Sprintf("%d/%d queued units", e.QueuedUnits, e.MaxQueuedUnits)
	}
	return "dispatch: pool overloaded (" + jobs + ", " + units + ")"
}

// Is makes errors.Is(err, ErrOverloaded) match without callers needing
// the concrete type.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// Limits bounds pool occupancy at admission. Zero values mean
// unbounded; the zero Limits preserves the historical accept-everything
// behaviour.
type Limits struct {
	// MaxJobs caps jobs admitted and not yet finished.
	MaxJobs int
	// MaxQueuedUnits caps undispatched units summed over all jobs,
	// counting the candidate job's own units.
	MaxQueuedUnits int
}

// Unit identifies one schedulable unit of a job: one seeded repeat of
// one cell.
type Unit struct {
	Cell   int
	Repeat int
}

// Spec describes a job at admission.
type Spec struct {
	// Cells is the number of cells; Repeats the units per cell. The
	// job's units are the cross product.
	Cells   int
	Repeats int
	// Costs is the per-cell dispatch cost (len Cells) — the unit of
	// fair-share accounting and the largest-first sort key. Any
	// non-negative scale works as long as it is consistent across the
	// jobs sharing a pool; the service uses DAG task counts.
	Costs []int
	// Width bounds the job's in-flight units (its share ceiling): a
	// job never occupies more than Width workers at once.
	Width int
	// Weight scales the job's fair-share deficit: a job accrues
	// attained service at cost/Weight per dispatched unit, so a
	// Weight-2 job receives twice the unit throughput of a Weight-1
	// job under contention. 0 means 1; negative panics.
	Weight float64
	// Deadline, when non-zero, breaks ties among jobs at equal
	// attained service earliest-deadline-first; a job with a deadline
	// beats one without. The unit is caller-defined but must be
	// consistent across the jobs sharing a pool (the service uses
	// milliseconds since session start). Deadlines order work, they
	// do not expire it.
	Deadline int64
	// Run executes one unit on the given worker. It is called from
	// pool worker goroutines, never concurrently for the same worker
	// id, and must not panic. It may call Pool.Preempt(worker) at its
	// cooperative polls; Run is then re-entered on the same worker, on
	// the same goroutine, for the nested unit (at most one deep).
	Run func(worker int, u Unit)
	// OnCellDone, when non-nil, is called once per cell after the last
	// of the cell's repeats completes (from the worker goroutine that
	// ran it; it must not block indefinitely).
	OnCellDone func(cell int)
}

// Progress is a point-in-time snapshot of a job's unit accounting.
type Progress struct {
	Total     int // units at admission (Cells × Repeats)
	Done      int // units executed
	InFlight  int // units currently on a worker
	Dropped   int // units discarded by Cancel before dispatch
	Cancelled bool
	Finished  bool // no unit will run anymore (done + dropped == total)
}

// Job is the handle of an admitted job.
type Job struct {
	pool *Pool
	spec Spec
	seq  uint64

	weight   float64   // spec.Weight defaulted to 1; immutable after Admit
	admitted time.Time // set under pool.mu at admission; immutable after

	// All fields below are guarded by pool.mu.
	queue     []Unit // pending units, largest cell first; head is next
	head      int
	inflight  int // units on workers
	done      int
	dropped   int
	cellDone  []int
	served    float64 // virtual attained service: Σ cost/weight
	remaining int64   // undispatched demand: Σ cell cost over queue[head:]
	cancelled bool
	completed bool

	finished chan struct{} // closed once Finished
}

// Pool is a fixed set of worker goroutines serving admitted jobs.
type Pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	jobs    []*Job // jobs with pending units, admission order
	workers int
	nextSeq uint64
	closing bool // set by Close until the last worker exits
	limits  Limits
	active  int // admitted, not yet finished (excludes zero-unit jobs)
	queued  int // undispatched units across all jobs
	running int // units being executed right now, across all jobs
	// slots[id] is worker id's claim state; busy counts the workers
	// holding a claim of their own (nested units excluded).
	slots []*slot
	busy  int
	// pending is the lock-free hint Preempt polls: true when some
	// worker's own claim should give way right now (see yieldsTo).
	// Written under mu by updatePending, read without it.
	pending atomic.Bool
	// metrics, when non-nil, receives the dispatch-path observations.
	// Guarded by mu; workers capture it per claim.
	metrics *Metrics
	// nice is the nice value the workers' threads run at, 0 when
	// lowering it failed or the OS has no such notion.
	nice atomic.Int64
}

// slot is one worker's claim state. job, cost and nested are guarded
// by Pool.mu; stolen is touched only by the worker's own goroutine.
type slot struct {
	job    *Job          // job of the worker's own claim; nil while idle
	cost   int           // that claim's cell cost
	nested bool          // a nested unit runs with the claim parked
	stolen time.Duration // wall time of nested units inside the claim
}

// NewPool builds a pool with the given number of workers (more can be
// added later with Grow; 0 is valid and useful when the caller sizes
// the pool per admitted job).
func NewPool(workers int) *Pool {
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	p.Grow(workers)
	return p
}

// Grow raises the pool's worker count to at least n. Worker ids are
// dense in [0, Workers()). A Grow concurrent with Close first waits
// for the retired workers to exit, so no worker id is held twice.
func (p *Pool) Grow(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.closing {
		p.cond.Wait()
	}
	for p.workers < n {
		ws := &slot{}
		p.slots = append(p.slots, ws)
		go p.worker(p.workers, ws)
		p.workers++
	}
	p.updatePending()
}

// Workers returns the number of worker goroutines.
func (p *Pool) Workers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.workers
}

// SetLimits installs admission bounds; the zero Limits removes them.
// Already-admitted jobs are unaffected.
func (p *Pool) SetLimits(l Limits) {
	p.mu.Lock()
	p.limits = l
	p.mu.Unlock()
}

// Occupancy reports the jobs in flight and undispatched queued units.
func (p *Pool) Occupancy() (jobs, queuedUnits int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active, p.queued
}

// Load reports the pool's full load triple: jobs in flight,
// undispatched queued units, and units executing right now — nested
// units included, so inflightUnits can exceed Workers. The service
// reports it through /healthz.
func (p *Pool) Load() (jobs, queuedUnits, inflightUnits int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active, p.queued, p.running
}

// Close retires the workers and returns once all have exited, each
// taking its OS thread with it. A worker exits when no job has a unit
// it may claim, so the units already admitted run first. The pool
// stays usable: the next Grow starts fresh workers.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closing = p.workers > 0
	p.cond.Broadcast()
	for p.closing {
		p.cond.Wait()
	}
}

// Admit enters a job into the multi-queue and returns its handle. The
// job's attained-service counter starts at the minimum of the active
// jobs' (fairness from admission onward, not replayed history). A job
// with zero units is returned already finished and is never counted
// against Limits. When admitting the job would exceed the pool's
// Limits, Admit returns an *OverloadError (matching ErrOverloaded)
// and the job is not entered. Malformed specs panic: they are caller
// bugs, not load conditions.
func (p *Pool) Admit(spec Spec) (*Job, error) {
	if spec.Cells < 0 || spec.Repeats < 0 {
		panic(fmt.Sprintf("dispatch: negative Cells (%d) or Repeats (%d)", spec.Cells, spec.Repeats))
	}
	if len(spec.Costs) != spec.Cells {
		panic(fmt.Sprintf("dispatch: %d costs for %d cells", len(spec.Costs), spec.Cells))
	}
	if spec.Weight < 0 {
		panic(fmt.Sprintf("dispatch: negative Weight (%g)", spec.Weight))
	}
	j := &Job{pool: p, spec: spec, weight: spec.Weight, finished: make(chan struct{})}
	if j.weight == 0 {
		j.weight = 1
	}
	total := spec.Cells * spec.Repeats
	if total == 0 {
		j.completed = true
		close(j.finished)
		p.mu.Lock()
		m := p.metrics
		p.mu.Unlock()
		if m != nil {
			m.Admitted.Inc()
		}
		return j, nil
	}
	if spec.Width < 1 {
		panic(fmt.Sprintf("dispatch: Width must be >= 1, got %d", spec.Width))
	}
	if spec.Run == nil {
		panic("dispatch: Spec.Run is nil")
	}

	// Largest cell first, original index as the tie-break; a cell's
	// repeats adjacent and in repeat order.
	cells := make([]int, spec.Cells)
	for i := range cells {
		cells[i] = i
	}
	sort.Slice(cells, func(a, b int) bool {
		ca, cb := spec.Costs[cells[a]], spec.Costs[cells[b]]
		if ca != cb {
			return ca > cb
		}
		return cells[a] < cells[b]
	})
	j.queue = make([]Unit, 0, total)
	for _, c := range cells {
		for r := 0; r < spec.Repeats; r++ {
			j.queue = append(j.queue, Unit{Cell: c, Repeat: r})
		}
		j.remaining += int64(spec.Costs[c]) * int64(spec.Repeats)
	}
	j.cellDone = make([]int, spec.Cells)

	p.mu.Lock()
	if (p.limits.MaxJobs > 0 && p.active >= p.limits.MaxJobs) ||
		(p.limits.MaxQueuedUnits > 0 && p.queued+total > p.limits.MaxQueuedUnits) {
		err := &OverloadError{
			Jobs:           p.active,
			MaxJobs:        p.limits.MaxJobs,
			QueuedUnits:    p.queued + total,
			MaxQueuedUnits: p.limits.MaxQueuedUnits,
		}
		m := p.metrics
		p.mu.Unlock()
		if m != nil {
			m.Rejected.Inc()
		}
		return nil, err
	}
	j.seq = p.nextSeq
	p.nextSeq++
	for i, other := range p.jobs {
		if i == 0 || other.served < j.served {
			j.served = other.served
		}
	}
	p.active++
	p.queued += total
	p.jobs = append(p.jobs, j)
	p.updatePending()
	m := p.metrics
	if m != nil {
		j.admitted = time.Now()
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	if m != nil {
		m.Admitted.Inc()
	}
	return j, nil
}

// beats reports whether job a should be served before job b. Called
// with p.mu held.
func beats(a, b *Job) bool {
	// Least attained service wins. With unit weights and integer
	// costs, served values are exact in float64, so ties compare
	// exactly as they did under integer accounting.
	if a.served != b.served {
		return a.served < b.served
	}
	// At equal attained service, earliest deadline first; a job with
	// a deadline beats one without.
	da, db := a.spec.Deadline, b.spec.Deadline
	if da != db {
		if da == 0 || db == 0 {
			return da != 0
		}
		return da < db
	}
	// Final tie goes to the newest job, so a just-admitted job
	// (normalised to the minimum attained service) gets the very next
	// free worker — the overtake that bounds small-request latency —
	// and then interleaves fairly once its own service accrues.
	return a.seq > b.seq
}

// next returns the job whose unit a free worker would claim next
// under the fair-share policy, or nil when no job has an eligible
// unit. Called with p.mu held.
func (p *Pool) next() *Job {
	var best *Job
	for _, j := range p.jobs {
		if j.head >= len(j.queue) || j.inflight >= j.spec.Width {
			continue
		}
		if best == nil || beats(j, best) {
			best = j
		}
	}
	return best
}

// claim dequeues j's next unit and charges it to j — the one
// claim-accounting path for a worker's own claims and nested ones.
// Called with p.mu held.
func (p *Pool) claim(j *Job) Unit {
	u := j.queue[j.head]
	j.head++
	p.queued--
	cost := j.spec.Costs[u.Cell]
	j.remaining -= int64(cost)
	// A zero-cost cell still consumes a worker; floor the quantum at 1
	// so fair-share accounting always advances.
	j.served += float64(max(cost, 1)) / j.weight
	j.inflight++
	p.running++
	if j.head >= len(j.queue) {
		// Nothing left to dispatch; stop offering the job.
		p.remove(j)
	}
	return u
}

// run executes a claimed unit outside the lock and records its
// metrics. A unit's service time excludes the nested units run inside
// it, so the per-worker service times never sum past wall time.
func (p *Pool) run(id int, ws *slot, m *Metrics, j *Job, u Unit, nested bool) {
	var start time.Time
	if m != nil {
		start = time.Now()
		// Jobs admitted before SetMetrics carry no admission stamp;
		// skip their queue-wait sample rather than observe garbage.
		if !j.admitted.IsZero() {
			m.QueueWait.Observe(start.Sub(j.admitted).Seconds())
		}
		if nested {
			m.Preemptions.Inc()
		} else {
			m.WorkersBusy.Inc()
		}
	}
	j.spec.Run(id, u)
	if m != nil {
		d := time.Since(start)
		if nested {
			ws.stolen += d
		} else {
			d -= ws.stolen
			m.WorkersBusy.Dec()
		}
		m.Claims.Inc()
		m.Service.Observe(d.Seconds())
		m.UnitsDone.Inc()
	}
}

// complete retires a unit whose Run returned. Called with p.mu held;
// it releases the lock while OnCellDone runs and the job's finished
// channel closes.
func (p *Pool) complete(j *Job, u Unit) {
	j.cellDone[u.Cell]++
	if j.cellDone[u.Cell] == j.spec.Repeats && j.spec.OnCellDone != nil {
		// The unit still counts as in flight during OnCellDone, so
		// the job cannot be observed finished — and Wait cannot
		// return — while a cell notification is still being
		// delivered.
		p.mu.Unlock()
		j.spec.OnCellDone(u.Cell)
		p.mu.Lock()
	}
	j.inflight--
	p.running--
	j.done++
	finished := j.inflight == 0 && j.head >= len(j.queue) && !j.completed
	if finished {
		j.completed = true
		p.active--
	}
	p.updatePending()
	// A unit completing frees a slot a width-limited sibling job
	// may have been waiting for.
	p.cond.Broadcast()
	if finished {
		p.mu.Unlock()
		close(j.finished)
		p.mu.Lock()
	}
}

// yieldsTo reports whether the worker's own claim should give way to
// job k's next unit: k beats the claim's job, and k's whole
// undispatched demand is below the claim's cost, so the claim stays
// parked for less than it would have made k wait. Called with p.mu
// held.
func (ws *slot) yieldsTo(k *Job) bool {
	return ws.job != nil && !ws.nested && beats(k, ws.job) && k.remaining < int64(ws.cost)
}

// updatePending recomputes the hint Preempt polls. A worker without a
// claim will serve the next job itself, so nothing preempts unless
// every worker holds one. Called with p.mu held after every change to
// the job set, the queues or the workers' claims.
func (p *Pool) updatePending() {
	want := false
	if k := p.next(); k != nil && p.busy == p.workers {
		for _, ws := range p.slots {
			if ws.yieldsTo(k) {
				want = true
				break
			}
		}
	}
	p.pending.Store(want)
}

// Preempt runs, on the calling worker and to completion, the next unit
// of a much smaller job waiting behind every worker's claim (see the
// package comment for the rule), then returns so the caller's unit
// resumes. Call it only from Spec.Run, with the worker id Run was
// given. When nothing qualifies — the usual case — it costs one atomic
// load and returns.
func (p *Pool) Preempt(worker int) {
	if !p.pending.Load() {
		return
	}
	p.mu.Lock()
	ws := p.slots[worker]
	k := p.next()
	if k == nil || p.busy < p.workers || !ws.yieldsTo(k) {
		p.mu.Unlock()
		return
	}
	u := p.claim(k)
	ws.nested = true
	p.updatePending()
	m := p.metrics
	p.mu.Unlock()

	p.run(worker, ws, m, k, u, true)

	p.mu.Lock()
	ws.nested = false
	p.complete(k, u)
	p.mu.Unlock()
}

// remove drops j from the dispatchable set. Called with p.mu held.
func (p *Pool) remove(j *Job) {
	for i, other := range p.jobs {
		if other == j {
			p.jobs = append(p.jobs[:i], p.jobs[i+1:]...)
			return
		}
	}
}

func (p *Pool) worker(id int, ws *slot) {
	if !p.lowerThread() {
		// Locked to the main thread, which must keep its priority: the
		// locked goroutine cannot start the replacement on it, and
		// exiting locked parks the main thread for good.
		go p.worker(id, ws)
		return
	}
	p.mu.Lock()
	for {
		j := p.next()
		if j == nil {
			if p.closing {
				p.retire()
				p.mu.Unlock()
				return
			}
			p.cond.Wait()
			continue
		}
		u := p.claim(j)
		ws.job, ws.cost, ws.stolen = j, j.spec.Costs[u.Cell], 0
		p.busy++
		p.updatePending()
		m := p.metrics
		p.mu.Unlock()

		p.run(id, ws, m, j, u, false)

		p.mu.Lock()
		ws.job = nil
		p.busy--
		p.complete(j, u)
	}
}

// retire counts an exiting worker out; the last one ends Close.
// Called with p.mu held.
func (p *Pool) retire() {
	p.workers--
	if p.workers == 0 {
		p.slots, p.closing = nil, false
		p.cond.Broadcast()
	}
	p.updatePending()
}

// Cancel drops the job's queued units; claimed units complete (or
// abort, if Run polls a cancel flag of its own). Safe to call
// repeatedly and after completion.
func (j *Job) Cancel() {
	p := j.pool
	p.mu.Lock()
	if j.completed || j.cancelled {
		p.mu.Unlock()
		return
	}
	j.cancelled = true
	j.dropped = len(j.queue) - j.head
	j.head = len(j.queue)
	j.remaining = 0
	p.queued -= j.dropped
	p.remove(j)
	p.updatePending()
	finished := j.inflight == 0
	if finished {
		j.completed = true
		p.active--
	}
	m := p.metrics
	p.mu.Unlock()
	if m != nil && j.dropped > 0 {
		m.UnitsDropped.Add(int64(j.dropped))
	}
	if finished {
		close(j.finished)
	}
}

// Wait blocks until the job is finished (all units done, or cancelled
// and drained).
func (j *Job) Wait() { <-j.finished }

// Finished returns a channel closed when the job is finished.
func (j *Job) Finished() <-chan struct{} { return j.finished }

// Progress snapshots the job's unit accounting.
func (j *Job) Progress() Progress {
	j.pool.mu.Lock()
	defer j.pool.mu.Unlock()
	return Progress{
		Total:     j.spec.Cells * j.spec.Repeats,
		Done:      j.done,
		InFlight:  j.inflight,
		Dropped:   j.dropped,
		Cancelled: j.cancelled,
		Finished:  j.completed,
	}
}

// CellProgress appends the per-cell completed-repeat counts to buf and
// returns it (len = the job's cell count).
func (j *Job) CellProgress(buf []int) []int {
	j.pool.mu.Lock()
	defer j.pool.mu.Unlock()
	return append(buf, j.cellDone...)
}
