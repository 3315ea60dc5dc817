// Async job lifecycle of the warm session: Enqueue admits a sweep
// request as a job on the fair-share dispatcher and returns a
// JobHandle immediately; the handle serves Status polling (per-cell
// progress), a per-cell completion stream (Cells — what the HTTP
// layer turns into NDJSON frames), cooperative unit-granular Cancel,
// and Wait for the assembled SweepResult. Each handle is a record of
// the session's one job registry (registry.go) under a "j…" id, so the
// wire API polls, cancels and evicts it like every other job kind,
// with finished jobs retained (bounded by Config.RetainJobs) so
// pollers can fetch results after completion.
package service

import (
	"fmt"
	"sync/atomic"
	"time"

	"joss/internal/dispatch"
	"joss/internal/sched"
	"joss/internal/taskrt"
)

// JobState is a job's lifecycle phase.
type JobState string

const (
	// JobQueued: admitted, no unit has started (all workers busy with
	// co-resident jobs).
	JobQueued JobState = "queued"
	// JobRunning: at least one unit started, not yet finished.
	JobRunning JobState = "running"
	// JobCancelled: Cancel was called; queued units are dropped. The
	// state is visible while in-flight units drain and remains after.
	JobCancelled JobState = "cancelled"
	// JobDone: all units completed and the result is available.
	JobDone JobState = "done"
	// JobInterrupted: replayed from the job journal with a spec but no
	// result — the previous process died while the job was admitted or
	// running. Only replayed jobs carry this state.
	JobInterrupted JobState = "interrupted"
)

// CellResult is one completed cell of an in-flight job: the mean
// report over the cell's repeats, delivered in completion order.
type CellResult struct {
	// Cell is the index into the request's Jobs.
	Cell     int
	Workload string
	Label    string
	Report   taskrt.Report
}

// CellStatus is one cell's progress in a Status snapshot.
type CellStatus struct {
	Workload    string
	Label       string
	Repeats     int
	RepeatsDone int
	Done        bool
}

// JobStatus is a point-in-time snapshot of a job.
type JobStatus struct {
	ID    string
	State JobState
	// UnitsTotal counts the admitted ⟨cell, repeat⟩ units; Done ran to
	// completion, InFlight are on workers now, Dropped were discarded
	// by a cancellation.
	UnitsTotal    int
	UnitsDone     int
	UnitsInFlight int
	UnitsDropped  int
	Cells         []CellStatus
	ElapsedSec    float64
	// Lifecycle timestamps: AdmittedAt is when Enqueue accepted the
	// job; StartedAt when its first unit reached a worker (zero while
	// queued); CompletedAt when the result became available (zero
	// while running). QueueWaitSec is StartedAt − AdmittedAt once the
	// job has started.
	AdmittedAt   time.Time
	StartedAt    time.Time
	CompletedAt  time.Time
	QueueWaitSec float64
}

// JobHandle is the caller's reference to an admitted request.
type JobHandle struct {
	record
	s *Session

	req         SweepRequest
	plans       *sched.PlanCache
	plansBefore int
	width       int

	d *dispatch.Job

	// unitReports is indexed cell*Repeats+repeat; each element is
	// written by exactly one run unit. cellMeans[i]/cellReady[i] are
	// written by the dispatcher's per-cell completion callback before
	// the cell is announced on cells; finalize reads them after the
	// dispatch job finishes (both edges synchronise through the
	// dispatcher's mutex and the finished channel).
	unitReports []taskrt.Report
	cellMeans   []taskrt.Report
	cellReady   []bool
	evals       atomic.Int64

	// cancel is the cooperative abort flag every runtime executing
	// this job's units polls (taskrt.Options.Cancel): Cancel sets it,
	// bounding in-flight units to CancelPollEvents further simulated
	// events instead of a full cell. cellAborted marks cells whose
	// units were cut short — they are excluded from the result.
	cancel      atomic.Bool
	cellAborted []atomic.Bool
	aborted     atomic.Int64

	// trainCancel is allocated only for trainer jobs
	// (SweepRequest.trainer): one cooperative abort flag per cell, so
	// each trainer cell stops on its own completion hook without
	// cutting sibling cells short. earlyStopped counts the cells whose
	// hook fired (they skipped their remaining makespan).
	trainCancel  []atomic.Bool
	earlyStopped atomic.Int64

	// firstDispatchNS is the UnixNano stamp of the first unit reaching
	// a worker (0 while queued; CAS-set once). cancelNS stamps the
	// first Cancel call so finalize can observe cancel→drained latency.
	firstDispatchNS atomic.Int64
	cancelNS        atomic.Int64

	cells chan CellResult

	start  time.Time
	end    time.Time // valid once doneCh is closed
	result SweepResult
}

// Enqueue validates and admits a sweep request as a job, returning its
// handle immediately. Validation matches Submit: zero Repeats/Parallel
// take defaults, negative ones (and negative Weight/DeadlineMS) panic
// (the trusted Go-API contract; the wire layer rejects them with a 400
// before reaching here). Admission can fail: a draining session
// returns ErrDraining, a session at its configured admission bounds
// returns an error matching dispatch.ErrOverloaded, and a session
// with a job store propagates a failed spec journal write. On error
// no job is registered.
func (s *Session) Enqueue(req SweepRequest) (*JobHandle, error) {
	if req.Repeats == 0 {
		req.Repeats = 1
	}
	if req.Repeats < 0 {
		panic(fmt.Sprintf("service: SweepRequest.Repeats must be >= 1, got %d", req.Repeats))
	}
	if req.Parallel == 0 {
		req.Parallel = s.parallel
	}
	if req.Parallel < 0 {
		panic(fmt.Sprintf("service: SweepRequest.Parallel must be >= 1, got %d", req.Parallel))
	}
	if req.Weight < 0 {
		panic(fmt.Sprintf("service: SweepRequest.Weight must be >= 0, got %g", req.Weight))
	}
	if req.DeadlineMS < 0 {
		panic(fmt.Sprintf("service: SweepRequest.DeadlineMS must be >= 0, got %d", req.DeadlineMS))
	}
	if req.Trace != nil && (len(req.Jobs) > 1 || req.Repeats > 1) {
		panic(fmt.Sprintf("service: SweepRequest.Trace requires a single-unit request, got %d cells × %d repeats",
			len(req.Jobs), req.Repeats))
	}
	if s.draining.Load() {
		return nil, ErrDraining
	}
	plans := req.Plans
	if plans == nil {
		plans = s.plans
	}

	nCells := len(req.Jobs)
	nUnits := nCells * req.Repeats
	h := &JobHandle{
		s:           s,
		req:         req,
		plans:       plans,
		plansBefore: plans.Len(),
		width:       min(req.Parallel, nUnits),
		unitReports: make([]taskrt.Report, nUnits),
		cellMeans:   make([]taskrt.Report, nCells),
		cellReady:   make([]bool, nCells),
		cellAborted: make([]atomic.Bool, nCells),
		cells:       make(chan CellResult, nCells),
		start:       time.Now(),
		record:      record{doneCh: make(chan struct{})},
	}
	if req.trainer {
		h.trainCancel = make([]atomic.Bool, nCells)
	}

	// A relative deadline becomes absolute at admission, in
	// milliseconds since the session epoch — the consistent unit the
	// dispatcher's EDF tie-break requires.
	var deadline int64
	if req.DeadlineMS > 0 {
		deadline = time.Since(s.epoch).Milliseconds() + req.DeadlineMS
	}

	s.ensureWorkers(h.width)
	d, err := s.pool.Admit(dispatch.Spec{
		Cells:    nCells,
		Repeats:  req.Repeats,
		Costs:    s.cellCosts(req.Jobs, req.Scale, make([]int, 0, nCells)),
		Width:    h.width,
		Weight:   req.Weight,
		Deadline: deadline,
		Run: func(wid int, u dispatch.Unit) {
			t0 := h.markDispatched()
			rep, evals, aborted := s.runUnit(s.workerAt(wid), h, u.Cell, u.Repeat)
			h.evals.Add(int64(evals))
			if m := s.metrics; m != nil && evals > 0 {
				m.planEvals.Add(int64(evals))
				m.planSearch.Observe(time.Since(t0).Seconds())
			}
			if aborted {
				h.cellAborted[u.Cell].Store(true)
				h.aborted.Add(1)
				return
			}
			h.unitReports[u.Cell*req.Repeats+u.Repeat] = rep
		},
		OnCellDone: func(cell int) {
			if h.cellAborted[cell].Load() {
				// One of the cell's repeats was cut short by Cancel;
				// a mean over partial repeats would be wrong, so the
				// cell is neither announced nor reported.
				return
			}
			// The cell's last repeat just completed on this worker; the
			// buffered send (capacity = cell count) cannot block.
			h.cellMeans[cell] = taskrt.MeanReport(
				h.unitReports[cell*req.Repeats : (cell+1)*req.Repeats])
			h.cellReady[cell] = true
			h.cells <- CellResult{
				Cell:     cell,
				Workload: req.Jobs[cell].Workload.Name,
				Label:    req.Jobs[cell].Label,
				Report:   h.cellMeans[cell],
			}
		},
	})
	if err != nil {
		return nil, err
	}
	h.d = d
	// Registration follows admission, so a listed job always has its
	// dispatch job. Trainer rounds (SweepRequest.trainer) get no
	// record: the training run's "t…" record owns them.
	if !req.trainer {
		s.register(h, "j")
	}

	// Journal the spec before finalize can possibly journal the
	// result (finalize starts below), so replay never sees a result
	// without its spec.
	if jerr := s.journalSpec(&h.record, req.WireSpec); jerr != nil {
		d.Cancel()
		d.Wait()
		s.unregister(h.id)
		return nil, jerr
	}
	go s.finalize(h)
	return h, nil
}

// markDispatched stamps the job's first-unit-dispatch time (idempotent,
// CAS from zero) and returns the current time, which the unit hooks
// reuse as their claim start — one clock read serves both.
func (h *JobHandle) markDispatched() time.Time {
	now := time.Now()
	if h.firstDispatchNS.Load() == 0 {
		h.firstDispatchNS.CompareAndSwap(0, now.UnixNano())
	}
	return now
}

// finalize waits for the dispatch job to drain, assembles the result,
// runs the plan-store flush cadence and publishes completion.
func (s *Session) finalize(h *JobHandle) {
	h.d.Wait()
	close(h.cells)

	p := h.d.Progress()
	res := SweepResult{
		Reports:     make(map[string]map[string]taskrt.Report),
		PlanEvals:   int(h.evals.Load()),
		Units:       p.Total,
		UnitsDone:   p.Done,
		Workers:     h.width,
		Cancelled:   p.Cancelled,
		Interrupted: int(h.aborted.Load()),
	}
	for i, j := range h.req.Jobs {
		if !h.cellReady[i] {
			continue
		}
		if res.Reports[j.Workload.Name] == nil {
			res.Reports[j.Workload.Name] = make(map[string]taskrt.Report)
		}
		res.Reports[j.Workload.Name][j.Label] = h.cellMeans[i]
	}

	// The per-unit scratch is dead once the result is assembled; drop
	// it so a retained finished job holds its cell means, not every
	// repeat's report (a 500-repeat job would otherwise pin 500
	// reports until registry eviction).
	h.unitReports, h.cellMeans, h.cellReady = nil, nil, nil

	s.requests.Add(1)
	// Flush when the cache holds plans the store hasn't seen since the
	// last flush (flushedLen) — regardless of which co-resident job
	// trained them — and never when nothing changed: a warm steady
	// state must not rewrite the store per request, serialising the
	// fleet on its lock. Jobs running on a caller-supplied cache fall
	// back to their own admission-time snapshot. The flush itself
	// happens on this goroutine, off every dispatch path:
	// SaveFileMerged may wait up to 10 s on a contended lock, which
	// must not stall co-resident jobs.
	flush := false
	if s.storePath != "" {
		s.saveMu.Lock()
		s.sinceSave++
		stale := h.plans.Len() != h.plansBefore
		if h.plans == s.plans {
			stale = s.plans.Len() != s.flushedLen
		}
		if s.sinceSave >= s.saveEvery && stale {
			flush = true
			s.sinceSave = 0
		}
		s.saveMu.Unlock()
	}
	if flush {
		res.PlanStoreErr = h.plans.SaveFileMerged(s.storePath, s.oracle.Spec)
		if res.PlanStoreErr == nil && h.plans == s.plans {
			s.saveMu.Lock()
			// SaveFileMerged may also have adopted disk plans, so the
			// post-save length, not the pre-save one, is what the store
			// now holds.
			s.flushedLen = s.plans.Len()
			s.saveMu.Unlock()
		}
	}

	h.end = time.Now()
	h.result = res
	if m := s.metrics; m != nil {
		if res.Cancelled {
			m.jobsCancelled.Inc()
		} else {
			m.jobsCompleted.Inc()
		}
		if fd := h.firstDispatchNS.Load(); fd > 0 {
			m.jobQueueWait.Observe(float64(fd-h.start.UnixNano()) / 1e9)
			m.jobService.Observe(float64(h.end.UnixNano()-fd) / 1e9)
		}
		if ca := h.cancelNS.Load(); ca > 0 {
			m.cancelLatency.Observe(float64(h.end.UnixNano()-ca) / 1e9)
		}
	}
	if h.journaled {
		s.journalResult(h.id, s.wireSweepResult(res, h.end.Sub(h.start).Seconds()))
	}
	close(h.doneCh)
}

// Workers returns the job's worker-share ceiling (SweepResult.Workers).
func (h *JobHandle) Workers() int { return h.width }

// Wait blocks until the job completes (or finishes draining after a
// cancellation) and returns its result.
func (h *JobHandle) Wait() SweepResult {
	<-h.doneCh
	return h.result
}

// Cells returns the job's per-cell completion stream: each cell's mean
// report is delivered exactly once, in completion order, and the
// channel closes when the job finishes (after a cancellation, without
// the cells that never completed). The channel is buffered to the cell
// count, so an unconsumed stream never blocks workers.
func (h *JobHandle) Cells() <-chan CellResult { return h.cells }

// Cancel drops the job's queued units and flips the cooperative abort
// flag the job's running simulations poll, so in-flight units unwind
// within taskrt.CancelPollEvents simulated events instead of running
// their cell to completion. The job then finishes with a partial
// result. Safe to call repeatedly and after completion.
func (h *JobHandle) Cancel() {
	if h.cancelNS.Load() == 0 {
		h.cancelNS.CompareAndSwap(0, time.Now().UnixNano())
	}
	h.cancel.Store(true)
	// Trainer units poll per-cell flags instead of the job-wide one;
	// flip them all so a cancelled training round unwinds just as fast.
	for i := range h.trainCancel {
		h.trainCancel[i].Store(true)
	}
	h.d.Cancel()
}

// Status snapshots the job's progress. State and unit counts come
// from one dispatch snapshot, so they never contradict each other.
func (h *JobHandle) Status() JobStatus {
	st := JobStatus{ID: h.id}
	done := h.done()
	// The snapshot is taken after the doneness decision: a done job's
	// counts are final, and a racing finish at worst shows complete
	// counts under a still-"running" state — never a result without
	// the done state or progress under "queued".
	p := h.d.Progress()
	if done {
		st.State = JobDone
		if h.result.Cancelled {
			st.State = JobCancelled
		}
		st.ElapsedSec = h.end.Sub(h.start).Seconds()
	} else {
		switch {
		case p.Cancelled:
			st.State = JobCancelled
		case p.Done == 0 && p.InFlight == 0:
			st.State = JobQueued
		default:
			st.State = JobRunning
		}
		st.ElapsedSec = time.Since(h.start).Seconds()
	}
	st.UnitsTotal = p.Total
	st.UnitsDone = p.Done
	st.UnitsInFlight = p.InFlight
	st.UnitsDropped = p.Dropped
	st.AdmittedAt = h.start
	if fd := h.firstDispatchNS.Load(); fd > 0 {
		st.StartedAt = time.Unix(0, fd)
		st.QueueWaitSec = float64(fd-h.start.UnixNano()) / 1e9
	}
	if done {
		st.CompletedAt = h.end
	}
	cellDone := h.d.CellProgress(make([]int, 0, len(h.req.Jobs)))
	st.Cells = make([]CellStatus, len(h.req.Jobs))
	for i, j := range h.req.Jobs {
		done := 0
		if i < len(cellDone) {
			done = cellDone[i]
		}
		st.Cells[i] = CellStatus{
			Workload:    j.Workload.Name,
			Label:       j.Label,
			Repeats:     h.req.Repeats,
			RepeatsDone: done,
			Done:        done == h.req.Repeats,
		}
	}
	return st
}
