// Explicit plan pre-training: Session.Train turns the cold-start cost
// model-driven schedulers pay lazily — sampling and configuration
// search inside the first simulation runs — into a deliberate,
// parallel, deduplicated phase. A TrainRequest names a bench×sched
// grid; Train enumerates the distinct sched.PlanKeys the grid implies
// (via ModelSched.PlanKeyAt, with no simulation), claims each
// untrained key through the PlanCache claim API so concurrent trainers
// single-flight, and fans Repeats=1 trainer cells through the
// session's ordinary dispatcher as low-weight jobs. Trainer runs are
// results-discarded: their only output is the cache, which is also why
// single-flighting is safe — a second claimant skips a busy key
// instead of waiting, with no bit-identity exposure. Each trainer run
// stops early once its scheduler reports every kernel planned
// (ModelSched.SetCompletionHook trips the cell's cooperative cancel),
// so training pays sampling+search plus a bounded tail, not a full
// makespan.
//
// A training run is one record of the session's job registry
// (registry.go) under a "t…" id: listed, polled, cancelled and evicted
// on the wire like a sweep, and journaled like one when the wire layer
// supplies its spec. Its rounds are dispatcher jobs without a record of
// their own.
//
// Single-flighting is cell-granular: a cell whose key set intersects
// another in-flight trainer's claims is skipped (its keys counted
// Skipped), never waited on — claims are held across whole rounds, so
// waiting would serialise trainers. Within one Train call, cells with
// overlapping key sets run in successive rounds: the second cell then
// adopts the first round's cached plans instead of re-searching.
//
// Trainer units run under exactly the conditions a sweep's repeat 0
// runs under (same seed, scale, sensor options, scalar path), so the
// plans they publish are byte-identical to what the lazy path's first
// run would have stored — the differential test's contract. That
// includes the lazy path's blind spots: a kernel too sparse to finish
// sampling inside one run trains nowhere, so its key ends Failed here
// and planless there, and the two caches still match byte for byte.
package service

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"joss/internal/dag"
	"joss/internal/sched"
	"joss/internal/taskrt"
	"joss/internal/workloads"
)

// DefaultTrainWeight is the dispatcher fair-share weight trainer
// rounds run at when TrainRequest.Weight is zero: well under the
// default request weight of 1, so pre-training never starves live
// traffic.
const DefaultTrainWeight = 0.25

// TrainRequest names the grid to pre-train. Only model-driven
// schedulers (the JOSS family and STEER) train plans; other names are
// accepted and contribute nothing.
type TrainRequest struct {
	// Benchmarks are Figure 8 configuration names (case-insensitive);
	// empty means all of them.
	Benchmarks []string
	// Schedulers are names ParseScheduler accepts; empty means the
	// paper's six.
	Schedulers []string
	// Scale is the workload scale plans are keyed by (0 =
	// workloads.DefaultScale). Train at the scale you will sweep at:
	// PlanKey.Scale discriminates.
	Scale float64
	// Seed is the trainer runs' seed — match the Seed of the sweeps
	// that will adopt the plans, so the trained plans equal what those
	// sweeps' first repeat would have selected.
	Seed int64
	// Parallel bounds the workers one training round occupies (0 =
	// session default).
	Parallel int
	// Weight is the rounds' dispatcher fair share (0 =
	// DefaultTrainWeight).
	Weight float64
	// SensorPeriodSec and SensorOff mirror SweepRequest's fields.
	SensorPeriodSec float64
	SensorOff       bool
	// Plans overrides the session's resident plan cache (nil = the
	// resident cache), mirroring SweepRequest.Plans.
	Plans *sched.PlanCache
	// wireSpec mirrors SweepRequest.WireSpec: the wire layer sets it on
	// a session with a job store, and the run is journaled.
	wireSpec json.RawMessage
}

// TrainResult is the per-key accounting of one Train call. Every
// distinct PlanKey of the grid lands in exactly one of Trained,
// Cached, Skipped or Failed.
type TrainResult struct {
	// Keys is the number of distinct PlanKeys the grid implies.
	Keys int
	// Trained keys were claimed and trained by this call.
	Trained int
	// Cached keys already had plans when this call first saw them.
	Cached int
	// Skipped keys rode on a cell that hit another trainer's in-flight
	// claim; that trainer (or a later lazy run) trains them.
	Skipped int
	// Failed keys were claimed but their trainer run stored no plan.
	// Mostly this is not an error: a kernel too sparse to accumulate
	// the sampler's minimum observations in one full run never reaches
	// selection — under lazy training it would stay planless through
	// every run, re-sampled each time, exactly as it does here. The
	// trained cache still ends byte-identical to a lazily warmed one;
	// these keys are simply not trainable at this scale. A cancelled
	// round also lands its keys here.
	Failed int
	// Cells is the number of trainer cells the grid implies (cells
	// with at least one model-scheduled kernel); Rounds how many
	// dispatcher jobs the cells were fanned out over.
	Cells  int
	Rounds int
	// EarlyStopped counts trainer runs cut short by the completion
	// hook (every kernel planned before the makespan ended).
	EarlyStopped int
	// PlanEvals totals the §5.2 configuration-search evaluations the
	// trainer runs performed.
	PlanEvals int
	// Cancelled reports the training was cancelled before the grid was
	// exhausted.
	Cancelled bool
	// PlanStoreErr records a failed post-training plan-store flush
	// (training itself succeeded).
	PlanStoreErr error
}

// trainCell is one candidate trainer cell: a sweep Job plus the plan
// keys its run would train.
type trainCell struct {
	job  Job
	keys []sched.PlanKey
}

// TrainHandle is the caller's reference to an admitted training run —
// the training counterpart of JobHandle, registered under ids "t1",
// "t2", … so the wire /jobs surface can address both kinds.
type TrainHandle struct {
	record
	s *Session

	plans *sched.PlanCache
	cells []trainCell
	keys  int

	weight   float64
	scale    float64
	seed     int64
	parallel int
	sensorP  float64
	sensorOf bool

	cancelled atomic.Bool

	// mu guards cur (the in-flight round's job, for cancel
	// propagation) and progress (the result-so-far snapshot Status
	// reads between rounds).
	mu       sync.Mutex
	cur      *JobHandle
	progress TrainResult

	start  time.Time
	end    time.Time // valid once doneCh is closed
	result TrainResult
	err    error
}

// Train pre-trains the grid synchronously: EnqueueTrain + Wait. The
// error is non-nil when the request does not validate, admission
// refuses a round (overload, drain), or a round's admission failed
// mid-way; the TrainResult is meaningful in the mid-way case (keys
// already trained stay trained).
func (s *Session) Train(req TrainRequest) (TrainResult, error) {
	h, err := s.EnqueueTrain(req)
	if err != nil {
		return TrainResult{}, err
	}
	return h.Wait()
}

// EnqueueTrain validates a training request, registers a TrainHandle
// (journaling its wire spec on a session with a job store) and starts
// the round driver, returning immediately. Unlike Enqueue it returns
// errors (not panics) for bad shapes — the wire layer calls it
// directly.
func (s *Session) EnqueueTrain(req TrainRequest) (*TrainHandle, error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	scale := req.Scale
	if scale == 0 {
		scale = workloads.DefaultScale
	}
	if scale <= 0 {
		return nil, fmt.Errorf("service: train scale must be > 0, got %g", req.Scale)
	}
	if req.Parallel < 0 || req.Weight < 0 || req.SensorPeriodSec < 0 {
		return nil, fmt.Errorf("service: train parallel, weight and sensor_period_sec must be >= 0")
	}
	weight := req.Weight
	if weight == 0 {
		weight = DefaultTrainWeight
	}
	benchNames := req.Benchmarks
	var wls []workloads.Config
	if len(benchNames) == 0 {
		wls = workloads.Fig8Configs()
	} else {
		for _, name := range benchNames {
			wl, avail, ok := FindWorkload(name)
			if !ok {
				return nil, fmt.Errorf("unknown benchmark %q; available: %v", name, avail)
			}
			wls = append(wls, wl)
		}
	}
	schedNames := req.Schedulers
	if len(schedNames) == 0 {
		schedNames = SchedulerNames
	}
	// One probe instance per scheduler name: it validates the name and,
	// for model schedulers, builds the cells' plan keys (PlanKeyAt is a
	// pure function of the options — no simulation, no cache).
	probes := make(map[string]*sched.ModelSched, len(schedNames))
	for _, sn := range schedNames {
		sc, err := s.ParseScheduler(sn)
		if err != nil {
			return nil, err
		}
		if ms, ok := sc.(*sched.ModelSched); ok {
			probes[sn] = ms
		}
	}

	plans := req.Plans
	if plans == nil {
		plans = s.plans
	}
	h := &TrainHandle{
		s:        s,
		plans:    plans,
		weight:   weight,
		scale:    scale,
		seed:     req.Seed,
		parallel: req.Parallel,
		sensorP:  req.SensorPeriodSec,
		sensorOf: req.SensorOff,
		record:   record{doneCh: make(chan struct{})},
		start:    time.Now(),
	}
	distinct := make(map[sched.PlanKey]struct{})
	for _, wl := range wls {
		facts := s.cellFacts(wl, scale)
		for _, sn := range schedNames {
			ms, ok := probes[sn]
			if !ok {
				continue // not model-driven: trains nothing
			}
			keys := make([]sched.PlanKey, 0, len(facts.kernels))
			for _, ki := range facts.kernels {
				kn := dag.Kernel{Name: ki.name, Demand: ki.demand}
				keys = append(keys, ms.PlanKeyAt(&kn, scale))
			}
			for _, k := range keys {
				distinct[k] = struct{}{}
			}
			sn := sn
			h.cells = append(h.cells, trainCell{
				job: Job{Workload: wl, Label: sn,
					Make: func() taskrt.Scheduler { return s.NewScheduler(sn) }},
				keys: keys,
			})
		}
	}
	h.keys = len(distinct)
	h.progress = TrainResult{Keys: h.keys, Cells: len(h.cells)}

	s.register(h, "t")
	if err := s.journalSpec(&h.record, req.wireSpec); err != nil {
		s.unregister(h.id)
		return nil, err
	}
	go s.runTrain(h)
	return h, nil
}

// runTrain is the round driver: it greedily packs cells with pairwise
// disjoint untrained key sets into a round, claims those keys, runs
// the round as one low-weight trainer job, then releases the claims
// (Complete for keys whose plan landed, Abandon otherwise) and moves
// deferred cells to the next round — by which time their overlapping
// keys are cached and adopt instead of re-searching.
func (s *Session) runTrain(h *TrainHandle) {
	res := TrainResult{Keys: h.keys, Cells: len(h.cells)}
	seen := make(map[sched.PlanKey]bool, h.keys)
	pending := h.cells
	for len(pending) > 0 {
		if h.cancelled.Load() {
			res.Cancelled = true
			break
		}
		var round []Job
		var roundAcquired [][]sched.PlanKey
		claimed := make(map[sched.PlanKey]bool)
		var deferred []trainCell
		for _, c := range pending {
			overlap := false
			for _, k := range c.keys {
				if claimed[k] {
					overlap = true
					break
				}
			}
			if overlap {
				deferred = append(deferred, c)
				continue
			}
			var acquired []sched.PlanKey
			busy := false
			for _, k := range c.keys {
				if seen[k] {
					continue // resolved earlier in this call
				}
				if _, st := h.plans.Claim(k); st == sched.ClaimCached {
					seen[k] = true
					res.Cached++
				} else if st == sched.ClaimBusy {
					busy = true
					break
				} else {
					acquired = append(acquired, k)
				}
			}
			if busy {
				// Another trainer owns at least one of the cell's keys.
				// Skip the whole cell — never wait on a claim held
				// across a round — releasing what was just taken; the
				// unresolved keys are that trainer's (or a later lazy
				// run's) to finish.
				for _, k := range acquired {
					h.plans.Abandon(k)
				}
				for _, k := range c.keys {
					if !seen[k] {
						seen[k] = true
						res.Skipped++
					}
				}
				continue
			}
			if len(acquired) == 0 {
				continue // fully cached cell: nothing to train
			}
			round = append(round, c.job)
			roundAcquired = append(roundAcquired, acquired)
			for _, k := range acquired {
				claimed[k] = true
			}
		}
		if len(round) == 0 {
			// Nothing trainable was selected; deferral requires an
			// overlap with a selected cell, so deferred must be empty
			// too and this is the natural end of the grid.
			break
		}
		jh, err := s.Enqueue(SweepRequest{
			Jobs:            round,
			Scale:           h.scale,
			Seed:            h.seed,
			Repeats:         1,
			Parallel:        h.parallel,
			SharePlans:      true,
			SensorPeriodSec: h.sensorP,
			SensorOff:       h.sensorOf,
			Plans:           h.plans,
			Weight:          h.weight,
			trainer:         true,
		})
		if err != nil {
			for _, ks := range roundAcquired {
				for _, k := range ks {
					h.plans.Abandon(k)
				}
			}
			h.err = err
			break
		}
		h.mu.Lock()
		h.cur = jh
		if h.cancelled.Load() {
			jh.Cancel()
		}
		h.mu.Unlock()
		rres := jh.Wait()
		res.Rounds++
		res.PlanEvals += rres.PlanEvals
		res.EarlyStopped += int(jh.earlyStopped.Load())
		for _, ks := range roundAcquired {
			for _, k := range ks {
				seen[k] = true
				if cp, ok := h.plans.Lookup(k); ok {
					// The run's own in-run Store already published the
					// plan; Complete hands the claim back without
					// double-counting the publication.
					h.plans.Complete(k, cp)
					res.Trained++
				} else {
					h.plans.Abandon(k)
					res.Failed++
				}
			}
		}
		h.mu.Lock()
		h.cur = nil
		h.progress = res
		h.mu.Unlock()
		if rres.Cancelled {
			res.Cancelled = true
			break
		}
		pending = deferred
	}
	if h.cancelled.Load() {
		res.Cancelled = true
	}
	// Post-training publication: flush the resident store so sibling
	// processes (daemons merging the same plan store) see the fresh
	// plans now, not at the next per-request cadence point.
	if res.Trained > 0 && h.plans == s.plans {
		res.PlanStoreErr = s.flushIfStale()
	}
	h.mu.Lock()
	h.progress = res
	h.mu.Unlock()
	h.result = res
	h.end = time.Now()
	if h.journaled {
		s.journalResult(h.id, s.wireTrainResult(res, h.end.Sub(h.start).Seconds(), h.err))
	}
	close(h.doneCh)
}

// Wait blocks until training finishes and returns the result. The
// error is non-nil when a round's admission failed (the result still
// accounts for rounds that ran).
func (h *TrainHandle) Wait() (TrainResult, error) {
	<-h.doneCh
	return h.result, h.err
}

// Cancel stops training: the in-flight round is cancelled
// cooperatively (trainer units unwind within taskrt.CancelPollEvents
// events) and no further round starts. Safe to call repeatedly and
// after completion.
func (h *TrainHandle) Cancel() {
	h.cancelled.Store(true)
	h.mu.Lock()
	if h.cur != nil {
		h.cur.Cancel()
	}
	h.mu.Unlock()
}

// TrainState is the handle's lifecycle phase, reusing JobState's wire
// vocabulary plus "failed" for a round whose admission errored.
func (h *TrainHandle) TrainState() string {
	switch {
	case h.done():
		return trainDoneState(h.err != nil, h.result.Cancelled)
	case h.cancelled.Load():
		return string(JobCancelled)
	default:
		return string(JobRunning)
	}
}

// trainDoneState is a finished training run's state, live or replayed.
func trainDoneState(failed, cancelled bool) string {
	switch {
	case failed:
		return "failed"
	case cancelled:
		return string(JobCancelled)
	default:
		return string(JobDone)
	}
}

// Progress snapshots the result-so-far (complete once done).
func (h *TrainHandle) Progress() TrainResult {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.progress
}

// Elapsed returns the handle's wall-clock age (final once done).
func (h *TrainHandle) Elapsed() time.Duration {
	if h.done() {
		return h.end.Sub(h.start)
	}
	return time.Since(h.start)
}
