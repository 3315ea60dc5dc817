// HTTP front end of the warm-session service: a net/http handler that
// exposes a Session as JSON endpoints, shared by the jossd daemon (TCP
// or unix socket) and by tests. The wire schema is deliberately small
// and additive — unknown request fields are ignored, response fields
// only ever get added — so clients and daemons can evolve
// independently. A retired field is ignored the same way: older
// clients still send "batch", which no longer selects anything
// because every run unit is one ⟨cell, repeat⟩ claim.
//
//	POST /sweep    {benchmarks, schedulers, scale, seed, repeats,
//	                parallel, share_plans, sensor_period_sec,
//	                sensor_off}
//	             → {reports: {bench: {sched: report}}, plan_evals,
//	                units, workers, plans_cached, elapsed_sec}
//	POST /sweep?stream=1
//	             → NDJSON: one {"type":"cell", ...} frame per completed
//	               cell in completion order, then a final
//	               {"type":"done","result":{...}} frame whose result is
//	               exactly the synchronous /sweep response
//	POST /run      {bench, sched, scale, seed, repeats, share_plans, ...}
//	             → {report, plan_evals, plans_cached, elapsed_sec}
//	POST /jobs     same body as /sweep, plus optional {weight,
//	               deadline_ms} dispatch hints
//	             → 202 {job_id, state, units, cells, workers, poll}
//	GET  /jobs     → {jobs: [{job_id, state, units_done, units_total}]}
//	               — every job, live or journal-replayed, in admission
//	               order
//	GET  /jobs/{id}
//	             → {job_id, state, units_*, cells: [per-cell progress],
//	                elapsed_sec, result?} — result appears once done
//	DELETE /jobs/{id}
//	             → cancels a running job (cooperative, unit-granular:
//	               queued units are dropped, in-flight ones finish) or
//	               evicts a finished one, durably when it is journaled;
//	               returns the final status
//	GET  /healthz  → {plans_cached, requests, jobs, queued_units,
//	               inflight_units, draining, schedulers, benchmarks,
//	               uptime_sec, workers, gomaxprocs, version, commit} —
//	               jobs/queued_units/inflight_units are the live
//	               dispatch load an operator or e2ebench polls
//	               (inflight_units counts a unit running nested
//	               while its worker's own unit is parked, so it can
//	               exceed workers by the units nested right now);
//	               uptime/workers/version identify the process
//	               (buildinfo ldflags); gomaxprocs next to workers
//	               shows whether a processor is left free for serving
//	GET  /metrics  → the session's metric registry in Prometheus text
//	               exposition format (joss_dispatch_*, joss_service_*,
//	               joss_http_*, joss_jobstore_* families, and
//	               joss_go_sched_latency_seconds from the Go runtime);
//	               ?format=json returns the structured snapshot
//	               (obs.ParseJSON decodes it)
//	POST /run?trace=1
//	             → the run response plus {trace: <Chrome trace-event
//	               JSON>} (observer-only recording; repeats <= 1 only)
//
// share_plans defaults to true on the wire (a *bool left null): the
// daemon exists to serve warm plans, and a second request for kernels
// the session already trained then performs zero plan searches. Send
// "share_plans": false for sample-every-run paper semantics. Plans are
// trained lazily, inside the runs that first need them; to warm a
// daemon before traffic arrives, POST one /sweep over the grid clients
// will request (same scale and seed) with share_plans left true.
//
// A wire "parallel" above the session's worker count (Parallel) is
// clamped to it, so no request can grow the pool past the workers the
// process was sized for; 0 means the session's count.
//
// Overload semantics: when the session runs with admission bounds and
// a request would exceed them, sweep-admitting endpoints answer
// 429 Too Many Requests with a Retry-After header instead of queueing
// without bound; a draining (shutting-down) session answers 503
// Service Unavailable, also with Retry-After. Both bodies carry the
// usual {"error": ...} JSON.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"joss/internal/buildinfo"
	"joss/internal/dispatch"
	"joss/internal/obs"
	"joss/internal/taskrt"
	"joss/internal/trace"
	"joss/internal/workloads"
)

// WireSweepRequest is the JSON form of a sweep request.
type WireSweepRequest struct {
	// Benchmarks are Figure 8 configuration names (case-insensitive);
	// empty means all 21.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Schedulers are names ParseScheduler accepts; empty means the
	// paper's six.
	Schedulers      []string `json:"schedulers,omitempty"`
	Scale           float64  `json:"scale,omitempty"` // 0 = workloads.DefaultScale
	Seed            *int64   `json:"seed,omitempty"`  // null = 1; 0 is a valid seed
	Repeats         int      `json:"repeats,omitempty"`
	Parallel        int      `json:"parallel,omitempty"`
	SharePlans      *bool    `json:"share_plans,omitempty"` // null = true
	SensorPeriodSec float64  `json:"sensor_period_sec,omitempty"`
	SensorOff       bool     `json:"sensor_off,omitempty"`
	// Weight scales the job's fair share on the dispatcher (0 = 1).
	Weight float64 `json:"weight,omitempty"`
	// DeadlineMS is a relative soft deadline used only to break
	// fair-share ties in the dispatcher (0 = none).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// WireRunRequest is the JSON form of a single-cell run request.
type WireRunRequest struct {
	Bench           string  `json:"bench"`
	Sched           string  `json:"sched"`
	Scale           float64 `json:"scale,omitempty"`
	Seed            *int64  `json:"seed,omitempty"` // null = 1; 0 is a valid seed
	Repeats         int     `json:"repeats,omitempty"`
	SharePlans      *bool   `json:"share_plans,omitempty"`
	SensorPeriodSec float64 `json:"sensor_period_sec,omitempty"`
	SensorOff       bool    `json:"sensor_off,omitempty"`
}

// WireReport is the JSON form of one cell's mean report. Energies are
// the sensor-sampled values with the event-exact fallback (EnergyOf).
type WireReport struct {
	Scheduler    string  `json:"scheduler"`
	MakespanSec  float64 `json:"makespan_sec"`
	CPUJ         float64 `json:"cpu_j"`
	MemJ         float64 `json:"mem_j"`
	TotalJ       float64 `json:"total_j"`
	Samples      int     `json:"samples"`
	Tasks        int     `json:"tasks"`
	Steals       int     `json:"steals"`
	Recruitments int     `json:"recruitments"`
	FreqRequests int     `json:"freq_requests"`
}

// WireSweepResult is the JSON form of a sweep response.
type WireSweepResult struct {
	Reports     map[string]map[string]WireReport `json:"reports"`
	PlanEvals   int                              `json:"plan_evals"`
	Units       int                              `json:"units"`
	UnitsDone   int                              `json:"units_done"`
	Workers     int                              `json:"workers"`
	Cancelled   bool                             `json:"cancelled,omitempty"`
	PlansCached int                              `json:"plans_cached"`
	ElapsedSec  float64                          `json:"elapsed_sec"`
	// PlanStoreError reports a failed plan-store flush. The sweep
	// itself succeeded and the reports are complete — the plans just
	// were not persisted this time (another writer may hold the store
	// lock), so the response is a 200, not an error.
	PlanStoreError string `json:"plan_store_error,omitempty"`
}

// WireRunResult is the JSON form of a run response.
type WireRunResult struct {
	Report      WireReport `json:"report"`
	PlanEvals   int        `json:"plan_evals"`
	PlansCached int        `json:"plans_cached"`
	ElapsedSec  float64    `json:"elapsed_sec"`
	// PlanStoreError mirrors WireSweepResult.PlanStoreError.
	PlanStoreError string `json:"plan_store_error,omitempty"`
	// Trace is the run's Chrome trace-event JSON document, present only
	// on POST /run?trace=1 (load it at chrome://tracing or in Perfetto).
	// Recording is observer-only: the report is bit-identical with or
	// without it.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// WireJobCreated is the 202 response of POST /jobs.
type WireJobCreated struct {
	JobID   string `json:"job_id"`
	State   string `json:"state"`
	Units   int    `json:"units"`
	Cells   int    `json:"cells"`
	Workers int    `json:"workers"`
	// Poll is the status URL path, so clients need not build it.
	Poll string `json:"poll"`
}

// WireCellStatus is one cell's progress in a job status response.
type WireCellStatus struct {
	Bench       string `json:"bench"`
	Sched       string `json:"sched"`
	Repeats     int    `json:"repeats"`
	RepeatsDone int    `json:"repeats_done"`
	Done        bool   `json:"done"`
}

// WireJobStatus is the GET /jobs/{id} response. Result is present only
// once the job is done (or cancelled and drained); polling clients
// loop until it appears.
type WireJobStatus struct {
	JobID         string           `json:"job_id"`
	State         string           `json:"state"`
	UnitsTotal    int              `json:"units_total"`
	UnitsDone     int              `json:"units_done"`
	UnitsInFlight int              `json:"units_in_flight"`
	UnitsDropped  int              `json:"units_dropped,omitempty"`
	Cells         []WireCellStatus `json:"cells"`
	ElapsedSec    float64          `json:"elapsed_sec"`
	// Lifecycle timestamps (RFC 3339, nanosecond precision):
	// admitted_at is always present; started_at appears once the first
	// unit reached a worker, completed_at once the result is
	// available. queue_wait_sec is started_at − admitted_at.
	AdmittedAt   string           `json:"admitted_at,omitempty"`
	StartedAt    string           `json:"started_at,omitempty"`
	CompletedAt  string           `json:"completed_at,omitempty"`
	QueueWaitSec float64          `json:"queue_wait_sec,omitempty"`
	Result       *WireSweepResult `json:"result,omitempty"`
}

// WireJobSummary is one row of the GET /jobs listing.
type WireJobSummary struct {
	JobID      string `json:"job_id"`
	State      string `json:"state"`
	UnitsDone  int    `json:"units_done"`
	UnitsTotal int    `json:"units_total"`
}

// WireStreamFrame is one NDJSON line of a streamed sweep: "cell"
// frames carry one completed cell's mean report in completion order;
// the final "done" frame carries the full result (identical to the
// synchronous /sweep response).
type WireStreamFrame struct {
	Type       string           `json:"type"`
	Bench      string           `json:"bench,omitempty"`
	Sched      string           `json:"sched,omitempty"`
	Report     *WireReport      `json:"report,omitempty"`
	CellsDone  int              `json:"cells_done,omitempty"`
	CellsTotal int              `json:"cells_total,omitempty"`
	Result     *WireSweepResult `json:"result,omitempty"`
}

func wireReport(rep taskrt.Report) WireReport {
	en := EnergyOf(rep)
	return WireReport{
		Scheduler:    rep.Scheduler,
		MakespanSec:  rep.MakespanSec,
		CPUJ:         en.CPUJ,
		MemJ:         en.MemJ,
		TotalJ:       en.TotalJ(),
		Samples:      rep.Samples,
		Tasks:        rep.Stats.TasksExecuted,
		Steals:       rep.Stats.Steals,
		Recruitments: rep.Stats.Recruitments,
		FreqRequests: rep.Stats.FreqRequests,
	}
}

// wireSweepResult converts a service result for the wire.
func (s *Session) wireSweepResult(res SweepResult, elapsedSec float64) WireSweepResult {
	out := WireSweepResult{
		Reports:     make(map[string]map[string]WireReport, len(res.Reports)),
		PlanEvals:   res.PlanEvals,
		Units:       res.Units,
		UnitsDone:   res.UnitsDone,
		Workers:     res.Workers,
		Cancelled:   res.Cancelled,
		PlansCached: s.Plans().Len(),
		ElapsedSec:  elapsedSec,
	}
	if res.PlanStoreErr != nil {
		out.PlanStoreError = res.PlanStoreErr.Error()
	}
	for wl, m := range res.Reports {
		out.Reports[wl] = make(map[string]WireReport, len(m))
		for label, rep := range m {
			out.Reports[wl][label] = wireReport(rep)
		}
	}
	return out
}

func wireJobStatus(st JobStatus) WireJobStatus {
	out := WireJobStatus{
		JobID:         st.ID,
		State:         string(st.State),
		UnitsTotal:    st.UnitsTotal,
		UnitsDone:     st.UnitsDone,
		UnitsInFlight: st.UnitsInFlight,
		UnitsDropped:  st.UnitsDropped,
		Cells:         make([]WireCellStatus, len(st.Cells)),
		ElapsedSec:    st.ElapsedSec,
	}
	if !st.AdmittedAt.IsZero() {
		out.AdmittedAt = st.AdmittedAt.Format(time.RFC3339Nano)
	}
	if !st.StartedAt.IsZero() {
		out.StartedAt = st.StartedAt.Format(time.RFC3339Nano)
		out.QueueWaitSec = st.QueueWaitSec
	}
	if !st.CompletedAt.IsZero() {
		out.CompletedAt = st.CompletedAt.Format(time.RFC3339Nano)
	}
	for i, c := range st.Cells {
		out.Cells[i] = WireCellStatus{
			Bench:       c.Workload,
			Sched:       c.Label,
			Repeats:     c.Repeats,
			RepeatsDone: c.RepeatsDone,
			Done:        c.Done,
		}
	}
	return out
}

// wireStatus snapshots a sweep for GET /jobs/{id}. The done check
// precedes the status snapshot, so a body carrying a result always
// reports the done/cancelled state (a finish racing the other way just
// means one more poll).
func (h *JobHandle) wireStatus(withResult bool) any {
	done := withResult && h.done()
	out := wireJobStatus(h.Status())
	if done {
		wr := h.s.wireSweepResult(h.result, out.ElapsedSec)
		out.Result = &wr
	}
	return out
}

func (h *JobHandle) wireSummary() WireJobSummary {
	st := h.Status()
	return WireJobSummary{JobID: st.ID, State: string(st.State),
		UnitsDone: st.UnitsDone, UnitsTotal: st.UnitsTotal}
}

// Wire-level resource bounds: the daemon may face untrusted clients,
// so one request must not be able to allocate the process to death.
// They bound the wire schema only — the Go Submit API trusts its
// callers and stays unbounded.
const (
	maxWireRepeats  = 10_000
	maxWireParallel = 1024
	maxWireJobs     = 4096    // benchmarks × schedulers after expansion
	maxWireScale    = 100     // paper-sized DAGs are scale 1
	maxWireWeight   = 1000    // fair-share ratio, not a priority space
	maxWireBodySize = 1 << 20 // decoded before validation, so bounded first
)

// wireParallel resolves a validated wire parallel field against the
// session's worker count: 0 takes it, anything above it is clamped to
// it. The pool grows to the widest admitted request and never shrinks,
// so an unclamped request could leave more CPU-bound workers than the
// process has Ps for. The clamp reorders work but never changes a
// report: units are deterministic.
func wireParallel(parallel, workers int) int {
	if parallel == 0 || parallel > workers {
		return workers
	}
	return parallel
}

// Retry-After values for the two refusal modes: overload clears as
// soon as a co-resident job drains a few units; a drain means the
// process is going away and the client should wait for its successor.
const (
	overloadRetryAfterSec = 1
	drainRetryAfterSec    = 5
)

// buildRequest validates a wire sweep request against the session and
// fills defaults, returning an Enqueue-ready request.
func (s *Session) buildRequest(wr WireSweepRequest) (SweepRequest, error) {
	benchmarks, schedulers := wr.Benchmarks, wr.Schedulers
	var wls []workloads.Config
	if len(benchmarks) == 0 {
		wls = workloads.Fig8Configs()
	} else {
		for _, name := range benchmarks {
			wl, avail, ok := FindWorkload(name)
			if !ok {
				return SweepRequest{}, fmt.Errorf("unknown benchmark %q; available: %v", name, avail)
			}
			wls = append(wls, wl)
		}
	}
	if len(schedulers) == 0 {
		schedulers = SchedulerNames
	}
	for _, sn := range schedulers {
		if _, err := s.ParseScheduler(sn); err != nil {
			return SweepRequest{}, err
		}
	}

	req := SweepRequest{
		Scale:           wr.Scale,
		Seed:            1,
		Repeats:         wr.Repeats,
		Parallel:        wr.Parallel,
		SharePlans:      wr.SharePlans == nil || *wr.SharePlans,
		SensorPeriodSec: wr.SensorPeriodSec,
		SensorOff:       wr.SensorOff,
		Weight:          wr.Weight,
		DeadlineMS:      wr.DeadlineMS,
	}
	if req.Scale == 0 {
		req.Scale = workloads.DefaultScale
	}
	if req.Scale <= 0 {
		return SweepRequest{}, fmt.Errorf("scale must be > 0, got %g", req.Scale)
	}
	if req.Scale > maxWireScale {
		return SweepRequest{}, fmt.Errorf("scale %g exceeds the wire limit %d", req.Scale, maxWireScale)
	}
	if wr.Seed != nil {
		req.Seed = *wr.Seed
	}
	if req.Repeats < 0 || req.Parallel < 0 || req.SensorPeriodSec < 0 {
		return SweepRequest{}, fmt.Errorf("repeats, parallel and sensor_period_sec must be >= 0")
	}
	if req.Weight < 0 || req.DeadlineMS < 0 {
		return SweepRequest{}, fmt.Errorf("weight and deadline_ms must be >= 0")
	}
	if req.Weight > maxWireWeight {
		return SweepRequest{}, fmt.Errorf("weight %g exceeds the wire limit %d", req.Weight, maxWireWeight)
	}
	if req.Repeats > maxWireRepeats {
		return SweepRequest{}, fmt.Errorf("repeats %d exceeds the wire limit %d", req.Repeats, maxWireRepeats)
	}
	if req.Parallel > maxWireParallel {
		return SweepRequest{}, fmt.Errorf("parallel %d exceeds the wire limit %d", req.Parallel, maxWireParallel)
	}
	req.Parallel = wireParallel(req.Parallel, s.parallel)
	if nJobs := len(wls) * len(schedulers); nJobs > maxWireJobs {
		return SweepRequest{}, fmt.Errorf("%d benchmarks × %d schedulers = %d cells exceeds the wire limit %d",
			len(wls), len(schedulers), nJobs, maxWireJobs)
	}
	for _, wl := range wls {
		for _, sn := range schedulers {
			sn := sn
			req.Jobs = append(req.Jobs, Job{Workload: wl, Label: sn,
				Make: func() taskrt.Scheduler { return s.NewScheduler(sn) }})
		}
	}
	return req, nil
}

// NewHandler exposes a Session over HTTP. The handler is safe for
// concurrent requests — the session's dispatcher interleaves their run
// units over one worker pool.
func NewHandler(s *Session) http.Handler {
	mux := http.NewServeMux()

	writeJSON := func(w http.ResponseWriter, code int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	}
	writeErr := func(w http.ResponseWriter, code int, err error) {
		writeJSON(w, code, map[string]string{"error": err.Error()})
	}
	// writeAdmitErr maps an Enqueue/Submit refusal to its wire shape:
	// overload and drain are retryable conditions with explicit
	// Retry-After hints, anything else (a failed spec journal append)
	// is a 500.
	writeAdmitErr := func(w http.ResponseWriter, err error) {
		switch {
		case errors.Is(err, dispatch.ErrOverloaded):
			w.Header().Set("Retry-After", strconv.Itoa(overloadRetryAfterSec))
			writeErr(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", strconv.Itoa(drainRetryAfterSec))
			writeErr(w, http.StatusServiceUnavailable, err)
		default:
			writeErr(w, http.StatusInternalServerError, err)
		}
	}
	decodeSweep := func(w http.ResponseWriter, r *http.Request) (SweepRequest, bool) {
		var wr WireSweepRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxWireBodySize)).Decode(&wr); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
			return SweepRequest{}, false
		}
		req, err := s.buildRequest(wr)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return SweepRequest{}, false
		}
		if s.store != nil {
			// The normalised wire form is what the job journal records:
			// compact, self-contained, replayable by a fresh process.
			req.WireSpec, _ = json.Marshal(wr)
		}
		return req, true
	}

	// streamSweep serves POST /sweep?stream=1: cells flush to the
	// client as they complete, and a disconnected client cancels the
	// job so abandoned sweeps stop consuming workers.
	streamSweep := func(w http.ResponseWriter, r *http.Request, req SweepRequest) {
		start := time.Now()
		h, err := s.Enqueue(req)
		if err != nil {
			writeAdmitErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		writeFrame := func(f WireStreamFrame) {
			enc.Encode(f)
			if flusher != nil {
				flusher.Flush()
			}
		}
		cellsDone, cellsTotal := 0, len(req.Jobs)
		for {
			select {
			case c, ok := <-h.Cells():
				if !ok {
					res := h.Wait()
					out := s.wireSweepResult(res, time.Since(start).Seconds())
					writeFrame(WireStreamFrame{Type: "done", CellsDone: cellsDone,
						CellsTotal: cellsTotal, Result: &out})
					return
				}
				cellsDone++
				rep := wireReport(c.Report)
				writeFrame(WireStreamFrame{Type: "cell", Bench: c.Workload, Sched: c.Label,
					Report: &rep, CellsDone: cellsDone, CellsTotal: cellsTotal})
			case <-r.Context().Done():
				h.Cancel()
				h.Wait()
				return
			}
		}
	}

	mux.HandleFunc("/sweep", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
			return
		}
		req, ok := decodeSweep(w, r)
		if !ok {
			return
		}
		if r.URL.Query().Get("stream") == "1" {
			streamSweep(w, r, req)
			return
		}
		start := time.Now()
		res, err := s.Submit(req)
		if err != nil {
			writeAdmitErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, s.wireSweepResult(res, time.Since(start).Seconds()))
	})

	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		req, ok := decodeSweep(w, r)
		if !ok {
			return
		}
		h, err := s.Enqueue(req)
		if err != nil {
			writeAdmitErr(w, err)
			return
		}
		st := h.Status()
		writeJSON(w, http.StatusAccepted, WireJobCreated{
			JobID:   h.ID(),
			State:   string(st.State),
			Units:   st.UnitsTotal,
			Cells:   len(st.Cells),
			Workers: h.Workers(),
			Poll:    "/jobs/" + h.ID(),
		})
	})

	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		recs := s.records()
		jobs := make([]WireJobSummary, len(recs))
		for i, rec := range recs {
			jobs[i] = rec.wireSummary()
		}
		writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		rec, ok := s.Lookup(id)
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
			return
		}
		writeJSON(w, http.StatusOK, rec.wireStatus(true))
	})

	// DELETE cancels a running job and evicts a finished one.
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		rec, ok := s.Lookup(id)
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
			return
		}
		if !s.Remove(id) {
			rec.Cancel()
		}
		writeJSON(w, http.StatusOK, rec.wireStatus(false))
	})

	mux.HandleFunc("/run", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
			return
		}
		var wr WireRunRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxWireBodySize)).Decode(&wr); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
			return
		}
		if wr.Bench == "" || wr.Sched == "" {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bench and sched are required"))
			return
		}
		req, err := s.buildRequest(WireSweepRequest{
			Benchmarks:      []string{wr.Bench},
			Schedulers:      []string{wr.Sched},
			Scale:           wr.Scale,
			Seed:            wr.Seed,
			Repeats:         wr.Repeats,
			SharePlans:      wr.SharePlans,
			SensorPeriodSec: wr.SensorPeriodSec,
			SensorOff:       wr.SensorOff,
		})
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		var tr *trace.Trace
		if r.URL.Query().Get("trace") == "1" {
			// A trace records one unit's timeline; concurrent repeats
			// would race on it, so trace runs are single-repeat only.
			if req.Repeats > 1 {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("trace=1 requires repeats <= 1, got %d", req.Repeats))
				return
			}
			tr = &trace.Trace{}
			req.Trace = tr
		}
		start := time.Now()
		res, err := s.Submit(req)
		if err != nil {
			writeAdmitErr(w, err)
			return
		}
		var rep taskrt.Report
		for _, m := range res.Reports {
			for _, r := range m {
				rep = r
			}
		}
		out := WireRunResult{
			Report:      wireReport(rep),
			PlanEvals:   res.PlanEvals,
			PlansCached: s.Plans().Len(),
			ElapsedSec:  time.Since(start).Seconds(),
		}
		if res.PlanStoreErr != nil {
			out.PlanStoreError = res.PlanStoreErr.Error()
		}
		if tr != nil {
			var buf bytes.Buffer
			if terr := tr.WriteChrome(&buf); terr == nil {
				out.Trace = json.RawMessage(buf.Bytes())
			}
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		var names []string
		for _, c := range workloads.Fig8Configs() {
			names = append(names, c.Name)
		}
		jobs, queuedUnits, inflightUnits := s.Load()
		writeJSON(w, http.StatusOK, map[string]any{
			"plans_cached":   s.Plans().Len(),
			"requests":       s.Requests(),
			"jobs":           jobs,
			"queued_units":   queuedUnits,
			"inflight_units": inflightUnits,
			"draining":       s.Draining(),
			"schedulers":     SchedulerCatalog,
			"benchmarks":     names,
			// Operational identity: process age, pool size and the
			// ldflags-injected build identity.
			"uptime_sec": s.Uptime().Seconds(),
			"workers":    s.Workers(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"version":    buildinfo.Version,
			"commit":     buildinfo.Commit,
		})
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		reg := s.Metrics()
		if reg == nil {
			writeErr(w, http.StatusNotFound, fmt.Errorf("metrics are disabled on this session"))
			return
		}
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			reg.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", obs.PromContentType)
		reg.WritePrometheus(w)
	})

	// The metric middleware wraps the whole mux so every endpoint —
	// including 404s under "other" — is counted and timed.
	return s.metrics.instrumentHTTP(mux)
}
