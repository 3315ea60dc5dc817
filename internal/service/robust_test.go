package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"joss/internal/dispatch"
	"joss/internal/jobstore"
	"joss/internal/taskrt"
)

// stormReq builds a distinct-seed single-cell request; SharePlans off
// keeps every run bit-reproducible regardless of admission history.
func stormReq(s *Session, seed int64) SweepRequest {
	return SweepRequest{
		Jobs:     jobsFor(s, []string{"SLU"}, []string{"GRWS"}),
		Scale:    0.02,
		Seed:     seed,
		Parallel: 1,
	}
}

// TestSessionOverloadStormByteIdentical is the tentpole's overload bar
// at the Session layer: a bounded session under an admission storm
// rejects excess requests with dispatch.ErrOverloaded, and every
// request that IS admitted produces reports byte-identical to the same
// request run serially on an unbounded session — load shedding is
// invisible to accepted work.
func TestSessionOverloadStormByteIdentical(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxJobs = 1
	bounded, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bounded.Close()

	// A long job fills the single admission slot...
	long := mustEnqueue(t, bounded, SweepRequest{
		Jobs:     jobsFor(bounded, []string{"HT_Small"}, []string{"GRWS"}),
		Scale:    0.02,
		Repeats:  6,
		Parallel: 1,
	})
	// ...so an immediate Submit must be refused with the typed error.
	if _, err := bounded.Submit(stormReq(bounded, 1)); !errors.Is(err, dispatch.ErrOverloaded) {
		t.Fatalf("Submit on a full session: err = %v, want dispatch.ErrOverloaded", err)
	} else {
		var oe *dispatch.OverloadError
		if !errors.As(err, &oe) || oe.Jobs != 1 || oe.MaxJobs != 1 {
			t.Fatalf("overload error detail = %+v, want Jobs 1/1", oe)
		}
	}

	// The storm: concurrent submitters retry on rejection until
	// admitted. Their first attempts land while the long job holds the
	// slot, so rejections are guaranteed, and MaxJobs serialises the
	// admitted runs one at a time.
	const stormN = 4
	var (
		rejects atomic.Int64
		results [stormN]SweepResult
		wg      sync.WaitGroup
	)
	for i := 0; i < stormN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				res, err := bounded.Submit(stormReq(bounded, int64(i)))
				if err == nil {
					results[i] = res
					return
				}
				if !errors.Is(err, dispatch.ErrOverloaded) {
					t.Errorf("storm submit %d: unexpected error %v", i, err)
					return
				}
				rejects.Add(1)
				time.Sleep(2 * time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	long.Wait()
	if rejects.Load() == 0 {
		t.Error("storm saw no overload rejections")
	}

	// Serial reference on a fresh, unbounded session.
	ref := newTestSession(t)
	for i := 0; i < stormN; i++ {
		want := mustSubmit(t, ref, stormReq(ref, int64(i)))
		if !reflect.DeepEqual(results[i].Reports, want.Reports) {
			t.Errorf("storm request %d: admitted-under-load result differs from serial:\nstorm: %+v\nserial: %+v",
				i, results[i].Reports, want.Reports)
		}
	}
}

// TestSessionProbeStormByteIdentical is a contention differential:
// while a multi-cell sweep drains, a storm of 1-unit probes keeps the
// dispatcher contended, so the sweep's units interleave with probe
// units across workers and rebuild their cells' graphs mid-flight. The
// merged sweep report must stay byte-identical to an uncontended run,
// and the probes must keep overtaking (each returns the same report as
// on a quiet session). With both workers on sweep units, a probe runs
// nested while a sweep unit is parked, so the differential covers the
// preemption path too: the test insists it was taken at least once.
func TestSessionProbeStormByteIdentical(t *testing.T) {
	sweepReq := func(s *Session) SweepRequest {
		return SweepRequest{
			Jobs:     jobsFor(s, []string{"HT_Small", "HT_Big", "MM_512_dop16", "ST_2048_dop16"}, []string{"GRWS", "JOSS"}),
			Scale:    0.02,
			Seed:     1,
			Repeats:  3,
			Parallel: 2,
		}
	}
	probeReq := func(s *Session) SweepRequest {
		return SweepRequest{
			Jobs:     jobsFor(s, []string{"SLU"}, []string{"GRWS"}),
			Scale:    0.02,
			Seed:     1,
			Parallel: 1,
		}
	}

	quiet := newTestSession(t)
	wantSweep := mustSubmit(t, quiet, sweepReq(quiet))
	wantProbe := mustSubmit(t, quiet, probeReq(quiet))

	s := newTestSession(t)
	h := mustEnqueue(t, s, sweepReq(s))
	probes := 0
	for {
		select {
		case <-h.Done():
		default:
			probe := mustSubmit(t, s, probeReq(s))
			probes++
			if !reflect.DeepEqual(probe.Reports, wantProbe.Reports) {
				t.Fatalf("probe %d diverged under the sweep:\n got %+v\nwant %+v",
					probes, probe.Reports, wantProbe.Reports)
			}
			continue
		}
		break
	}
	res := h.Wait()
	if probes == 0 {
		t.Fatal("sweep finished before a single probe ran; the storm exercised nothing")
	}
	if res.Cancelled || res.UnitsDone != res.Units {
		t.Fatalf("stormed sweep incomplete: %+v", res)
	}
	if !reflect.DeepEqual(res.Reports, wantSweep.Reports) {
		t.Errorf("probe storm changed the sweep's reports:\n got %+v\nwant %+v",
			res.Reports, wantSweep.Reports)
	}
	if res.PlanEvals != wantSweep.PlanEvals {
		t.Errorf("probe storm changed the sweep's plan evals: %d vs %d",
			res.PlanEvals, wantSweep.PlanEvals)
	}
	nested := preemptions(s)
	if nested == 0 {
		t.Error("no probe ran nested in a parked sweep unit; the preemption path went untested")
	}
	t.Logf("storm: %d probes interleaved with the sweep, %d nested", probes, nested)
}

// preemptions reads the session's joss_dispatch_preemptions_total.
func preemptions(s *Session) int {
	for _, pt := range s.registry.Snapshot() {
		if pt.Name == "joss_dispatch_preemptions_total" {
			return int(pt.Value)
		}
	}
	return 0
}

// cancelTrigger wraps a scheduler and fires a callback after the n-th
// task completion — from inside the running simulation, so a
// cancellation deterministically lands while the unit is mid-run
// regardless of CPU count or goroutine scheduling.
type cancelTrigger struct {
	taskrt.Scheduler
	after int
	seen  int
	fire  func()
}

func (c *cancelTrigger) TaskDone(rec taskrt.ExecRecord) {
	c.Scheduler.TaskDone(rec)
	c.seen++
	if c.seen == c.after {
		c.fire()
	}
}

// TestSessionCancelInterruptsInFlight: cancelling a job whose only unit
// is mid-simulation aborts it within the cooperative poll bound,
// reports the aborted unit in Interrupted, omits its cell from the
// result — and leaves the worker's recycled state clean, proven by the
// next request matching a fresh session byte for byte.
func TestSessionCancelInterruptsInFlight(t *testing.T) {
	s := newTestSession(t)
	wl, _, ok := FindWorkload("HT_Small")
	if !ok {
		t.Fatal("HT_Small missing")
	}

	handleCh := make(chan *JobHandle, 1)
	var fireOnce sync.Once
	h := mustEnqueue(t, s, SweepRequest{
		Jobs: []Job{{Workload: wl, Label: "GRWS-trip", Make: func() taskrt.Scheduler {
			return &cancelTrigger{
				Scheduler: s.NewScheduler("GRWS"),
				after:     10,
				fire: func() {
					fireOnce.Do(func() { (<-handleCh).Cancel() })
				},
			}
		}}},
		Scale:    0.02,
		Seed:     1,
		Parallel: 1,
	})
	handleCh <- h
	res := h.Wait()
	if !res.Cancelled {
		t.Fatal("cancelled job reported Cancelled=false")
	}
	if res.Interrupted != 1 {
		t.Fatalf("Interrupted = %d, want 1 (the in-flight unit)", res.Interrupted)
	}
	if len(res.Reports) != 0 {
		t.Errorf("aborted cell leaked a report: %+v", res.Reports)
	}
	if st := h.Status(); st.State != JobCancelled {
		t.Errorf("state = %q, want %q", st.State, JobCancelled)
	}

	// The abort left a half-executed graph in the worker's arenas; the
	// session must recover to bit-identical results.
	req := func(sess *Session) SweepRequest {
		return SweepRequest{
			Jobs:     jobsFor(sess, []string{"HT_Small"}, []string{"GRWS"}),
			Scale:    0.02,
			Seed:     1,
			Parallel: 1,
		}
	}
	again := mustSubmit(t, s, req(s))
	fresh := newTestSession(t)
	want := mustSubmit(t, fresh, req(fresh))
	if !reflect.DeepEqual(again.Reports, want.Reports) {
		t.Errorf("post-abort request differs from a fresh session:\nafter abort: %+v\nfresh: %+v",
			again.Reports, want.Reports)
	}
}

// TestSessionDrain: StartDrain refuses new admissions with ErrDraining
// while in-flight jobs run to completion, and WaitIdle returns only
// once they have.
func TestSessionDrain(t *testing.T) {
	s := newTestSession(t)
	h := mustEnqueue(t, s, SweepRequest{
		Jobs:     jobsFor(s, []string{"HT_Small"}, []string{"GRWS"}),
		Scale:    0.02,
		Repeats:  4,
		Parallel: 1,
	})
	s.StartDrain()
	if !s.Draining() {
		t.Fatal("Draining() = false after StartDrain")
	}
	if _, err := s.Submit(stormReq(s, 1)); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit while draining: err = %v, want ErrDraining", err)
	}
	if _, err := s.Enqueue(stormReq(s, 1)); !errors.Is(err, ErrDraining) {
		t.Fatalf("Enqueue while draining: err = %v, want ErrDraining", err)
	}
	s.WaitIdle()
	select {
	case <-h.Done():
	default:
		t.Fatal("WaitIdle returned with the admitted job unfinished")
	}
	if res := h.Wait(); res.Cancelled || res.UnitsDone != res.Units {
		t.Errorf("drain truncated the in-flight job: %+v", res)
	}
}

// TestSessionJobJournalReplay is the crash-recovery bar at the Session
// layer: results journaled by one session are served byte-identically
// by the next session over the same store, spec-only jobs replay as
// interrupted, the job-id sequence continues past replayed ids, and
// evictions are durable.
func TestSessionJobJournalReplay(t *testing.T) {
	cfg := testConfig(t)
	cfg.JobStorePath = filepath.Join(t.TempDir(), "jobs.ndjson")

	spec := json.RawMessage(`{"benchmarks":["SLU"],"schedulers":["GRWS"],"scale":0.02,"repeats":2}`)

	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := mustSubmit(t, a, SweepRequest{
		Jobs:     jobsFor(a, []string{"SLU"}, []string{"GRWS"}),
		Scale:    0.02,
		Repeats:  2,
		Parallel: 1,
		WireSpec: spec,
	})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a job that died without a result: its spec is in the
	// journal, its result never arrived.
	st, _, err := jobstore.Open(cfg.JobStorePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSpec("j7", spec); err != nil {
		t.Fatal(err)
	}
	st.Close()

	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done, ok := sweepStatus(b, "j1")
	if !ok || done.State != string(JobDone) || done.Result == nil {
		t.Fatalf("restored j1 = (%+v, %v), want done with result", done, ok)
	}
	if done.UnitsDone != 2 || done.UnitsTotal != 2 {
		t.Errorf("restored j1 units = %d/%d, want 2/2", done.UnitsDone, done.UnitsTotal)
	}
	// Byte-identity across the crash: the replayed report equals the
	// one the first session computed.
	want := wireReport(res.Reports["SLU"]["GRWS"])
	if got := done.Result.Reports["SLU"]["GRWS"]; !reflect.DeepEqual(got, want) {
		t.Errorf("restored report differs from the pre-restart one:\nrestored: %+v\noriginal: %+v", got, want)
	}

	interrupted, ok := sweepStatus(b, "j7")
	if !ok || interrupted.State != string(JobInterrupted) || interrupted.Result != nil {
		t.Fatalf("restored j7 = (%+v, %v), want interrupted without result", interrupted, ok)
	}
	if interrupted.UnitsTotal != 2 {
		t.Errorf("interrupted units_total = %d, want 2 (from its spec)", interrupted.UnitsTotal)
	}

	if ids := b.JobIDs(); len(ids) != 2 || ids[0] != "j1" || ids[1] != "j7" {
		t.Errorf("restored ids = %v, want [j1 j7]", ids)
	}

	// Replayed jobs are part of the wire surface.
	srv := httptest.NewServer(NewHandler(b))
	resp, err := http.Get(srv.URL + "/jobs/j1")
	if err != nil {
		t.Fatal(err)
	}
	var wireSt WireJobStatus
	if err := json.NewDecoder(resp.Body).Decode(&wireSt); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || wireSt.State != "done" || wireSt.Result == nil {
		t.Errorf("GET /jobs/j1 after restart = %d %+v, want 200 done with result", resp.StatusCode, wireSt)
	}
	srv.Close()

	// Live ids continue past the replayed ones.
	h := mustEnqueue(t, b, stormReq(b, 1))
	if h.ID() != "j8" {
		t.Errorf("first post-restart job id = %q, want j8 (sequence resumes past j7)", h.ID())
	}
	h.Wait()

	// A durable eviction: gone for every later session.
	if !b.Remove("j7") {
		t.Fatal("Remove(j7) failed")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.Lookup("j7"); ok {
		t.Error("evicted j7 reappeared after restart")
	}
	if _, ok := c.Lookup("j1"); !ok {
		t.Error("j1 lost across second restart")
	}
}

// TestJobDeleteDurable: a wire DELETE of a finished journaled sweep
// journals the eviction, so the job stays gone after a restart.
func TestJobDeleteDurable(t *testing.T) {
	cfg := testConfig(t)
	cfg.JobStorePath = filepath.Join(t.TempDir(), "jobs.ndjson")
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(a))
	var created WireJobCreated
	req := WireSweepRequest{Benchmarks: []string{"SLU"}, Schedulers: []string{"GRWS"}, Scale: 0.02}
	if code := postJSON(t, srv, "/jobs", req, &created); code != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", code)
	}
	rec, ok := a.Lookup(created.JobID)
	if !ok {
		t.Fatalf("job %s is not registered", created.JobID)
	}
	<-rec.Done()
	del, _ := http.NewRequest(http.MethodDelete, srv.URL+created.Poll, nil)
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE %s: status %d", created.Poll, resp.StatusCode)
	}
	srv.Close()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	srv = httptest.NewServer(NewHandler(b))
	defer srv.Close()
	resp, err = http.Get(srv.URL + created.Poll)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET %s after DELETE and restart: status %d, want 404", created.Poll, resp.StatusCode)
	}
}

// TestJobJournalDropsRetiredTrainRuns opens a journal written by an
// older build, holding a finished plan pre-training run "t1" beside an
// interrupted sweep "j2", three times in a row. Every open lists only
// j2; the first journals t1's eviction, so a later open compacts t1 out
// of the file.
func TestJobJournalDropsRetiredTrainRuns(t *testing.T) {
	cfg := testConfig(t)
	cfg.DisableMetrics = true
	cfg.JobStorePath = filepath.Join(t.TempDir(), "jobs.ndjson")
	journal := `{"kind":"spec","id":"t1","payload":{"benchmarks":["SLU"],"schedulers":["JOSS"],"scale":0.02}}
{"kind":"result","id":"t1","payload":{"keys":4,"trained":1,"cached":0,"failed":3,"cells":1,"rounds":1,"early_stopped":0,"plan_evals":12,"plans_trained":1,"elapsed_sec":0.005}}
{"kind":"spec","id":"j2","payload":{"benchmarks":["SLU"],"schedulers":["GRWS"],"scale":0.02,"repeats":2}}
`
	if err := os.WriteFile(cfg.JobStorePath, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	for open := 1; open <= 3; open++ {
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("open %d: %v", open, err)
		}
		var listing struct{ Jobs []WireJobSummary }
		if err := json.Unmarshal(wireListing(t, s), &listing); err != nil {
			t.Fatal(err)
		}
		if len(listing.Jobs) != 1 || listing.Jobs[0].JobID != "j2" || listing.Jobs[0].State != string(JobInterrupted) {
			t.Errorf("open %d: GET /jobs = %+v, want only j2, interrupted", open, listing.Jobs)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(cfg.JobStorePath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte(`"t1"`)) {
		t.Errorf("journal still holds t1 after three opens:\n%s", b)
	}
}

// TestHTTPOverloadAndDrain pins the wire mapping of the two refusal
// modes: 429 + Retry-After for admission overload, 503 + Retry-After
// for a draining session — and the weight/deadline_ms request fields.
func TestHTTPOverloadAndDrain(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxJobs = 1
	sess, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	srv := httptest.NewServer(NewHandler(sess))
	defer srv.Close()

	// The long job must keep its admission slot occupied across several
	// HTTP round trips, so it is hundreds of units, not a handful.
	off := false
	long := WireSweepRequest{
		Benchmarks: []string{"HT_Small"},
		Schedulers: []string{"GRWS"},
		Scale:      0.02,
		Repeats:    500,
		Parallel:   1,
		SharePlans: &off,
	}
	var created WireJobCreated
	if code := postJSON(t, srv, "/jobs", long, &created); code != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", code)
	}

	// The slot is taken: /sweep, /jobs and /run must all shed load.
	small := WireSweepRequest{
		Benchmarks: []string{"SLU"}, Schedulers: []string{"GRWS"},
		Scale: 0.02, SharePlans: &off,
		Weight: 2, DeadlineMS: 5000, // hints are legal on a rejected request too
	}
	body, _ := json.Marshal(small)
	for _, path := range []string{"/sweep", "/jobs"} {
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var errBody map[string]string
		json.NewDecoder(resp.Body).Decode(&errBody)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("%s on a full session: status %d, want 429", path, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "1" {
			t.Errorf("%s 429 Retry-After = %q, want \"1\"", path, ra)
		}
		if errBody["error"] == "" {
			t.Errorf("%s 429 carried no JSON error body", path)
		}
	}

	// Cancel the long job to free the slot, wait for its drain, then
	// the same request (weight and deadline set) is admitted.
	delReq, _ := http.NewRequest(http.MethodDelete, srv.URL+created.Poll, nil)
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	waitJob(t, srv, created.Poll)
	var ok WireSweepResult
	if code := postJSON(t, srv, "/sweep", small, &ok); code != http.StatusOK {
		t.Fatalf("/sweep after drain of the long job: status %d", code)
	}
	if ok.Reports["SLU"]["GRWS"].Tasks == 0 {
		t.Errorf("weighted request degenerate: %+v", ok)
	}

	// Invalid dispatch hints are 400s.
	var errBody map[string]string
	if code := postJSON(t, srv, "/sweep", map[string]any{"weight": -1}, &errBody); code != http.StatusBadRequest {
		t.Errorf("negative weight: status %d, want 400", code)
	}
	if code := postJSON(t, srv, "/sweep", map[string]any{"deadline_ms": -5}, &errBody); code != http.StatusBadRequest {
		t.Errorf("negative deadline_ms: status %d, want 400", code)
	}
	if code := postJSON(t, srv, "/sweep", map[string]any{"weight": 1e9}, &errBody); code != http.StatusBadRequest {
		t.Errorf("giant weight: status %d, want 400", code)
	}

	// Draining: 503 with its own Retry-After, and /healthz says so.
	sess.StartDrain()
	resp, err := http.Post(srv.URL+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/sweep while draining: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "5" {
		t.Errorf("503 Retry-After = %q, want \"5\"", ra)
	}
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Draining bool `json:"draining"`
	}
	json.NewDecoder(hresp.Body).Decode(&health)
	hresp.Body.Close()
	if !health.Draining {
		t.Error("healthz does not report draining")
	}
}

// waitJob polls a job's status URL until its result appears.
func waitJob(t *testing.T, srv *httptest.Server, poll string) WireJobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(srv.URL + poll)
		if err != nil {
			t.Fatal(err)
		}
		var st WireJobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Result != nil {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %+v", poll, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
