package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// postJSON posts v to the test server and decodes the response into
// out, returning the status code.
func postJSON(t *testing.T, srv *httptest.Server, path string, v, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("%s: decoding response: %v", path, err)
	}
	return resp.StatusCode
}

// postRawField posts a raw JSON body, requires a 200, and returns the
// undecoded bytes of one top-level field of the response.
func postRawField(t *testing.T, srv *httptest.Server, path, body, field string) json.RawMessage {
	t.Helper()
	var out map[string]json.RawMessage
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d", path, body, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: decoding response: %v", path, err)
	}
	if len(out[field]) == 0 {
		t.Fatalf("%s: response has no %q field", path, field)
	}
	return out[field]
}

// TestDaemonEndToEnd drives the full daemon path over HTTP: a /run
// request trains (plan searches happen), a second identical request is
// served entirely from the resident plans (zero searches), and /sweep
// returns per-cell reports for explicit benchmark and scheduler lists.
// This is the satellite's end-to-end bar one layer above the Session
// tests: everything crosses the JSON wire.
func TestDaemonEndToEnd(t *testing.T) {
	sess := newTestSession(t)
	srv := httptest.NewServer(NewHandler(sess))
	defer srv.Close()

	run := WireRunRequest{Bench: "MM_256_dop4", Sched: "JOSS", Scale: 0.02}
	var first WireRunResult
	if code := postJSON(t, srv, "/run", run, &first); code != http.StatusOK {
		t.Fatalf("first /run: status %d", code)
	}
	if first.PlanEvals == 0 {
		t.Fatal("first /run performed no plan searches (share_plans default broken?)")
	}
	if first.Report.Tasks == 0 || first.Report.TotalJ <= 0 {
		t.Fatalf("degenerate report: %+v", first.Report)
	}
	if first.PlansCached == 0 {
		t.Fatal("first /run published no plans")
	}

	var second WireRunResult
	if code := postJSON(t, srv, "/run", run, &second); code != http.StatusOK {
		t.Fatalf("second /run: status %d", code)
	}
	if second.PlanEvals != 0 {
		t.Errorf("second /run performed %d plan search evaluations, want 0", second.PlanEvals)
	}

	// Warm determinism across the wire: the third request must equal
	// the second byte for byte (both adopt the same plans).
	var third WireRunResult
	postJSON(t, srv, "/run", run, &third)
	if !reflect.DeepEqual(second.Report, third.Report) {
		t.Errorf("plan-adopting runs differ across the wire:\nsecond: %+v\nthird: %+v",
			second.Report, third.Report)
	}

	// A sweep over explicit lists, sampling every run (share_plans off).
	off := false
	sweep := WireSweepRequest{
		Benchmarks: []string{"SLU", "VG"},
		Schedulers: []string{"GRWS", "JOSS"},
		Scale:      0.02,
		Repeats:    2,
		SharePlans: &off,
	}
	var sres WireSweepResult
	if code := postJSON(t, srv, "/sweep", sweep, &sres); code != http.StatusOK {
		t.Fatalf("/sweep: status %d", code)
	}
	if sres.Units != 8 {
		t.Errorf("/sweep ran %d units, want 8", sres.Units)
	}
	for _, wl := range []string{"SLU", "VG"} {
		for _, sn := range []string{"GRWS", "JOSS"} {
			if sres.Reports[wl][sn].Tasks == 0 {
				t.Errorf("%s/%s missing from sweep response", wl, sn)
			}
		}
	}

	// Old clients still send the retired "batch" field; the decoder
	// ignores it, so the served reports are the same bytes.
	sweepBody, err := json.Marshal(sweep)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ path, body, field string }{
		{"/run", `{"bench":"SLU","sched":"GRWS","scale":0.02,"share_plans":false`, "report"},
		{"/sweep", string(sweepBody[:len(sweepBody)-1]), "reports"},
	} {
		plain := postRawField(t, srv, c.path, c.body+"}", c.field)
		legacy := postRawField(t, srv, c.path, c.body+`,"batch":false}`, c.field)
		if !bytes.Equal(plain, legacy) {
			t.Errorf("%s with \"batch\":false served different %s:\n got %s\nwant %s", c.path, c.field, legacy, plain)
		}
	}

	// Validation errors are 400s with a JSON error body.
	var errBody map[string]string
	if code := postJSON(t, srv, "/run", WireRunRequest{Bench: "SLU", Sched: "nope"}, &errBody); code != http.StatusBadRequest {
		t.Errorf("unknown scheduler: status %d, want 400", code)
	}
	if code := postJSON(t, srv, "/sweep", WireSweepRequest{Benchmarks: []string{"nope"}}, &errBody); code != http.StatusBadRequest {
		t.Errorf("unknown benchmark: status %d, want 400", code)
	}
	// Resource bounds: a hostile repeats/parallel must be rejected at
	// the wire, not allocated.
	if code := postJSON(t, srv, "/sweep", WireSweepRequest{Repeats: 1_000_000_000}, &errBody); code != http.StatusBadRequest {
		t.Errorf("giant repeats: status %d, want 400", code)
	}
	if code := postJSON(t, srv, "/sweep", WireSweepRequest{Parallel: 1 << 20}, &errBody); code != http.StatusBadRequest {
		t.Errorf("giant parallel: status %d, want 400", code)
	}

	// Health reflects the served requests and resident plans.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		PlansCached   int     `json:"plans_cached"`
		Requests      int     `json:"requests"`
		Jobs          int     `json:"jobs"`
		QueuedUnits   int     `json:"queued_units"`
		InflightUnits int     `json:"inflight_units"`
		Draining      bool    `json:"draining"`
		UptimeSec     float64 `json:"uptime_sec"`
		Workers       int     `json:"workers"`
		GOMAXPROCS    int     `json:"gomaxprocs"`
		Version       string  `json:"version"`
		Commit        *string `json:"commit"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.PlansCached == 0 || health.Requests < 4 {
		t.Errorf("healthz = %+v, want cached plans and >= 4 requests", health)
	}
	// The dispatch-load fields an operator polls: an idle session
	// advertises zero load and no drain.
	if health.Jobs != 0 || health.QueuedUnits != 0 || health.InflightUnits != 0 || health.Draining {
		t.Errorf("healthz load = %+v, want idle undraining session", health)
	}
	// Process identity: age, the pool the served requests grew, the
	// process's GOMAXPROCS and the build identity (commit may be empty
	// in an un-injected build, but the field is always present).
	if health.UptimeSec <= 0 {
		t.Errorf("uptime_sec = %v, want > 0", health.UptimeSec)
	}
	if health.Workers <= 0 {
		t.Errorf("workers = %d after served requests, want > 0", health.Workers)
	}
	if want := runtime.GOMAXPROCS(0); health.GOMAXPROCS != want {
		t.Errorf("gomaxprocs = %d, want the process's %d", health.GOMAXPROCS, want)
	}
	if health.Version == "" {
		t.Error("version is empty, want the build identity (\"dev\" when not injected)")
	}
	if health.Commit == nil {
		t.Error("commit field missing from /healthz")
	}
}

// TestWireParallelClamped is the wire clamp's differential: on a
// session sized for 2 workers, sweeps asking for 64 are served without
// growing the pool past 2, and the clamped sweep's reports are
// byte-identical to the same request at parallel 1.
func TestWireParallelClamped(t *testing.T) {
	cfg := testConfig(t)
	cfg.Parallel = 2
	sess, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	srv := httptest.NewServer(NewHandler(sess))
	defer srv.Close()

	// First a sweep on the empty pool: 4 cells, 4 units wide.
	var first WireSweepResult
	if code := postJSON(t, srv, "/sweep", WireSweepRequest{
		Benchmarks: []string{"SLU", "VG", "DP", "MM_256_dop4"}, Schedulers: []string{"JOSS"},
		Scale: 0.02, Parallel: 64,
	}, &first); code != http.StatusOK {
		t.Fatalf("/sweep parallel 64 on the empty pool: status %d", code)
	}
	if w := sess.Workers(); w > 2 {
		t.Errorf("after /sweep parallel 64 on the empty pool: Workers() = %d, want <= 2", w)
	}

	sweep := func(parallel int) string {
		return fmt.Sprintf(`{"benchmarks":["SLU","VG"],"schedulers":["GRWS","JOSS"],`+
			`"scale":0.02,"repeats":2,"share_plans":false,"parallel":%d}`, parallel)
	}
	wide := postRawField(t, srv, "/sweep", sweep(64), "reports")
	if w := sess.Workers(); w > 2 {
		t.Errorf("after /sweep parallel 64: Workers() = %d, want <= 2", w)
	}
	narrow := postRawField(t, srv, "/sweep", sweep(1), "reports")
	if !bytes.Equal(wide, narrow) {
		t.Errorf("/sweep at parallel 64 served different reports than at parallel 1:\n 64: %s\n  1: %s", wide, narrow)
	}
}

// TestJobsAsyncEndToEnd is the fire-and-forget acceptance bar over the
// wire: POST /jobs, poll GET /jobs/{id} to completion, and the fetched
// result matches the synchronous /sweep response byte for byte.
// DELETE cancels a running job and evicts a finished one.
func TestJobsAsyncEndToEnd(t *testing.T) {
	sess := newTestSession(t)
	srv := httptest.NewServer(NewHandler(sess))
	defer srv.Close()

	off := false
	body := WireSweepRequest{
		Benchmarks: []string{"SLU", "DP"},
		Schedulers: []string{"GRWS", "JOSS"},
		Scale:      0.02,
		Repeats:    2,
		SharePlans: &off,
	}

	var sync WireSweepResult
	if code := postJSON(t, srv, "/sweep", body, &sync); code != http.StatusOK {
		t.Fatalf("baseline /sweep: status %d", code)
	}

	var created WireJobCreated
	if code := postJSON(t, srv, "/jobs", body, &created); code != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", code)
	}
	if created.JobID == "" || created.Units != 8 || created.Poll != "/jobs/"+created.JobID {
		t.Fatalf("job created = %+v", created)
	}

	// Poll until the result appears.
	var st WireJobStatus
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(srv.URL + created.Poll)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Result != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != "done" || st.UnitsDone != 8 {
		t.Errorf("final status = %+v, want done 8/8", st)
	}
	for _, c := range st.Cells {
		if !c.Done || c.RepeatsDone != 2 {
			t.Errorf("cell %s/%s not done in final status: %+v", c.Bench, c.Sched, c)
		}
	}
	asyncJSON, _ := json.Marshal(st.Result.Reports)
	syncJSON, _ := json.Marshal(sync.Reports)
	if !bytes.Equal(asyncJSON, syncJSON) {
		t.Errorf("async result differs from synchronous /sweep:\nasync: %s\nsync: %s", asyncJSON, syncJSON)
	}
	if st.Result.PlanEvals != sync.PlanEvals {
		t.Errorf("async plan evals %d, sync %d", st.Result.PlanEvals, sync.PlanEvals)
	}

	// The listing knows the job.
	var listing struct {
		Jobs []WireJobSummary `json:"jobs"`
	}
	resp, err := http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, j := range listing.Jobs {
		if j.JobID == created.JobID && j.State == "done" {
			found = true
		}
	}
	if !found {
		t.Errorf("GET /jobs listing %+v misses job %s", listing.Jobs, created.JobID)
	}

	// Cancellation: a long job DELETEd right after admission drains
	// cooperatively and reports itself cancelled with a partial result.
	long := WireSweepRequest{
		Benchmarks: []string{"SLU"},
		Schedulers: []string{"GRWS"},
		Scale:      0.02,
		Repeats:    500,
		Parallel:   1,
		SharePlans: &off,
	}
	var longJob WireJobCreated
	if code := postJSON(t, srv, "/jobs", long, &longJob); code != http.StatusAccepted {
		t.Fatalf("POST /jobs (long): status %d", code)
	}
	delReq, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+longJob.JobID, nil)
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	var delSt WireJobStatus
	if err := json.NewDecoder(delResp.Body).Decode(&delSt); err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delSt.State != "cancelled" {
		t.Errorf("DELETE returned state %q, want cancelled", delSt.State)
	}
	for {
		resp, err := http.Get(srv.URL + "/jobs/" + longJob.JobID)
		if err != nil {
			t.Fatal(err)
		}
		var pst WireJobStatus
		if err := json.NewDecoder(resp.Body).Decode(&pst); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if pst.Result != nil {
			if !pst.Result.Cancelled || pst.Result.UnitsDone >= pst.Result.Units {
				t.Errorf("cancelled job result = %+v, want partial", pst.Result)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled job never drained")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// DELETE on the finished job evicts it; the id is then unknown.
	delReq, _ = http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+created.JobID, nil)
	delResp, err = http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	resp, err = http.Get(srv.URL + "/jobs/" + created.JobID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET after evicting DELETE: status %d, want 404", resp.StatusCode)
	}

	// Unknown ids are 404s.
	resp, err = http.Get(srv.URL + "/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job id: status %d, want 404", resp.StatusCode)
	}
}

// TestSweepStreaming asserts /sweep?stream=1 delivers one NDJSON frame
// per completed cell plus a final done frame, and that both the
// reassembled cells and the final result are byte-identical to the
// synchronous /sweep response.
func TestSweepStreaming(t *testing.T) {
	sess := newTestSession(t)
	srv := httptest.NewServer(NewHandler(sess))
	defer srv.Close()

	off := false
	body := WireSweepRequest{
		Benchmarks: []string{"SLU", "DP", "MM_256_dop4"},
		Schedulers: []string{"GRWS", "JOSS"},
		Scale:      0.02,
		Repeats:    2,
		SharePlans: &off,
	}
	var sync WireSweepResult
	if code := postJSON(t, srv, "/sweep", body, &sync); code != http.StatusOK {
		t.Fatalf("baseline /sweep: status %d", code)
	}

	reqBody, _ := json.Marshal(body)
	resp, err := http.Post(srv.URL+"/sweep?stream=1", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}

	reassembled := make(map[string]map[string]WireReport)
	var done *WireStreamFrame
	cellFrames := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var f WireStreamFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		switch f.Type {
		case "cell":
			cellFrames++
			if f.Report == nil || f.CellsDone != cellFrames || f.CellsTotal != 6 {
				t.Errorf("cell frame %d malformed: %+v", cellFrames, f)
			}
			if reassembled[f.Bench] == nil {
				reassembled[f.Bench] = make(map[string]WireReport)
			}
			if _, dup := reassembled[f.Bench][f.Sched]; dup {
				t.Errorf("cell %s/%s streamed twice", f.Bench, f.Sched)
			}
			reassembled[f.Bench][f.Sched] = *f.Report
		case "done":
			done = &f
		default:
			t.Errorf("unknown frame type %q", f.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if cellFrames != 6 || done == nil || done.Result == nil {
		t.Fatalf("stream delivered %d cell frames, done=%v", cellFrames, done)
	}

	syncJSON, _ := json.Marshal(sync.Reports)
	reJSON, _ := json.Marshal(reassembled)
	finalJSON, _ := json.Marshal(done.Result.Reports)
	if !bytes.Equal(reJSON, syncJSON) {
		t.Errorf("reassembled stream differs from /sweep:\nstream: %s\nsync: %s", reJSON, syncJSON)
	}
	if !bytes.Equal(finalJSON, syncJSON) {
		t.Errorf("stream's final result differs from /sweep:\nstream: %s\nsync: %s", finalJSON, syncJSON)
	}
}
