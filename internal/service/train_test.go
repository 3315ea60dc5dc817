package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"joss/internal/sched"
	"joss/internal/taskrt"
)

// jsonDecode drains and decodes one response body.
func jsonDecode(resp *http.Response, out any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// trainBenches is the differential tests' workload side of the grid:
// four benchmarks crossed with the paper's six schedulers (three of
// them model-driven, so they train plans; the others contribute
// nothing and must be harmless to name).
var trainBenches = []string{"SLU", "VG", "MM_256_dop4", "DP"}

// cacheDump serialises a plan cache through its deterministic Save
// form, so two caches can be compared byte for byte.
func cacheDump(t *testing.T, pc *sched.PlanCache) string {
	t.Helper()
	var buf bytes.Buffer
	if err := pc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestTrainThenSweepMatchesLazy is the tentpole's differential proof:
// Session.Train must leave the plan cache byte-identical to what lazy
// in-run training leaves (including the blind spots — kernels too
// sparse to finish sampling in one run train under neither path), and
// a sweep over the Train-warmed cache must be byte-identical to the
// second, lazily warmed sweep — for every scheduler and workload of
// the grid — with both warmed paths performing zero plan searches.
// Pre-training changes when plans are trained, never what they are.
func TestTrainThenSweepMatchesLazy(t *testing.T) {
	s := newTestSession(t)
	sweep := func(pc *sched.PlanCache) SweepRequest {
		return SweepRequest{
			Jobs:       jobsFor(s, trainBenches, SchedulerNames),
			Scale:      0.02,
			Seed:       1,
			Repeats:    1,
			Parallel:   3,
			SharePlans: true,
			Plans:      pc,
		}
	}

	// Lazy side: the first sweep trains in-run; the second adopts.
	lazyCache := sched.NewPlanCache()
	mustSubmit(t, s, sweep(lazyCache))
	lazyRes := mustSubmit(t, s, sweep(lazyCache))
	if lazyRes.PlanEvals != 0 {
		t.Fatalf("lazily warmed sweep performed %d plan evals, want 0", lazyRes.PlanEvals)
	}

	// Trained side: Train warms a fresh cache, then one sweep adopts.
	trainedCache := sched.NewPlanCache()
	tres, err := s.Train(TrainRequest{
		Benchmarks: trainBenches,
		Schedulers: SchedulerNames,
		Scale:      0.02,
		Seed:       1,
		Plans:      trainedCache,
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if tres.Keys == 0 || tres.Trained == 0 || tres.Skipped != 0 || tres.Cached != 0 {
		t.Fatalf("train accounting off: %+v (lone trainer over a fresh cache)", tres)
	}
	if got := tres.Trained + tres.Failed; got != tres.Keys {
		t.Fatalf("train accounted for %d of %d keys: %+v", got, tres.Keys, tres)
	}
	if tres.EarlyStopped == 0 {
		t.Errorf("no trainer run stopped early (completion hook dead?): %+v", tres)
	}
	if trainedCache.Stores() != trainedCache.Len() {
		t.Fatalf("Stores=%d Len=%d: some key was searched more than once",
			trainedCache.Stores(), trainedCache.Len())
	}
	if tres.Trained != trainedCache.Len() {
		t.Fatalf("Trained=%d but the cache holds %d plans", tres.Trained, trainedCache.Len())
	}

	// The caches themselves must agree byte for byte: same keys, same
	// plans, same blind spots.
	if lazyDump, trainedDump := cacheDump(t, lazyCache), cacheDump(t, trainedCache); lazyDump != trainedDump {
		t.Fatalf("Train-warmed cache differs from the lazily warmed cache:\nlazy:\n%s\ntrained:\n%s",
			lazyDump, trainedDump)
	}

	trainRes := mustSubmit(t, s, sweep(trainedCache))
	if trainRes.PlanEvals != 0 {
		t.Fatalf("pre-trained sweep performed %d plan evals, want 0", trainRes.PlanEvals)
	}
	if !reflect.DeepEqual(lazyRes.Reports, trainRes.Reports) {
		t.Fatalf("pre-trained sweep differs from the lazily warmed sweep:\nlazy:    %+v\ntrained: %+v",
			lazyRes.Reports, trainRes.Reports)
	}
}

// TestTrainConcurrentStorm fires several identical Train calls at one
// shared cache concurrently (run under -race in CI). The claim API's
// single-flight contract across callers: every distinct PlanKey is
// searched exactly once — each key lands in exactly one caller's
// Trained count, the rest see it Cached or Skipped — and no
// claim survives the storm.
func TestTrainConcurrentStorm(t *testing.T) {
	s := newTestSession(t)
	pc := sched.NewPlanCache()
	req := func() TrainRequest {
		return TrainRequest{
			// Two benchmarks with disjoint kernel sets under two model
			// schedulers: four cells whose key sets never overlap, so
			// the exactly-once accounting is deterministic.
			Benchmarks: []string{"SLU", "MM_256_dop4"},
			Schedulers: []string{"JOSS", "JOSS_NoMemDVFS"},
			Scale:      0.02,
			Seed:       1,
			Plans:      pc,
		}
	}

	const storm = 4
	results := make([]TrainResult, storm)
	errs := make([]error, storm)
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = s.Train(req())
		}()
	}
	wg.Wait()

	keys := results[0].Keys
	if keys == 0 {
		t.Fatal("grid implies zero plan keys")
	}
	trained := 0
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("trainer %d: %v", i, errs[i])
		}
		if results[i].Keys != keys {
			t.Fatalf("trainer %d saw %d keys, trainer 0 saw %d", i, results[i].Keys, keys)
		}
		if got := results[i].Trained + results[i].Cached + results[i].Skipped + results[i].Failed; got != keys {
			t.Errorf("trainer %d accounted for %d of %d keys: %+v", i, got, keys, results[i])
		}
		trained += results[i].Trained
	}
	// Keys too sparse to train (see TrainResult.Failed) land in
	// someone's Failed count, so sum(Trained) == what the cache holds —
	// not necessarily == keys. Exactly-once is the cache's invariant:
	// every resident plan was trained by exactly one caller, and every
	// store was exactly one search.
	if trained != pc.Len() {
		t.Errorf("storm trained %d keys but the cache holds %d: a key trained twice or a plan went unreported",
			trained, pc.Len())
	}
	if pc.Len() == 0 {
		t.Error("storm trained nothing")
	}
	if pc.Stores() != pc.Len() {
		t.Errorf("Stores=%d Len=%d: concurrent trainers searched a key twice", pc.Stores(), pc.Len())
	}
	if pc.Training() != 0 {
		t.Errorf("%d claims leaked after the storm", pc.Training())
	}
}

// TestTrainHTTP drives the wire surface: synchronous POST /train,
// /healthz's plans_trained and training fields, the async /train
// lifecycle through /jobs/{id}, and DELETE cancellation semantics.
func TestTrainHTTP(t *testing.T) {
	sess := newTestSession(t)
	srv := httptest.NewServer(NewHandler(sess))
	defer srv.Close()

	before := sess.Plans().Len()
	req := WireTrainRequest{
		Benchmarks: []string{"SLU"},
		Schedulers: []string{"JOSS"},
		Scale:      0.02,
	}
	var res WireTrainResult
	if code := postJSON(t, srv, "/train", req, &res); code != http.StatusOK {
		t.Fatalf("/train: status %d (%+v)", code, res)
	}
	if res.Keys == 0 || res.Trained == 0 || res.Error != "" {
		t.Fatalf("degenerate train result: %+v", res)
	}
	if got := res.Trained + res.Failed; got != res.Keys {
		t.Fatalf("sync train accounted for %d of %d keys: %+v", got, res.Keys, res)
	}
	if res.PlansTrained != before+res.Trained {
		t.Errorf("plans_trained = %d, want %d resident plans", res.PlansTrained, before+res.Trained)
	}

	// /healthz reflects the trained cache and reports no in-flight
	// claims once training is done.
	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		PlansTrained int `json:"plans_trained"`
		Training     int `json:"training"`
	}
	code := hz.StatusCode
	if err := jsonDecode(hz, &health); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || health.PlansTrained != res.PlansTrained || health.Training != 0 {
		t.Fatalf("/healthz after training: status %d, %+v (want plans_trained=%d, training=0)",
			code, health, res.PlansTrained)
	}

	// A repeat of the same grid trains nothing: trained keys come back
	// cached, and the untrainably sparse ones fail again without adding
	// a plan (see TrainResult.Failed).
	var again WireTrainResult
	if code := postJSON(t, srv, "/train", req, &again); code != http.StatusOK {
		t.Fatalf("second /train: status %d", code)
	}
	if again.Trained != 0 || again.Cached != res.Trained || again.PlansTrained != res.PlansTrained {
		t.Fatalf("second /train re-trained cached keys: %+v (first: %+v)", again, res)
	}

	// Async: 202 with a pollable "t…" job id that ends in state done
	// with the result attached, then DELETE evicts it.
	var created WireTrainCreated
	asyncReq := req
	asyncReq.Benchmarks = []string{"MM_256_dop4"}
	if code := postJSON(t, srv, "/train?async=1", asyncReq, &created); code != http.StatusAccepted {
		t.Fatalf("/train?async=1: status %d (%+v)", code, created)
	}
	if created.JobID == "" || created.Poll == "" {
		t.Fatalf("degenerate 202: %+v", created)
	}
	var st WireTrainStatus
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(srv.URL + created.Poll)
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		if err := jsonDecode(resp, &st); err != nil {
			t.Fatal(err)
		}
		if code != http.StatusOK {
			t.Fatalf("GET %s: status %d", created.Poll, code)
		}
		if st.Result != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("async training never finished: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.State != string(JobDone) || st.Result.Trained != st.Result.Keys {
		t.Fatalf("async train ended badly: %+v", st)
	}
	del, err := http.NewRequest(http.MethodDelete, srv.URL+created.Poll, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE %s: status %d", created.Poll, resp.StatusCode)
	}
	if _, ok := sess.Lookup(created.JobID); ok {
		t.Fatalf("finished training run %s survived DELETE", created.JobID)
	}
}

// TestTrainRoundsStayInternal: a training run is one "t…" record —
// its rounds are dispatcher jobs that neither appear in GET /jobs nor
// use up an id of the shared sequence — and a DELETE of the record
// while a round is in flight cancels that round cooperatively.
func TestTrainRoundsStayInternal(t *testing.T) {
	cfg := testConfig(t)
	cfg.Parallel = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	listIDs := func() []string {
		resp, err := http.Get(srv.URL + "/jobs")
		if err != nil {
			t.Fatal(err)
		}
		var listing struct{ Jobs []WireJobSummary }
		if err := jsonDecode(resp, &listing); err != nil {
			t.Fatal(err)
		}
		ids := []string{}
		for _, j := range listing.Jobs {
			ids = append(ids, j.JobID)
		}
		return ids
	}
	train := func(benches ...string) WireTrainRequest {
		return WireTrainRequest{Benchmarks: benches, Schedulers: []string{"JOSS"}, Scale: 0.02}
	}

	var res WireTrainResult
	if code := postJSON(t, srv, "/train", train("SLU", "MM_256_dop4"), &res); code != http.StatusOK || res.Rounds == 0 {
		t.Fatalf("sync /train: status %d, %+v (want at least one round)", code, res)
	}
	var created WireTrainCreated
	if code := postJSON(t, srv, "/train?async=1", train("VG"), &created); code != http.StatusAccepted {
		t.Fatalf("/train?async=1: status %d", code)
	}
	rec, ok := s.Lookup(created.JobID)
	if !ok {
		t.Fatalf("async training run %s is not registered", created.JobID)
	}
	<-rec.Done()
	if st, _ := trainStatus(s, created.JobID); st.Result == nil || st.Result.Rounds == 0 {
		t.Fatalf("async training run ended without a round: %+v", st)
	}
	if ids := listIDs(); !reflect.DeepEqual(ids, []string{"t1", "t2"}) {
		t.Fatalf("GET /jobs after two training runs = %v, want [t1 t2]", ids)
	}

	// Occupy the only worker with a sweep parked mid-simulation, so the
	// next training run's round is admitted but cannot finish.
	release, parked := make(chan struct{}), make(chan struct{})
	var parkOnce sync.Once
	wl, _, _ := FindWorkload("HT_Small")
	blocker := mustEnqueue(t, s, SweepRequest{
		Jobs: []Job{{Workload: wl, Label: "GRWS-park", Make: func() taskrt.Scheduler {
			return &cancelTrigger{Scheduler: s.NewScheduler("GRWS"), after: 10, fire: func() {
				parkOnce.Do(func() { close(parked); <-release })
			}}
		}}},
		Scale:    0.02,
		Parallel: 1,
	})
	if blocker.ID() != "j3" {
		t.Errorf("first sweep after two training runs got id %s, want j3 (rounds use no ids)", blocker.ID())
	}
	<-parked

	if code := postJSON(t, srv, "/train?async=1", train("DP"), &created); code != http.StatusAccepted {
		t.Fatalf("/train?async=1 (DP): status %d", code)
	}
	rec, _ = s.Lookup(created.JobID)
	th := rec.(*TrainHandle)
	var round *JobHandle
	for deadline := time.Now().Add(30 * time.Second); round == nil; {
		th.mu.Lock()
		round = th.cur
		th.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("training round never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	if ids := listIDs(); !reflect.DeepEqual(ids, []string{"t1", "t2", "j3", "t4"}) {
		t.Errorf("GET /jobs with a round in flight = %v, want [t1 t2 j3 t4]", ids)
	}

	del, _ := http.NewRequest(http.MethodDelete, srv.URL+created.Poll, nil)
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	var st WireTrainStatus
	if err := jsonDecode(resp, &st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || st.State != string(JobCancelled) {
		t.Errorf("DELETE %s mid-round: status %d, state %q, want 200 cancelled", created.Poll, resp.StatusCode, st.State)
	}
	close(release)
	if rres := round.Wait(); !rres.Cancelled || rres.UnitsDone == rres.Units {
		t.Errorf("in-flight round after DELETE = %+v, want cancelled with units dropped", rres)
	}
	if tres, _ := th.Wait(); !tres.Cancelled {
		t.Errorf("training run after DELETE = %+v, want cancelled", tres)
	}
	blocker.Wait()
}
