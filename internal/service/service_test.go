package service

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"joss/internal/taskrt"
)

var (
	cfgOnce sync.Once
	cfgG    Config
)

// testConfig trains one small shared configuration (the once-per-
// platform offline stage) for every service test.
func testConfig(t testing.TB) Config {
	t.Helper()
	cfgOnce.Do(func() {
		cfg, err := DefaultConfig()
		if err != nil {
			panic(err)
		}
		cfgG = cfg
	})
	return cfgG
}

func newTestSession(t testing.TB) *Session {
	t.Helper()
	s, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// mustSubmit / mustEnqueue: most tests run without admission bounds,
// where Submit/Enqueue cannot be refused.
func mustSubmit(t *testing.T, s *Session, req SweepRequest) SweepResult {
	t.Helper()
	res, err := s.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return res
}

func mustEnqueue(t *testing.T, s *Session, req SweepRequest) *JobHandle {
	t.Helper()
	h, err := s.Enqueue(req)
	if err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	return h
}

// jobsFor builds one job per scheduler name over the named benchmarks.
func jobsFor(s *Session, benchNames, schedNames []string) []Job {
	var jobs []Job
	for _, bn := range benchNames {
		wl, _, ok := FindWorkload(bn)
		if !ok {
			panic("unknown benchmark " + bn)
		}
		for _, sn := range schedNames {
			sn := sn
			jobs = append(jobs, Job{Workload: wl, Label: sn,
				Make: func() taskrt.Scheduler { return s.NewScheduler(sn) }})
		}
	}
	return jobs
}

// TestSessionWarmRequestsIdentical is the resident-state correctness
// bar: without plan sharing, an unbounded stream of identical requests
// must produce byte-identical reports — the session's recycled
// runtimes, graph arenas and schedulers leak nothing between requests.
func TestSessionWarmRequestsIdentical(t *testing.T) {
	s := newTestSession(t)
	req := func() SweepRequest {
		return SweepRequest{
			Jobs:     jobsFor(s, []string{"SLU", "MM_256_dop4"}, []string{"GRWS", "ERASE", "JOSS"}),
			Scale:    0.02,
			Seed:     1,
			Repeats:  2,
			Parallel: 3,
		}
	}
	first := mustSubmit(t, s, req())
	if first.Units != 12 {
		t.Fatalf("first request ran %d units, want 12", first.Units)
	}
	if first.PlanEvals == 0 {
		t.Fatal("cold request performed no plan searches (JOSS never selected?)")
	}
	for i := 0; i < 3; i++ {
		again := mustSubmit(t, s, req())
		if !reflect.DeepEqual(first.Reports, again.Reports) {
			t.Fatalf("warm request %d differs from the first:\nfirst: %+v\nagain: %+v",
				i+2, first.Reports, again.Reports)
		}
		if again.PlanEvals != first.PlanEvals {
			t.Errorf("warm request %d performed %d evals, first %d (state leaked into search)",
				i+2, again.PlanEvals, first.PlanEvals)
		}
	}
}

// TestSessionSecondRequestZeroPlanSearches is the daemon-path aha
// moment, end to end at the Session layer: with plan sharing on, the
// first request trains and publishes plans; a second identical request
// for the now-trained kernels performs zero plan searches, and — being
// fully warm — repeats byte-identically forever after.
func TestSessionSecondRequestZeroPlanSearches(t *testing.T) {
	s := newTestSession(t)
	req := func() SweepRequest {
		return SweepRequest{
			Jobs:       jobsFor(s, []string{"MM_256_dop4"}, []string{"JOSS", "JOSS_NoMemDVFS"}),
			Scale:      0.02,
			Seed:       1,
			Parallel:   2,
			SharePlans: true,
		}
	}
	first := mustSubmit(t, s, req())
	if first.PlanEvals == 0 {
		t.Fatal("training request performed no plan searches")
	}
	if s.Plans().Len() == 0 {
		t.Fatal("training request published no plans")
	}

	second := mustSubmit(t, s, req())
	if second.PlanEvals != 0 {
		t.Errorf("second request performed %d plan search evaluations, want 0", second.PlanEvals)
	}
	for wl, m := range second.Reports {
		for label, rep := range m {
			if rep.Stats.TasksExecuted == 0 {
				t.Errorf("%s/%s: plan-adopting run lost tasks", wl, label)
			}
		}
	}

	third := mustSubmit(t, s, req())
	if third.PlanEvals != 0 {
		t.Errorf("third request performed %d evaluations, want 0", third.PlanEvals)
	}
	if !reflect.DeepEqual(second.Reports, third.Reports) {
		t.Errorf("plan-adopting requests are not byte-identical:\nsecond: %+v\nthird: %+v",
			second.Reports, third.Reports)
	}
}

// TestSessionCostOrderIndependence asserts cost-aware unit dispatch is
// an observer: mixed large and small cells with repeats, executed at
// Parallel 1 (index order, no reordering) and Parallel 3 (largest
// first across workers), produce byte-identical per-cell reports.
func TestSessionCostOrderIndependence(t *testing.T) {
	s := newTestSession(t)
	req := func(parallel int) SweepRequest {
		return SweepRequest{
			// HT_Small builds a much larger DAG than SLU or DP at equal
			// scale, so cost ordering genuinely reshuffles the units.
			Jobs:     jobsFor(s, []string{"SLU", "HT_Small", "DP"}, []string{"GRWS", "JOSS"}),
			Scale:    0.02,
			Seed:     7,
			Repeats:  2,
			Parallel: parallel,
		}
	}
	serial := mustSubmit(t, s, req(1))
	pooled := mustSubmit(t, s, req(3))
	if !reflect.DeepEqual(serial.Reports, pooled.Reports) {
		t.Errorf("cost-ordered pool changed sweep results:\nserial: %+v\npooled: %+v",
			serial.Reports, pooled.Reports)
	}
}

// TestCellCostsMemoized pins the ⟨workload name, scale⟩ → task-count
// memo: costs match a fresh build, a workload pays its scratch build
// once per scale, and a warm lookup allocates nothing — the
// admission-time planning the dispatcher's cost-aware ordering runs on
// every request.
func TestCellCostsMemoized(t *testing.T) {
	s := newTestSession(t)
	jobs := jobsFor(s, []string{"SLU", "HT_Small", "SLU"}, []string{"GRWS"})
	costs := s.cellCosts(jobs, 0.02, nil)
	for i, j := range jobs {
		want := j.Workload.BuildReuse(nil, 0.02).NumTasks()
		if costs[i] != want {
			t.Errorf("cost[%d] (%s) = %d, want %d", i, j.Workload.Name, costs[i], want)
		}
	}
	if costs[0] != costs[2] {
		t.Errorf("same workload costed differently: %d vs %d", costs[0], costs[2])
	}
	// A different scale is a different DAG, so a different memo entry.
	if same := s.cellCosts(jobs[:1], 0.04, nil); same[0] == costs[0] {
		t.Errorf("scale 0.04 reused the scale 0.02 cost %d", costs[0])
	}

	buf := make([]int, 0, len(jobs))
	allocs := testing.AllocsPerRun(100, func() {
		buf = s.cellCosts(jobs, 0.02, buf[:0])
	})
	if allocs != 0 {
		t.Errorf("warm cellCosts allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkCellCostsWarm measures admission-time dispatch planning on
// a warm memo. perfgate does not run it; TestCellCostsMemoized holds
// the allocation-free guarantee.
func BenchmarkCellCostsWarm(b *testing.B) {
	cfg, err := DefaultConfig()
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var jobs []Job
	for _, bn := range []string{"SLU", "HT_Small", "DP", "MM_256_dop4"} {
		wl, _, _ := FindWorkload(bn)
		jobs = append(jobs, Job{Workload: wl, Label: "GRWS",
			Make: func() taskrt.Scheduler { return s.NewScheduler("GRWS") }})
	}
	buf := s.cellCosts(jobs, 0.02, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.cellCosts(jobs, 0.02, buf[:0])
	}
}

// TestSessionPlanStoreLifecycle exercises the persistence ownership
// that moved into the service: a session configured with a store path
// loads it at New, flushes after requests, and a second session over
// the same store performs zero plan searches for the first session's
// kernels.
func TestSessionPlanStoreLifecycle(t *testing.T) {
	cfg := testConfig(t)
	path := filepath.Join(t.TempDir(), "plans.json")

	cfg.PlanStorePath = path
	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := SweepRequest{
		Jobs:       jobsFor(first, []string{"MM_256_dop4"}, []string{"JOSS"}),
		Scale:      0.02,
		SharePlans: true,
	}
	res := mustSubmit(t, first, req)
	if res.PlanStoreErr != nil {
		t.Fatal(res.PlanStoreErr)
	}
	if res.PlanEvals == 0 {
		t.Fatal("training request performed no plan searches")
	}
	trained := first.Plans().Len()
	if trained == 0 {
		t.Fatal("no plans flushed")
	}

	// A separate "process": fresh session, same store.
	second, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.Plans().Len() != trained {
		t.Fatalf("second session loaded %d plans, want %d", second.Plans().Len(), trained)
	}
	req2 := SweepRequest{
		Jobs:       jobsFor(second, []string{"MM_256_dop4"}, []string{"JOSS"}),
		Scale:      0.02,
		SharePlans: true,
	}
	res2 := mustSubmit(t, second, req2)
	if res2.PlanStoreErr != nil {
		t.Fatal(res2.PlanStoreErr)
	}
	if res2.PlanEvals != 0 {
		t.Errorf("second process performed %d plan search evaluations, want 0", res2.PlanEvals)
	}
}

// TestSessionParallelGrowth asserts the pool grows and shrinks with
// request demands without disturbing results.
func TestSessionParallelGrowth(t *testing.T) {
	s := newTestSession(t)
	req := func(parallel int) SweepRequest {
		return SweepRequest{
			Jobs:     jobsFor(s, []string{"SLU"}, []string{"GRWS", "JOSS"}),
			Scale:    0.02,
			Repeats:  2,
			Parallel: parallel,
		}
	}
	small := mustSubmit(t, s, req(1))
	grown := mustSubmit(t, s, req(4))
	back := mustSubmit(t, s, req(2))
	if !reflect.DeepEqual(small.Reports, grown.Reports) || !reflect.DeepEqual(small.Reports, back.Reports) {
		t.Error("changing Parallel across requests changed results")
	}
	if grown.Workers != 4 || back.Workers != 2 {
		t.Errorf("workers = %d then %d, want 4 then 2", grown.Workers, back.Workers)
	}
}

// TestSessionRejectsInvalidRequests asserts negative knobs panic (the
// exp contract) and empty requests are a harmless no-op.
func TestSessionRejectsInvalidRequests(t *testing.T) {
	s := newTestSession(t)
	for _, tc := range []struct{ parallel, repeats int }{{-1, 1}, {1, -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Submit accepted Parallel=%d Repeats=%d", tc.parallel, tc.repeats)
				}
			}()
			s.Submit(SweepRequest{
				Jobs:     jobsFor(s, []string{"SLU"}, []string{"GRWS"}),
				Scale:    0.02,
				Parallel: tc.parallel, Repeats: tc.repeats,
			})
		}()
	}
	empty := mustSubmit(t, s, SweepRequest{Scale: 0.02})
	if empty.Units != 0 || len(empty.Reports) != 0 {
		t.Errorf("empty request ran %d units", empty.Units)
	}
}

// TestParseScheduler covers name resolution including the constrained
// spelling.
func TestParseScheduler(t *testing.T) {
	s := newTestSession(t)
	for _, name := range []string{"GRWS", "ERASE", "Aequitas", "STEER", "JOSS",
		"JOSS_NoMemDVFS", "JOSS+MAXP", "JOSS+EDP", "JOSS+1.4X", "HERMES",
		"OnDemand", "MemScale", "CoScale", "CATA"} {
		sc, err := s.ParseScheduler(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if name == "JOSS+1.4X" && sc.Name() != "JOSS+1.4X" {
			t.Errorf("constrained spelling produced %q", sc.Name())
		}
	}
	for _, name := range []string{"", "joss", "JOSS+0.5X", "JOSS+X", "nope"} {
		if _, err := s.ParseScheduler(name); err == nil {
			t.Errorf("ParseScheduler(%q) accepted", name)
		}
	}
}

// TestSessionConcurrentSubmitEquivalence is the dispatcher's
// correctness bar under -race: N distinct requests submitted
// concurrently over one session — their units interleaving arbitrarily
// on the shared worker pool — produce byte-identical per-request
// results to the same requests submitted serially.
func TestSessionConcurrentSubmitEquivalence(t *testing.T) {
	reqs := func(s *Session) []SweepRequest {
		return []SweepRequest{
			{Jobs: jobsFor(s, []string{"SLU", "HT_Small"}, []string{"GRWS", "JOSS"}),
				Scale: 0.02, Seed: 1, Repeats: 2, Parallel: 2},
			{Jobs: jobsFor(s, []string{"DP"}, []string{"ERASE", "JOSS"}),
				Scale: 0.02, Seed: 5, Repeats: 3, Parallel: 2},
			{Jobs: jobsFor(s, []string{"MM_256_dop4", "VG"}, []string{"JOSS_NoMemDVFS"}),
				Scale: 0.02, Seed: 9, Repeats: 1, Parallel: 3},
			{Jobs: jobsFor(s, []string{"SLU"}, []string{"STEER"}),
				Scale: 0.02, Seed: 2, Repeats: 2, Parallel: 1},
		}
	}

	serialSess := newTestSession(t)
	serial := make([]SweepResult, len(reqs(serialSess)))
	for i, req := range reqs(serialSess) {
		serial[i] = mustSubmit(t, serialSess, req)
	}

	concSess := newTestSession(t)
	conc := make([]SweepResult, len(serial))
	var wg sync.WaitGroup
	for i, req := range reqs(concSess) {
		wg.Add(1)
		go func(i int, req SweepRequest) {
			defer wg.Done()
			res, err := concSess.Submit(req)
			if err != nil {
				t.Errorf("concurrent Submit %d: %v", i, err)
				return
			}
			conc[i] = res
		}(i, req)
	}
	wg.Wait()

	for i := range serial {
		if !reflect.DeepEqual(serial[i].Reports, conc[i].Reports) {
			t.Errorf("request %d: concurrent submission changed results:\nserial: %+v\nconcurrent: %+v",
				i, serial[i].Reports, conc[i].Reports)
		}
		if serial[i].PlanEvals != conc[i].PlanEvals {
			t.Errorf("request %d: concurrent submission changed plan evals: %d vs %d",
				i, serial[i].PlanEvals, conc[i].PlanEvals)
		}
	}
}

// TestSessionSmallRequestOvertakesLargeSweep is the tail-latency bar
// the dispatcher exists for: a 1-unit request submitted while a large
// sweep occupies the session completes before the sweep does.
func TestSessionSmallRequestOvertakesLargeSweep(t *testing.T) {
	// Like jossd, run a processor beyond the two workers: the
	// goroutines the small job's completion wakes (finalize, then this
	// test) must not wait out the runtime's 10 ms forced preemption of
	// a worker, long enough for the whole sweep to finish.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	s := newTestSession(t)
	large := mustEnqueue(t, s, SweepRequest{
		Jobs:     jobsFor(s, []string{"HT_Small", "HT_Big", "MM_512_dop16", "ST_2048_dop16"}, []string{"GRWS", "JOSS"}),
		Scale:    0.02,
		Seed:     1,
		Repeats:  3,
		Parallel: 2,
	})

	small := mustSubmit(t, s, SweepRequest{
		Jobs:     jobsFor(s, []string{"SLU"}, []string{"GRWS"}),
		Scale:    0.02,
		Seed:     1,
		Parallel: 1,
	})
	if small.Units != 1 || small.Reports["SLU"]["GRWS"].Stats.TasksExecuted == 0 {
		t.Fatalf("small request degenerate: %+v", small)
	}
	select {
	case <-large.Done():
		t.Fatal("large sweep finished before the co-resident small request")
	default:
	}
	if st := large.Status(); st.UnitsDone >= st.UnitsTotal {
		t.Errorf("large sweep had %d/%d units done at small completion", st.UnitsDone, st.UnitsTotal)
	}

	big := large.Wait()
	if big.Cancelled || big.UnitsDone != big.Units {
		t.Fatalf("large sweep incomplete: %+v", big)
	}
	for _, wl := range []string{"HT_Small", "HT_Big", "MM_512_dop16", "ST_2048_dop16"} {
		for _, sn := range []string{"GRWS", "JOSS"} {
			if big.Reports[wl][sn].Stats.TasksExecuted == 0 {
				t.Errorf("%s/%s missing from the interleaved sweep", wl, sn)
			}
		}
	}
}

// TestSessionAsyncLifecycle drives Enqueue end to end: per-cell
// streaming, status, Wait equivalence with Submit, and id lookups.
func TestSessionAsyncLifecycle(t *testing.T) {
	s := newTestSession(t)
	req := func() SweepRequest {
		return SweepRequest{
			Jobs:     jobsFor(s, []string{"SLU", "DP"}, []string{"GRWS"}),
			Scale:    0.02,
			Seed:     3,
			Repeats:  2,
			Parallel: 2,
		}
	}

	h := mustEnqueue(t, s, req())
	var streamed []CellResult
	for c := range h.Cells() {
		streamed = append(streamed, c)
	}
	res := h.Wait()

	if len(streamed) != 2 {
		t.Fatalf("streamed %d cells, want 2", len(streamed))
	}
	for _, c := range streamed {
		if !reflect.DeepEqual(res.Reports[c.Workload][c.Label], c.Report) {
			t.Errorf("%s/%s: streamed report differs from the final result", c.Workload, c.Label)
		}
	}

	st := h.Status()
	if st.State != JobDone || st.UnitsDone != 4 || st.UnitsTotal != 4 {
		t.Errorf("final status = %+v, want done 4/4", st)
	}
	for _, c := range st.Cells {
		if !c.Done || c.RepeatsDone != 2 {
			t.Errorf("cell %s/%s not reported done: %+v", c.Workload, c.Label, c)
		}
	}

	// The async result is the Submit result.
	if again := mustSubmit(t, s, req()); !reflect.DeepEqual(again.Reports, res.Reports) {
		t.Errorf("Enqueue+Wait differs from Submit:\nasync: %+v\nsync: %+v", res.Reports, again.Reports)
	}

	// Id lookups.
	rec, ok := s.Lookup(h.ID())
	if !ok || rec != Record(h) {
		t.Fatalf("Session.Lookup(%q) = (%v, %v), want the handle", h.ID(), rec, ok)
	}
	if got := rec.(*JobHandle).Wait(); !reflect.DeepEqual(got.Reports, res.Reports) {
		t.Errorf("looked-up Wait(%q) = %v", h.ID(), got.Reports)
	}
	if _, ok := s.Lookup("nope"); ok {
		t.Error("Lookup of an unknown job id succeeded")
	}
}

// TestSessionCancelDropsQueuedUnits: cancelling an in-flight job drops
// its queued units, keeps the completed cells' reports, and leaves the
// handle in the cancelled state.
func TestSessionCancelDropsQueuedUnits(t *testing.T) {
	s := newTestSession(t)
	benches := []string{"SLU", "DP", "HT_Small", "MM_256_dop4", "VG", "BI"}
	h := mustEnqueue(t, s, SweepRequest{
		Jobs:     jobsFor(s, benches, []string{"GRWS"}),
		Scale:    0.02,
		Repeats:  4,
		Parallel: 1,
	})
	h.Cancel()
	res := h.Wait()
	if !res.Cancelled {
		t.Fatal("cancelled job reported Cancelled=false")
	}
	if res.UnitsDone >= res.Units {
		t.Errorf("cancellation dropped nothing: %d/%d units ran", res.UnitsDone, res.Units)
	}
	st := h.Status()
	if st.State != JobCancelled {
		t.Errorf("state = %q, want %q", st.State, JobCancelled)
	}
	if st.UnitsDone+st.UnitsDropped != st.UnitsTotal {
		t.Errorf("units don't add up: %d done + %d dropped != %d", st.UnitsDone, st.UnitsDropped, st.UnitsTotal)
	}
	// Only fully completed cells appear in the partial result.
	cells := 0
	for _, m := range res.Reports {
		cells += len(m)
	}
	if cells*4 > res.UnitsDone {
		t.Errorf("%d reported cells exceed %d completed units", cells, res.UnitsDone)
	}

	// A finished job can be evicted by the wire DELETE; afterwards the
	// id is unknown.
	if !s.Remove(h.ID()) {
		t.Errorf("Remove(%q) failed on a finished job", h.ID())
	}
	if _, ok := s.Lookup(h.ID()); ok {
		t.Error("removed job still registered")
	}
}

// TestSessionJobRetention: finished jobs are evicted oldest-first
// beyond RetainJobs; active jobs never are.
func TestSessionJobRetention(t *testing.T) {
	cfg := testConfig(t)
	cfg.RetainJobs = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := func() SweepRequest {
		return SweepRequest{
			Jobs:     jobsFor(s, []string{"SLU"}, []string{"GRWS"}),
			Scale:    0.02,
			Parallel: 1,
		}
	}
	var last string
	for i := 0; i < 5; i++ {
		h := mustEnqueue(t, s, req())
		h.Wait()
		last = h.ID()
	}
	ids := s.JobIDs()
	if len(ids) > 3 { // retain bound + the one admitted before eviction ran
		t.Errorf("registry holds %d jobs (%v), want <= 3", len(ids), ids)
	}
	if _, ok := s.Lookup(last); !ok {
		t.Errorf("most recent job %q was evicted", last)
	}

	// Journaled: evictions are journaled, so a restart replays at most
	// RetainJobs jobs and the compacted journal holds no more, and a
	// replayed job is evicted like any other finished one.
	cfg.RetainJobs = 1
	cfg.JobStorePath = filepath.Join(t.TempDir(), "jobs.ndjson")
	journaled := func(s *Session) SweepRequest {
		return SweepRequest{
			Jobs:     jobsFor(s, []string{"SLU"}, []string{"GRWS"}),
			Scale:    0.02,
			Parallel: 1,
			WireSpec: json.RawMessage(`{"benchmarks":["SLU"],"schedulers":["GRWS"],"scale":0.02}`),
		}
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustEnqueue(t, a, journaled(a)).Wait()
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if ids := b.JobIDs(); len(ids) > 1 {
		t.Errorf("restart replayed %d jobs (%v), want <= 1", len(ids), ids)
	}
	inJournal := map[string]bool{}
	for key := range readJournalPayloads(t, cfg.JobStorePath) {
		kind, id, _ := strings.Cut(key, "/")
		if kind != "spec" && kind != "result" {
			t.Errorf("compacted journal holds a %q record for %s", kind, id)
		}
		inJournal[id] = true
	}
	if len(inJournal) > 1 {
		t.Errorf("compacted journal holds %d jobs (%v), want <= 1", len(inJournal), inJournal)
	}
	h := mustEnqueue(t, b, journaled(b))
	h.Wait()
	if ids := b.JobIDs(); len(ids) != 1 || ids[0] != h.ID() {
		t.Errorf("registry after a post-restart job = %v, want only %s (the replayed job evicted)", ids, h.ID())
	}
}

// sweepStatus looks a sweep up in the job registry and returns its
// GET /jobs/{id} body; ok is false for an unknown id.
func sweepStatus(s *Session, id string) (WireJobStatus, bool) {
	rec, ok := s.Lookup(id)
	if !ok {
		return WireJobStatus{}, false
	}
	st, ok := rec.wireStatus(true).(WireJobStatus)
	return st, ok
}
