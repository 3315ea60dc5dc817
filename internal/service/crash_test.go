package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCrashRecoverySIGKILL is the end-to-end crash drill: a child
// process (this test binary re-exec'd) opens a journaled session,
// completes one sweep and one training run, gets a second of each
// mid-run, and is then SIGKILLed — no deferred close, no flush, exactly
// what a crash leaves behind. The parent reopens the same journal and
// asserts the finished jobs are still served byte-identically while
// the killed ones are reported interrupted.
//
// Child and parent rendezvous over stdout: the child prints
// "FAST <id>" when the first sweep's result is journaled, "TRAINED
// <id>" when the first training run's is, "SLOW <id>" once the second
// sweep has completed at least one unit and "TRAINING <id>" once the
// second training run's spec is journaled, then blocks until killed.
func TestCrashRecoverySIGKILL(t *testing.T) {
	if path := os.Getenv("JOSS_CRASH_STORE"); path != "" {
		crashHelper(path)
		return
	}
	if testing.Short() {
		t.Skip("spawns a child process that trains its own model set")
	}

	journal := filepath.Join(t.TempDir(), "jobs.journal")
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashRecoverySIGKILL$")
	cmd.Env = append(os.Environ(), "JOSS_CRASH_STORE="+journal)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Rendezvous: wait for both announcements, then SIGKILL while the
	// slow job is mid-run.
	fastID, slowID, trainedID, trainingID := "", "", "", ""
	deadline := time.AfterFunc(2*time.Minute, func() { cmd.Process.Kill() })
	// Check trainingID before Scan: once TRAINING is announced the
	// child prints nothing more, so another Scan would block until the
	// deadline.
	sc := bufio.NewScanner(out)
	for trainingID == "" && sc.Scan() {
		line := sc.Text()
		if id, ok := strings.CutPrefix(line, "FAST "); ok {
			fastID = id
		}
		if id, ok := strings.CutPrefix(line, "SLOW "); ok {
			slowID = id
		}
		if id, ok := strings.CutPrefix(line, "TRAINED "); ok {
			trainedID = id
		}
		if id, ok := strings.CutPrefix(line, "TRAINING "); ok {
			trainingID = id
		}
	}
	deadline.Stop()
	if fastID == "" || slowID == "" || trainedID == "" || trainingID == "" {
		t.Fatalf("child never announced its jobs (fast=%q slow=%q trained=%q training=%q)",
			fastID, slowID, trainedID, trainingID)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // "signal: killed" — the expected exit

	// What the journal holds at the moment of death: a result for the
	// fast job, only a spec for the slow one.
	journalled := readJournalPayloads(t, journal)
	fastPayload, ok := journalled["result/"+fastID]
	if !ok {
		t.Fatalf("journal has no result for finished job %s", fastID)
	}
	if _, ok := journalled["result/"+slowID]; ok {
		t.Fatalf("journal has a result for the SIGKILLed job %s", slowID)
	}
	if _, ok := journalled["spec/"+slowID]; !ok {
		t.Fatalf("journal has no spec for the SIGKILLed job %s", slowID)
	}
	trainedPayload, ok := journalled["result/"+trainedID]
	if !ok {
		t.Fatalf("journal has no result for finished training run %s", trainedID)
	}
	if _, ok := journalled["result/"+trainingID]; ok {
		t.Fatalf("journal has a result for the SIGKILLed training run %s", trainingID)
	}
	if _, ok := journalled["spec/"+trainingID]; !ok {
		t.Fatalf("journal has no spec for the SIGKILLed training run %s", trainingID)
	}

	// Restart: a fresh session over the same journal, as jossd would
	// after the crash.
	cfg := testConfig(t)
	cfg.JobStorePath = journal
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	st, ok := sweepStatus(s, fastID)
	if !ok || st.State != string(JobDone) || st.Result == nil {
		t.Fatalf("finished job %s replayed as %+v, want done with a result", fastID, st)
	}
	served, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, fastPayload) {
		t.Errorf("restored result is not byte-identical to the journaled one:\n pre-crash %s\n restored  %s",
			fastPayload, served)
	}

	st, ok = sweepStatus(s, slowID)
	if !ok || st.State != string(JobInterrupted) {
		t.Fatalf("killed job %s replayed as %+v, want state interrupted", slowID, st)
	}
	if st.Result != nil {
		t.Errorf("interrupted job %s serves a result it never produced", slowID)
	}
	if st.UnitsTotal != crashSlowRepeats {
		t.Errorf("interrupted job %s UnitsTotal = %d, want %d (from its journaled spec)",
			slowID, st.UnitsTotal, crashSlowRepeats)
	}

	tst, ok := trainStatus(s, trainedID)
	if !ok || tst.State != string(JobDone) || tst.Result == nil {
		t.Fatalf("finished training run %s replayed as %+v, want done with a result", trainedID, tst)
	}
	served, err = json.Marshal(tst.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, trainedPayload) {
		t.Errorf("restored training result is not byte-identical to the journaled one:\n pre-crash %s\n restored  %s",
			trainedPayload, served)
	}
	tst, ok = trainStatus(s, trainingID)
	if !ok || tst.State != string(JobInterrupted) {
		t.Fatalf("killed training run %s replayed as %+v, want state interrupted", trainingID, tst)
	}
	if tst.Result != nil {
		t.Errorf("interrupted training run %s serves a result it never produced", trainingID)
	}

	// The id sequence resumes above the dead process's jobs, and the
	// reopened journal keeps accepting work.
	h := mustEnqueue(t, s, crashReq(s, 1))
	if h.ID() == fastID || h.ID() == slowID {
		t.Errorf("post-crash job reused id %s", h.ID())
	}
	if res := h.Wait(); res.Cancelled || len(res.Reports) == 0 {
		t.Errorf("post-crash job %s did not complete: %+v", h.ID(), res)
	}

	// A new wire training run gets an id above both of the dead
	// process's training runs.
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	var created WireTrainCreated
	if code := postJSON(t, srv, "/train?async=1", crashTrainSpec, &created); code != http.StatusAccepted {
		t.Fatalf("post-crash /train?async=1: status %d", code)
	}
	n := jobSeqOf(t, created.JobID)
	if n <= jobSeqOf(t, trainedID) || n <= jobSeqOf(t, trainingID) {
		t.Errorf("post-crash training run got id %s, want one above %s and %s", created.JobID, trainedID, trainingID)
	}
	rec, ok := s.Lookup(created.JobID)
	if !ok {
		t.Fatalf("post-crash training run %s is not registered", created.JobID)
	}
	<-rec.Done()
}

// jobSeqOf is the sequence number of a minted job id.
func jobSeqOf(t *testing.T, id string) int64 {
	t.Helper()
	_, n, ok := parseJobID(id)
	if !ok {
		t.Fatalf("malformed job id %q", id)
	}
	return n
}

// crashTrainSpec is the quick training run the child finishes before
// the kill, in its wire form.
var crashTrainSpec = WireTrainRequest{
	Benchmarks: []string{"SLU"},
	Schedulers: []string{"JOSS"},
	Scale:      0.02,
}

// crashTrain is the Go-API form of a wire training request, with the
// wire spec a journaled session records at admission.
func crashTrain(wr WireTrainRequest) TrainRequest {
	req, err := buildTrainRequest(wr, 1)
	if err != nil {
		panic(err)
	}
	req.wireSpec, _ = json.Marshal(wr)
	return req
}

// crashSlowRepeats sizes the to-be-killed job: ~2 s of 1-unit
// simulations, far longer than the kill round-trip.
const crashSlowRepeats = 8000

// crashReq is one SLU/GRWS sweep with the wire spec a journaled
// session records at admission.
func crashReq(s *Session, repeats int) SweepRequest {
	return SweepRequest{
		Jobs:     jobsFor(s, []string{"SLU"}, []string{"GRWS"}),
		Scale:    0.02,
		Seed:     1,
		Repeats:  repeats,
		Parallel: 1,
		WireSpec: json.RawMessage(fmt.Sprintf(
			`{"benchmarks":["SLU"],"schedulers":["GRWS"],"scale":0.02,"repeats":%d}`, repeats)),
	}
}

// crashHelper is the child side: train, journal two jobs, report, and
// wait to be killed. It never returns.
func crashHelper(journal string) {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "crash helper:", err)
		os.Exit(1)
	}
	cfg, err := DefaultConfig()
	if err != nil {
		fail(err)
	}
	cfg.JobStorePath = journal
	s, err := New(cfg)
	if err != nil {
		fail(err)
	}

	fast, err := s.Enqueue(crashReq(s, 1))
	if err != nil {
		fail(err)
	}
	fast.Wait() // result journaled before Wait returns
	fmt.Printf("FAST %s\n", fast.ID())

	trained, err := s.EnqueueTrain(crashTrain(crashTrainSpec))
	if err != nil {
		fail(err)
	}
	if _, err := trained.Wait(); err != nil { // result journaled before Wait returns
		fail(err)
	}
	fmt.Printf("TRAINED %s\n", trained.ID())

	slow, err := s.Enqueue(crashReq(s, crashSlowRepeats))
	if err != nil {
		fail(err)
	}
	for slow.Status().UnitsDone == 0 {
		time.Sleep(time.Millisecond)
	}
	fmt.Printf("SLOW %s\n", slow.ID())

	// Every model-driven scheduler over the whole Figure 8 grid at
	// paper scale, one worker at a low weight beside the slow sweep:
	// seconds of training, far longer than the kill round-trip.
	training, err := s.EnqueueTrain(crashTrain(WireTrainRequest{Scale: 1, Parallel: 1, Weight: 0.01}))
	if err != nil {
		fail(err)
	}
	fmt.Printf("TRAINING %s\n", training.ID())
	select {} // hold the journal open mid-run until SIGKILL
}

// readJournalPayloads parses the raw NDJSON journal into a
// "kind/id" → payload map (last record wins, matching replay).
func readJournalPayloads(t *testing.T, path string) map[string]json.RawMessage {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]json.RawMessage{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec struct {
			Kind    string          `json:"kind"`
			ID      string          `json:"id"`
			Payload json.RawMessage `json:"payload"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue // torn tail
		}
		out[rec.Kind+"/"+rec.ID] = append(json.RawMessage(nil), rec.Payload...)
	}
	return out
}
