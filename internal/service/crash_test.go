package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCrashRecoverySIGKILL is the end-to-end crash drill: a child
// process (this test binary re-exec'd) opens a journaled session,
// completes one sweep, gets a second mid-run, and is then SIGKILLed —
// no deferred close, no flush, exactly what a crash leaves behind. The
// parent reopens the same journal and asserts the finished job is
// still served byte-identically while the killed one is reported
// interrupted.
//
// Child and parent rendezvous over stdout: the child prints
// "FAST <id>" when the first sweep's result is journaled and "SLOW
// <id>" once the second sweep has completed at least one unit, then
// blocks until killed.
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
	fastID, slowID := "", ""
	deadline := time.AfterFunc(2*time.Minute, func() { cmd.Process.Kill() })
	// Check slowID before Scan: once SLOW is announced the child prints
	// nothing more, so another Scan would block until the deadline.
	sc := bufio.NewScanner(out)
	for slowID == "" && sc.Scan() {
		line := sc.Text()
		if id, ok := strings.CutPrefix(line, "FAST "); ok {
			fastID = id
		}
		if id, ok := strings.CutPrefix(line, "SLOW "); ok {
			slowID = id
		}
	}
	deadline.Stop()
	if fastID == "" || slowID == "" {
		t.Fatalf("child never announced its jobs (fast=%q slow=%q)", fastID, slowID)
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

	// The id sequence resumes above the dead process's jobs, and the
	// reopened journal keeps accepting work.
	h := mustEnqueue(t, s, crashReq(s, 1))
	if n := jobSeqOf(t, h.ID()); n <= jobSeqOf(t, fastID) || n <= jobSeqOf(t, slowID) {
		t.Errorf("post-crash job got id %s, want one above %s and %s", h.ID(), fastID, slowID)
	}
	if res := h.Wait(); res.Cancelled || len(res.Reports) == 0 {
		t.Errorf("post-crash job %s did not complete: %+v", h.ID(), res)
	}
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

// crashHelper is the child side: journal two jobs, report, and wait to
// be killed. It never returns.
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

	slow, err := s.Enqueue(crashReq(s, crashSlowRepeats))
	if err != nil {
		fail(err)
	}
	for slow.Status().UnitsDone == 0 {
		time.Sleep(time.Millisecond)
	}
	fmt.Printf("SLOW %s\n", slow.ID())
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
