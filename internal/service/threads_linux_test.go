//go:build linux

package service

import (
	"bytes"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// osThreads reads the process's thread count from /proc/self/status.
func osThreads(t *testing.T) int {
	t.Helper()
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := bytes.Cut(b, []byte("\nThreads:"))
	if !ok {
		t.Fatal("no Threads: line in /proc/self/status")
	}
	line, _, _ := bytes.Cut(rest, []byte("\n"))
	n, err := strconv.Atoi(string(bytes.TrimSpace(line)))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSessionCloseReleasesWorkerThreads: every worker holds a locked,
// priority-lowered OS thread, so sessions that Close must give their
// threads back — ten sessions in a row leave the thread count where
// one left it — and a store-less session still serves after Close.
func TestSessionCloseReleasesWorkerThreads(t *testing.T) {
	req := func(s *Session) SweepRequest {
		return SweepRequest{
			Jobs:     jobsFor(s, []string{"SLU"}, []string{"GRWS", "JOSS"}),
			Scale:    0.02,
			Seed:     1,
			Parallel: 2,
		}
	}
	cycle := func() (*Session, SweepResult) {
		s, err := New(testConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		res := mustSubmit(t, s, req(s))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return s, res
	}
	// The first cycle brings the runtime's own threads up to their
	// working set; later cycles must add nothing that outlives them.
	// A retired worker exits once idle, and its thread just after.
	cycle()
	base := osThreads(t)
	for {
		time.Sleep(20 * time.Millisecond)
		n := osThreads(t)
		if n >= base {
			break
		}
		base = n
	}
	const slack = 2
	var s *Session
	var want SweepResult
	for i := 0; i < 10; i++ {
		s, want = cycle()
	}
	n := osThreads(t)
	for deadline := time.Now().Add(5 * time.Second); n > base+slack && time.Now().Before(deadline); n = osThreads(t) {
		time.Sleep(5 * time.Millisecond)
	}
	if n > base+slack {
		t.Fatalf("%d OS threads after 10 session cycles, want at most %d (baseline %d + %d)", n, base+slack, base, slack)
	}

	// Closed, not torn down: the next request starts fresh workers.
	if got := mustSubmit(t, s, req(s)); !reflect.DeepEqual(got.Reports, want.Reports) {
		t.Errorf("request after Close differs:\ngot:  %+v\nwant: %+v", got.Reports, want.Reports)
	}
	if w := s.Workers(); w != 2 {
		t.Errorf("workers after a request on a closed session = %d, want 2", w)
	}
	s.Close()
}
