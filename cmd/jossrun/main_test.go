package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"

	"joss/internal/service"
)

// TestMain lets a test run jossrun's main in a child process of the
// test binary: JOSSRUN_TEST_ARGS holds the newline-separated arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("JOSSRUN_TEST_ARGS"); ok {
		os.Args = append([]string{"jossrun"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runJossrun runs `jossrun args...` in a child process and returns its
// exit code and stderr.
func runJossrun(t *testing.T, args ...string) (code int, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "JOSSRUN_TEST_ARGS="+strings.Join(args, "\n"))
	var buf bytes.Buffer
	cmd.Stderr = &buf
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, buf.String()
	case errors.As(err, &ee):
		return ee.ExitCode(), buf.String()
	}
	t.Fatalf("running jossrun %v: %v", args, err)
	return 0, ""
}

// TestUnknownSchedulerIsUsageError runs a local `jossrun -sched NOPE`
// in a subprocess: it must exit with the usage code and list the valid
// scheduler names instead of panicking.
func TestUnknownSchedulerIsUsageError(t *testing.T) {
	code, msg := runJossrun(t, "-bench", "SLU", "-scale", "0.01", "-sched", "NOPE")
	if code != exitUsage {
		t.Fatalf("jossrun -sched NOPE: exit code %d, want %d; stderr:\n%s", code, exitUsage, msg)
	}
	if strings.Contains(msg, "panic") || !strings.Contains(msg, `unknown scheduler "NOPE"`) {
		t.Fatalf("stderr does not report the unknown scheduler cleanly:\n%s", msg)
	}
	for _, name := range service.SchedulerCatalog {
		if !strings.Contains(msg, name) {
			t.Errorf("stderr does not list scheduler %q:\n%s", name, msg)
		}
	}
}

// TestSpeedupPostsConstrainedJOSS asserts `-connect -speedup 1.4`
// with -sched left at its JOSS default asks the daemon to run exactly
// the constrained scheduler JOSS+1.4X.
func TestSpeedupPostsConstrainedJOSS(t *testing.T) {
	bodies := make(chan service.WireRunRequest, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/run" {
			http.NotFound(w, r)
			return
		}
		var req service.WireRunRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		bodies <- req
		json.NewEncoder(w).Encode(service.WireRunResult{})
	}))
	defer srv.Close()

	code, stderr := runJossrun(t, "-connect", srv.URL, "-bench", "SLU", "-speedup", "1.4")
	if code != 0 {
		t.Fatalf("jossrun -connect -speedup 1.4: exit code %d; stderr:\n%s", code, stderr)
	}
	select {
	case req := <-bodies:
		if req.Sched != "JOSS+1.4X" {
			t.Errorf("/run sched = %q, want %q", req.Sched, "JOSS+1.4X")
		}
	default:
		t.Fatal("the daemon never received a /run request")
	}
}

// TestSpeedupWithOtherSchedIsUsageError asserts -speedup only
// constrains JOSS: naming any other scheduler with it exits 2 in local
// and remote modes alike, before any simulation or request.
func TestSpeedupWithOtherSchedIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "SLU", "-scale", "0.01", "-sched", "GRWS", "-speedup", "1.4"},
		{"-connect", "http://127.0.0.1:1", "-sched", "GRWS", "-speedup", "1.4"},
	} {
		code, stderr := runJossrun(t, args...)
		if code != exitUsage {
			t.Errorf("jossrun %v: exit code %d, want %d; stderr:\n%s", args, code, exitUsage, stderr)
		}
		if !strings.Contains(stderr, "-speedup") {
			t.Errorf("jossrun %v: stderr does not name -speedup:\n%s", args, stderr)
		}
	}
}
