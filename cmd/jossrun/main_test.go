package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"joss/internal/service"
)

// TestUnknownSchedulerIsUsageError runs a local `jossrun -sched NOPE`
// in a subprocess: it must exit with the usage code and list the valid
// scheduler names instead of panicking.
func TestUnknownSchedulerIsUsageError(t *testing.T) {
	if os.Getenv("JOSSRUN_TEST_MAIN") == "1" {
		os.Args = []string{"jossrun", "-bench", "SLU", "-scale", "0.01", "-sched", "NOPE"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestUnknownSchedulerIsUsageError$")
	cmd.Env = append(os.Environ(), "JOSSRUN_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != exitUsage {
		t.Fatalf("jossrun -sched NOPE: err %v, want exit code %d; stderr:\n%s", err, exitUsage, stderr.String())
	}
	msg := stderr.String()
	if strings.Contains(msg, "panic") || !strings.Contains(msg, `unknown scheduler "NOPE"`) {
		t.Fatalf("stderr does not report the unknown scheduler cleanly:\n%s", msg)
	}
	for _, name := range service.SchedulerCatalog {
		if !strings.Contains(msg, name) {
			t.Errorf("stderr does not list scheduler %q:\n%s", name, msg)
		}
	}
}
