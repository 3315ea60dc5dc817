package main

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestExitCode pins the remote-mode exit contract scripts rely on:
// transient failures (retries exhausted) exit 3 so a wrapper can
// retry, permanent protocol rejections exit 1 so it does not.
func TestExitCode(t *testing.T) {
	transient := &TransientError{Attempts: 5, Code: http.StatusTooManyRequests, RetryAfter: "2",
		Err: fmt.Errorf("daemon refused the request: 429 Too Many Requests")}
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"success", nil, 0},
		{"permanent rejection", fmt.Errorf("daemon rejected the request: unknown benchmark"), exitPermanent},
		{"transient exhausted", transient, exitTransient},
		{"transient wrapped", fmt.Errorf("sweeping: %w", transient), exitTransient},
	}
	for _, c := range cases {
		if got := exitCode(c.err); got != c.want {
			t.Errorf("%s: exitCode(%v) = %d, want %d", c.name, c.err, got, c.want)
		}
	}
}

// TestTransientErrorStateInMessage asserts the final Retry-After and
// backoff state reach the user on failure — the error string is what
// jossrun prints before exiting 3.
func TestTransientErrorStateInMessage(t *testing.T) {
	te := &TransientError{
		Attempts:   3,
		Code:       http.StatusTooManyRequests,
		RetryAfter: "7",
		LastDelay:  1200 * time.Millisecond,
		Err:        fmt.Errorf("daemon refused the request: 429 Too Many Requests"),
	}
	msg := te.Error()
	for _, want := range []string{"3 attempts", "Retry-After: 7", "1.2s"} {
		if !strings.Contains(msg, want) {
			t.Errorf("TransientError message %q lacks %q", msg, want)
		}
	}
}

// TestNewRemoteBadTarget asserts target validation happens at the CLI
// boundary, before any request is made.
func TestNewRemoteBadTarget(t *testing.T) {
	if _, err := newRemote("host:8080", 0); err == nil {
		t.Fatal("newRemote accepted a bare host:port")
	}
}
