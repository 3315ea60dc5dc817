package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientRetriesOverloadThenSucceeds exercises the client half of
// the overload contract: a daemon answering 429 + Retry-After must be
// retried (the request was not admitted, so a retry cannot duplicate
// it), and the retry must eventually be served.
func TestClientRetriesOverloadThenSucceeds(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if n := hits.Add(1); n <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"session overloaded"}`)
			return
		}
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer srv.Close()

	c, err := NewClient(srv.URL, 3)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	resp, err := c.Do(context.Background(), http.MethodPost, "/jobs", []byte(`{}`))
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server hit %d times, want 3 (two 429s then success)", got)
	}
}

// TestClientRetriesExhausted asserts the retry budget is a hard bound
// — retries+1 total attempts — and that exhaustion surfaces as a
// *TransientError carrying the final refusal and backoff state, which
// is what jossrun prints and maps to the retriable exit code.
func TestClientRetriesExhausted(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c, err := NewClient(srv.URL, 2)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	_, err = c.Do(context.Background(), http.MethodGet, "/healthz", nil)
	if err == nil {
		t.Fatal("Do succeeded against an always-503 daemon")
	}
	var te *TransientError
	if !errors.As(err, &te) {
		t.Fatalf("error %T is not a *TransientError", err)
	}
	if te.Attempts != 3 || te.Code != http.StatusServiceUnavailable || te.RetryAfter != "0" {
		t.Fatalf("TransientError = %+v, want 3 attempts, code 503, Retry-After 0", te)
	}
	if msg := te.Error(); !strings.Contains(msg, "503") ||
		!strings.Contains(msg, "Retry-After: 0") || !strings.Contains(msg, "3 attempts") {
		t.Fatalf("error %q lacks the refusal status, Retry-After or attempt count", msg)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server hit %d times, want 3 (1 try + 2 retries)", got)
	}
}

// TestClientPermanentErrorNotRetried asserts 4xx client errors other
// than 429 pass straight through for the caller to decode — retrying
// a malformed request would never help.
func TestClientPermanentErrorNotRetried(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"unknown benchmark"}`)
	}))
	defer srv.Close()

	c, err := NewClient(srv.URL, 5)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	resp, err := c.Do(context.Background(), http.MethodPost, "/run", []byte(`{"bench":"nope"}`))
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server hit %d times, want exactly 1", got)
	}
}

// TestClientRetriesDialError asserts transport-level failures (daemon
// not running yet) are retried, reported with the usual hint, and
// observable through OnRetry.
func TestClientRetriesDialError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {}))
	url := srv.URL
	srv.Close() // nothing listens here any more

	c, err := NewClient(url, 1)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	var retries atomic.Int32
	c.OnRetry = func(err error, delay time.Duration, attempt, total int) { retries.Add(1) }
	start := time.Now()
	_, err = c.Do(context.Background(), http.MethodGet, "/healthz", nil)
	if err == nil {
		t.Fatal("Do succeeded against a closed port")
	}
	var te *TransientError
	if !errors.As(err, &te) || te.Code != 0 {
		t.Fatalf("error %v, want a *TransientError with Code 0 (no response)", err)
	}
	if !strings.Contains(err.Error(), "is jossd running") {
		t.Fatalf("error %q lacks the daemon hint", err)
	}
	if retries.Load() != 1 {
		t.Fatalf("OnRetry fired %d times, want 1", retries.Load())
	}
	// One backoff sleep happened (attempt 0 → retry 1): base/2 ≤ d ≤ base.
	if elapsed := time.Since(start); elapsed < RetryBase/2 {
		t.Fatalf("retried after %v, want at least %v of backoff", elapsed, RetryBase/2)
	}
}

// TestClientContextCancelAbandonsRetries asserts a cancelled context
// cuts the retry loop short instead of sleeping out the budget.
func TestClientContextCancelAbandonsRetries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Retry-After", "5") // would sleep 5s per retry
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	c, err := NewClient(srv.URL, 10)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	c.OnRetry = func(error, time.Duration, int, int) { cancel() }
	start := time.Now()
	if _, err := c.Do(ctx, http.MethodGet, "/healthz", nil); err == nil {
		t.Fatal("Do succeeded against an always-429 daemon")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Do took %v after cancel, want an immediate return", elapsed)
	}
}

// TestNewClientTargets covers target parsing: http URLs (trailing
// slash trimmed), unix sockets, and rejection of anything else.
func TestNewClientTargets(t *testing.T) {
	c, err := NewClient("http://host:8080/", 0)
	if err != nil || c.Base != "http://host:8080" {
		t.Errorf("http target: base %q, err %v; want trimmed base", c.Base, err)
	}
	c, err = NewClient("unix:///tmp/jossd.sock", 0)
	if err != nil || c.Base != "http://jossd" || c.HTTP == http.DefaultClient {
		t.Errorf("unix target: base %q, err %v; want placeholder base and a dedicated transport", c.Base, err)
	}
	if _, err := NewClient("host:8080", 0); err == nil {
		t.Error("bare host:port accepted, want an error naming the expected forms")
	}
}

// TestRetryable pins the retry classification: 429 (admission refused,
// nothing was accepted) and all 5xx are transient; other 4xx and
// success codes are not.
func TestRetryable(t *testing.T) {
	cases := []struct {
		code int
		want bool
	}{
		{http.StatusTooManyRequests, true},
		{http.StatusInternalServerError, true},
		{http.StatusServiceUnavailable, true},
		{599, true},
		{http.StatusOK, false},
		{http.StatusAccepted, false},
		{http.StatusFound, false},
		{http.StatusBadRequest, false},
		{http.StatusNotFound, false},
		{499, false},
	}
	for _, c := range cases {
		if got := retryable(c.code); got != c.want {
			t.Errorf("retryable(%d) = %v, want %v", c.code, got, c.want)
		}
	}
}

// TestRetryDelay pins the backoff policy's edges, table-driven with no
// sleeps: Retry-After wins when well-formed, malformed and negative
// values fall back to backoff, huge values (including ones that would
// overflow a Duration) cap at RetryCap, and backoff growth saturates
// at the cap for arbitrarily large attempt counts.
func TestRetryDelay(t *testing.T) {
	backoffFor := func(attempt int) (lo, hi time.Duration) {
		d := RetryCap
		if attempt < 63 {
			if d = RetryBase << attempt; d <= 0 || d > RetryCap {
				d = RetryCap
			}
		}
		return d / 2, d
	}
	cases := []struct {
		name       string
		attempt    int
		retryAfter string
		lo, hi     time.Duration
	}{
		{"retry-after wins", 0, "3", 3 * time.Second, 3 * time.Second},
		{"retry-after zero", 5, "0", 0, 0},
		{"retry-after large capped", 0, "9999", RetryCap, RetryCap},
		{"retry-after overflows duration", 0, "10000000000000", RetryCap, RetryCap},
		{"retry-after malformed", 0, "soon", RetryBase / 2, RetryBase},
		{"retry-after beyond int is malformed", 0, "92233720368547758080", RetryBase / 2, RetryBase},
		{"retry-after negative", 0, "-5", RetryBase / 2, RetryBase},
		{"retry-after empty", 0, "", RetryBase / 2, RetryBase},
		{"backoff doubles", 1, "", RetryBase, 2 * RetryBase},
		{"backoff reaches cap", 5, "", RetryCap / 2, RetryCap},
		{"backoff saturates", 20, "", RetryCap / 2, RetryCap},
		{"shift-width ceiling", 63, "", RetryCap / 2, RetryCap},
		{"absurd attempt count", 1 << 20, "", RetryCap / 2, RetryCap},
	}
	for _, c := range cases {
		for trial := 0; trial < 32; trial++ { // jitter: sample the range
			if d := retryDelay(c.attempt, c.retryAfter); d < c.lo || d > c.hi {
				t.Fatalf("%s: retryDelay(%d, %q) = %v, want within [%v, %v]",
					c.name, c.attempt, c.retryAfter, d, c.lo, c.hi)
			}
		}
	}
	// Growth check across the whole attempt range: never below the
	// attempt's own half-backoff floor, never above the cap.
	for attempt := 0; attempt < 70; attempt++ {
		lo, _ := backoffFor(attempt)
		if d := retryDelay(attempt, ""); d < lo || d > RetryCap {
			t.Fatalf("retryDelay(%d, \"\") = %v, want within [%v, %v]", attempt, d, lo, RetryCap)
		}
	}
}

// FuzzRetryDelay feeds retryDelay arbitrary Retry-After headers and
// attempt counts: it must never panic, every delay stays within
// [0, RetryCap], and a canonical decimal N in [0, 5] is honoured as
// exactly N seconds. Seed corpus: testdata/fuzz/FuzzRetryDelay.
func FuzzRetryDelay(f *testing.F) {
	f.Fuzz(func(t *testing.T, retryAfter string, attempt uint16) {
		d := retryDelay(int(attempt), retryAfter)
		if d < 0 || d > RetryCap {
			t.Fatalf("retryDelay(%d, %q) = %v, want within [0, %v]", attempt, retryAfter, d, RetryCap)
		}
		if n, err := strconv.Atoi(retryAfter); err == nil && strconv.Itoa(n) == retryAfter && n >= 0 && n <= 5 {
			if want := time.Duration(n) * time.Second; d != want {
				t.Fatalf("retryDelay(%d, %q) = %v, want the daemon's %v", attempt, retryAfter, d, want)
			}
		}
	})
}
