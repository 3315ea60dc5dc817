package main

// The -connect client: one Client speaks HTTP to one jossd daemon (TCP
// or unix socket) and retries transient failures — dial/transport
// errors, 429 admission refusals, 5xx server states — with jittered
// exponential backoff honouring the daemon's Retry-After hint.
// Exhausted retries surface as a *TransientError carrying the final
// backoff state, so exitCode can tell "worth retrying later" from a
// permanent protocol refusal.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Retry policy for transient daemon failures: exponential backoff from
// RetryBase, doubling per attempt, capped at RetryCap, with half-range
// jitter so a burst of refused clients doesn't re-arrive in lockstep.
const (
	RetryBase = 200 * time.Millisecond
	RetryCap  = 5 * time.Second
)

// TransientError reports a request abandoned after exhausting its
// retry budget on transient failures. The request may well succeed if
// reissued later — the daemon was overloaded, draining or unreachable,
// not rejecting the request itself — which is why exitCode maps it to
// a distinct "retriable" exit code.
type TransientError struct {
	// Attempts is the total tries made (1 + retries).
	Attempts int
	// Code is the HTTP status of the last refusal (0 when the last
	// failure was a transport error and no response arrived).
	Code int
	// RetryAfter is the last Retry-After header the daemon sent, if
	// any.
	RetryAfter string
	// LastDelay is the last backoff the client slept before retrying
	// (0 when no retry happened).
	LastDelay time.Duration
	// Err is the last underlying failure.
	Err error
}

func (e *TransientError) Error() string {
	msg := fmt.Sprintf("%v (gave up after %d attempt", e.Err, e.Attempts)
	if e.Attempts != 1 {
		msg += "s"
	}
	if e.RetryAfter != "" {
		msg += fmt.Sprintf("; daemon last sent Retry-After: %s", e.RetryAfter)
	}
	if e.LastDelay > 0 {
		msg += fmt.Sprintf("; last backoff %v", e.LastDelay.Round(time.Millisecond))
	}
	return msg + ")"
}

func (e *TransientError) Unwrap() error { return e.Err }

// Client is a connection to one jossd daemon: the HTTP client for the
// target (TCP or unix://), its base URL, and the retry budget spent on
// transient failures.
type Client struct {
	// HTTP performs the requests (a unix:// target gets a dedicated
	// transport dialing the socket).
	HTTP *http.Client
	// Base is the URL prefix requests are issued under.
	Base string
	// Retries bounds the transient-failure retries per Do call; 0
	// fails fast on the first refusal.
	Retries int
	// OnRetry, when non-nil, observes each backoff before the sleep
	// (newRemote logs it to stderr).
	OnRetry func(err error, delay time.Duration, attempt, retries int)
}

// NewClient builds a client for a -connect style target: a plain
// http:// URL, or unix://PATH for a daemon serving on a unix socket
// (the HTTP host is then a placeholder).
func NewClient(target string, retries int) (*Client, error) {
	if path, ok := strings.CutPrefix(target, "unix://"); ok {
		tr := &http.Transport{
			DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "unix", path)
			},
		}
		return &Client{HTTP: &http.Client{Transport: tr}, Base: "http://jossd", Retries: retries}, nil
	}
	if !strings.HasPrefix(target, "http://") && !strings.HasPrefix(target, "https://") {
		return nil, fmt.Errorf("target wants http://host:port or unix://PATH, got %q", target)
	}
	return &Client{HTTP: http.DefaultClient, Base: strings.TrimSuffix(target, "/"), Retries: retries}, nil
}

// retryable reports whether a response status is worth retrying: 429
// means admission was refused — the request was NOT accepted, so a
// retry cannot duplicate work — and 5xx covers transient server states
// (503 drain, gateway errors). Other 4xx are permanent client errors.
func retryable(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// retryDelay returns how long to wait after failed attempt (0-based):
// the daemon's own Retry-After hint when it sent one, otherwise
// jittered exponential backoff. Malformed and negative Retry-After
// values fall back to the backoff; huge ones are capped at RetryCap,
// as is the backoff growth itself (the shift saturates instead of
// overflowing for large attempt counts).
func retryDelay(attempt int, retryAfter string) time.Duration {
	if sec, err := strconv.Atoi(retryAfter); err == nil && sec >= 0 {
		d := time.Duration(sec) * time.Second
		if sec > int(RetryCap/time.Second) { // compare in seconds: huge values overflow Duration
			d = RetryCap
		}
		return d
	}
	d := RetryCap // attempts past the shift width saturate at the cap
	if attempt < 63 {
		d = RetryBase << attempt
	}
	if d <= 0 || d > RetryCap { // <= 0 catches shift overflow
		d = RetryCap
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// Do issues one request, retrying transient failures — dial/transport
// errors, 429 admission refusals and 5xx responses — up to c.Retries
// times. The body is replayed from bytes on each attempt. A response
// with any other status is returned as-is for the caller to decode;
// an exhausted retry budget returns a *TransientError with the final
// backoff state. The context bounds all attempts together (cancel it
// to abandon the sleeps too); for streaming responses keep it alive
// until the body is drained.
func (c *Client) Do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	te := &TransientError{}
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.HTTP.Do(req)
		switch {
		case err != nil:
			te.Code, te.RetryAfter = 0, ""
			te.Err = fmt.Errorf("reaching daemon: %w (is jossd running?)", err)
		case retryable(resp.StatusCode):
			te.Code = resp.StatusCode
			te.RetryAfter = resp.Header.Get("Retry-After")
			te.Err = fmt.Errorf("daemon refused the request: %s", resp.Status)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		default:
			return resp, nil
		}
		te.Attempts = attempt + 1
		if attempt >= c.Retries || ctx.Err() != nil {
			return nil, te
		}
		d := retryDelay(attempt, te.RetryAfter)
		te.LastDelay = d
		if c.OnRetry != nil {
			c.OnRetry(te.Err, d, attempt+1, c.Retries)
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, te
		}
	}
}
