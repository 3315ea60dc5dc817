package main

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"joss/internal/obs"
	"joss/internal/service"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64 // 0 = refused
	}{
		{19, 0.5, 0}, {20, 0.5, 10}, {99, 0.9, 0}, {100, 0.9, 90}, {0, 0.5, 0}, {1000, 0.9, 900},
	} {
		got, err := percentile(seq(c.n), c.q)
		if c.want == 0 {
			if !errors.Is(err, errTooFewSamples) {
				t.Errorf("p%g of %d samples = %v, %v; want refused", 100*c.q, c.n, got, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", 100*c.q, c.n, got, err, c.want)
		}
	}
}

// TestOpenLoopStallInflatesLaterProbes serves sends one at a time and
// stalls the first: every send due during the stall waits it out, and
// its latency, counted from its due time, shows that wait.
func TestOpenLoopStallInflatesLaterProbes(t *testing.T) {
	const (
		interval = 10 * time.Millisecond
		stall    = 150 * time.Millisecond
	)
	var server sync.Mutex
	r := openLoop(time.Now(), interval, 10*interval, func(i int) error {
		server.Lock()
		defer server.Unlock()
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if len(r.lat) != 10 {
		t.Fatalf("%d sends, want 10", len(r.lat))
	}
	for i := 1; i < 10; i++ {
		// Send i is due at i*interval and cannot finish before the
		// stall ends at `stall`.
		if want := stall - time.Duration(i)*interval; r.lat[i] < want {
			t.Errorf("send %d latency %v, want >= %v (the stall it waited behind)", i, r.lat[i], want)
		}
	}
	// A generator that waited for responses would have sent send 1 only
	// after the stall, at least stall-interval late.
	if r.late[1] >= stall-2*interval {
		t.Errorf("generator sent send 1 %v late: a slow response must not delay later sends", r.late[1])
	}
}

// TestOpenLoopCountsFromDueTime starts the schedule in the past, as a
// stalled generator would find it: the overdue sends complete at once,
// yet their latency includes the time they were overdue.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	behind := 80 * time.Millisecond
	r := openLoop(time.Now().Add(-behind), 10*time.Millisecond, 50*time.Millisecond, func(int) error { return nil })
	for i := range r.lat {
		want := behind - time.Duration(i)*10*time.Millisecond
		if r.lat[i] < want || r.late[i] < want {
			t.Errorf("send %d: latency %v, late %v; both want >= %v", i, r.lat[i], r.late[i], want)
		}
		if r.fromSend[i] >= want {
			t.Errorf("send %d: latency from send %v should exclude the %v it was overdue", i, r.fromSend[i], want)
		}
	}
}

// TestFailureCounting posts probes to a server that refuses some (429,
// 500) and answers one with the wrong report: refusals count as failed
// operations that miss every latency limit, the wrong answer as an
// output mismatch.
func TestFailureCounting(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := n.Add(1)
		switch {
		case i%10 == 3:
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
		case i%10 == 7:
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
		default:
			tasks := 650
			if i == 50 {
				tasks = 649
			}
			json.NewEncoder(w).Encode(service.WireRunResult{Report: service.WireReport{Scheduler: "JOSS", Tasks: tasks}})
		}
	}))
	defer srv.Close()
	c := newClient(1)
	defer c.CloseIdleConnections()
	var ph phaseResult
	for i := 0; i < 100; i++ {
		ph.outcome(time.Millisecond, sendProbe(c, srv.URL, []byte(`{}`), 650))
	}
	if ph.ops.attempted() != 100 || ph.ops.failed != 20 {
		t.Fatalf("attempted %d failed %d, want 100 and 20", ph.ops.attempted(), ph.ops.failed)
	}
	if ph.mismatch == nil {
		t.Error("the wrong report was not flagged as a mismatch")
	}
	// 20 of 100 operations failed, so p90 lands on a failure: it misses
	// any latency limit.
	if p90, err := percentile(ph.ops.lat, 0.9); err != nil || !math.IsInf(p90, 1) {
		t.Errorf("p90 = %v, %v; want +Inf", p90, err)
	}
	if p50, err := percentile(ph.ops.lat, 0.5); err != nil || p50 != 1 {
		t.Errorf("p50 = %v, %v; want 1ms", p50, err)
	}
	// A connection that never answers is a failure too.
	if err := sendProbe(c, "http://127.0.0.1:1", nil, 650); !errors.As(err, new(*failedOp)) {
		t.Errorf("unreachable daemon: %v, want a failed operation", err)
	}
}

func TestMetricNames(t *testing.T) {
	for _, bad := range []string{"", "a b", "a/b", "_x", "é", string(make([]byte, 65))} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("metric name %q accepted", bad)
				}
			}()
			metrics{}.add(bad, "ms", 1, 1)
		}()
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name string }, want []string) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the benchmark prints %d", len(got), kind, len(want))
		}
		seen := make(map[string]bool)
		for _, m := range got {
			if !metricName.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s metric %q: invalid or repeated name", kind, m.Name)
			}
			seen[m.Name] = true
		}
		for _, n := range want {
			if !seen[n] {
				t.Errorf("the benchmark prints %s metric %q, which BENCHMARK.json does not list", kind, n)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndNames)
	check("per_layer", spec.PerLayer, perLayerNames)
}

// TestSummarizeMediansOverGroups gives one group of five three times
// the latency of the others, as a burst of stolen CPU would: the
// medians over groups stay with the other four, where the pooled p90
// would not.
func TestSummarizeMediansOverGroups(t *testing.T) {
	var lat []float64
	var marks []mark
	for i := 0; i < 500; i++ {
		l := 10 + float64(i%10)
		if i >= 200 && i < 300 {
			l *= 3
		}
		lat = append(lat, l)
		marks = append(marks, mark{at: time.Duration(i+1) * time.Second, tasks: int64(i+1) * 1000,
			cpu: time.Duration(i+1) * time.Millisecond})
	}
	s, err := summarize(lat, marks, mark{})
	if err != nil {
		t.Fatal(err)
	}
	if s.groups != 5 || s.p50 != 14 || s.p90 != 18 || s.rate != 1000 || s.cpuPerTask != 1000 {
		t.Errorf("summary %+v, want 5 groups, p50 14, p90 18, 1000 tasks/s, 1000 ns/task", s)
	}
	if pooled, _ := percentile(lat, 0.9); pooled < 30 {
		t.Errorf("pooled p90 %v: the burst should reach it", pooled)
	}
	// Fewer than one group's worth: a single group, still under the
	// percentile rule.
	if _, err := summarize(lat[:99], marks[:99], mark{}); err != nil {
		t.Errorf("p50 of 99 operations refused: %v", err)
	}
}

// TestHistogramDelta checks the /metrics delta arithmetic the ledger
// rests on, against a registry observed between two snapshots.
func TestHistogramDelta(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.NewHistogram("x_seconds", "", map[string]string{"k": "v"}, []float64{0.001, 0.01, 0.1})
	h.Observe(0.5)
	before := newSnapshot(reg.Snapshot())
	for i := 0; i < 90; i++ {
		h.Observe(0.005)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.05)
	}
	d := before.delta(newSnapshot(reg.Snapshot()), "x_seconds", map[string]string{"k": "v"})
	if d.count != 100 || math.Abs(d.mean()-0.0095) > 1e-12 {
		t.Errorf("delta count %v mean %v, want 100 and 0.0095", d.count, d.mean())
	}
	if q := d.quantile(0.9); math.Abs(q-0.01) > 1e-12 {
		t.Errorf("p90 %v, want the 0.01 bucket edge", q)
	}
	if q := d.quantile(0.95); math.Abs(q-0.055) > 1e-12 {
		t.Errorf("p95 %v, want 0.055 (halfway into the 0.01-0.1 bucket)", q)
	}
}
