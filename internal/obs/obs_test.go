package obs

import (
	"bytes"
	"math"
	"reflect"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
)

// TestRegistryStorm hammers one counter, one gauge and one histogram
// from many goroutines while a scraper snapshots concurrently, then
// checks the serialized totals. Run under -race in make chaos.
func TestRegistryStorm(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("storm_total", "", nil)
	g := r.NewGauge("storm_level", "", nil)
	h := r.NewHistogram("storm_seconds", "", nil, DefBuckets)

	const goroutines = 16
	const perG = 5000
	stop := make(chan struct{})
	var scr sync.WaitGroup
	scr.Add(1)
	go func() {
		defer scr.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
			r.Snapshot()
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Inc()
				g.Dec()
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	close(stop)
	scr.Wait()

	if got, want := c.Value(), int64(goroutines*perG); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got, want := h.Count(), int64(goroutines*perG); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	if got, want := h.Sum(), float64(goroutines*perG)*0.001; math.Abs(got-want) > want*1e-9 {
		t.Errorf("histogram sum = %g, want %g", got, want)
	}
}

// TestHistogramBuckets table-tests the boundary semantics: upper edges
// are inclusive, values above the last bound land in +Inf.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("b_seconds", "", nil, []float64{0.001, 0.01, 0.1})
	cases := []struct {
		v      float64
		bucket int // index into counts (3 = +Inf)
	}{
		{0, 0},
		{0.0005, 0},
		{0.001, 0}, // inclusive upper edge
		{0.0010001, 1},
		{0.01, 1},
		{0.05, 2},
		{0.1, 2},
		{0.2, 3},
		{1e9, 3},
	}
	want := make([]int64, 4)
	for _, c := range cases {
		h.Observe(c.v)
		want[c.bucket]++
	}
	_, counts := h.Buckets()
	for i := range counts {
		if counts[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, counts[i], want[i])
		}
	}
	if got, want := h.Count(), int64(len(cases)); got != want {
		t.Errorf("count = %d, want %d", got, want)
	}
}

// TestDefBucketsAscending guards the default layout.
func TestDefBucketsAscending(t *testing.T) {
	for i := 1; i < len(DefBuckets); i++ {
		if DefBuckets[i] <= DefBuckets[i-1] {
			t.Fatalf("DefBuckets not ascending at %d: %g <= %g", i, DefBuckets[i], DefBuckets[i-1])
		}
	}
}

// TestPrometheusExpositionGolden pins the exact text format: HELP/TYPE
// headers, sorted escaped labels, cumulative buckets, sum/count.
func TestPrometheusExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("joss_requests_total", "Requests served.", map[string]string{"endpoint": "/sweep", "code": "2xx"})
	c.Add(7)
	g := r.NewGauge("joss_workers_busy", "Busy workers.", nil)
	g.Set(3)
	r.NewGaugeFunc("joss_plans_cached", "Cached plans.", nil, func() float64 { return 42 })
	h := r.NewHistogram("joss_wait_seconds", "Queue wait.", map[string]string{"q": `a"b\c`}, []float64{0.01, 0.5})
	h.Observe(0.005)
	h.Observe(0.005)
	h.Observe(0.25)
	h.Observe(2)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# HELP joss_requests_total Requests served.`,
		`# TYPE joss_requests_total counter`,
		`joss_requests_total{code="2xx",endpoint="/sweep"} 7`,
		`# HELP joss_workers_busy Busy workers.`,
		`# TYPE joss_workers_busy gauge`,
		`joss_workers_busy 3`,
		`# HELP joss_plans_cached Cached plans.`,
		`# TYPE joss_plans_cached gauge`,
		`joss_plans_cached 42`,
		`# HELP joss_wait_seconds Queue wait.`,
		`# TYPE joss_wait_seconds histogram`,
		`joss_wait_seconds_bucket{q="a\"b\\c",le="0.01"} 2`,
		`joss_wait_seconds_bucket{q="a\"b\\c",le="0.5"} 3`,
		`joss_wait_seconds_bucket{q="a\"b\\c",le="+Inf"} 4`,
		`joss_wait_seconds_sum{q="a\"b\\c"} 2.26`,
		`joss_wait_seconds_count{q="a\"b\\c"} 4`,
	}, "\n") + "\n"
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRebucket pins how a runtime histogram folds onto fixed bounds:
// each source bucket lands whole in the first fixed bucket whose upper
// edge holds the source's upper edge, and the sum is the midpoint
// estimate with unbounded buckets taken at their finite edge.
func TestRebucket(t *testing.T) {
	src := &metrics.Float64Histogram{
		Buckets: []float64{math.Inf(-1), 0, 1e-6, 2e-6, 1e-3, 2e-2, math.Inf(1)},
		Counts:  []uint64{1, 5, 1, 2, 3, 4},
	}
	counts, sum := rebucket(src, []float64{1e-6, 1e-3, 0.01})
	if want := []int64{6, 3, 0, 7}; !reflect.DeepEqual(counts, want) {
		t.Errorf("counts = %v, want %v", counts, want)
	}
	want := 1*0.0 + 5*0.5e-6 + 1*1.5e-6 + 2*(1e-3+2e-6)/2 + 3*(1e-3+2e-2)/2 + 4*2e-2
	if math.Abs(sum-want) > 1e-15 {
		t.Errorf("sum = %g, want %g", sum, want)
	}
}

// TestRuntimeHistogram reads the scheduler-latency histogram through a
// registry: it exposes as a histogram on the given bounds, counts are
// non-decreasing across scrapes, and an unknown sample panics at
// registration.
func TestRuntimeHistogram(t *testing.T) {
	r := NewRegistry()
	r.NewRuntimeHistogram("go_sched_seconds", "Scheduler latency.", "/sched/latencies:seconds", []float64{1e-6, 1e-3})
	first := r.Snapshot()[0]
	if first.Type != "histogram" || len(first.Buckets) != 3 || first.Value < 1 {
		t.Fatalf("runtime histogram point = %+v, want 3 buckets and >= 1 observation", first)
	}
	second := r.Snapshot()[0]
	for i := range first.Buckets {
		if second.Buckets[i].Count < first.Buckets[i].Count {
			t.Errorf("bucket %d went backwards: %d -> %d", i, first.Buckets[i].Count, second.Buckets[i].Count)
		}
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE go_sched_seconds histogram\n", `go_sched_seconds_bucket{le="0.001"} `, "go_sched_seconds_count "} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}
	mustPanic(t, "unknown runtime sample", func() {
		r.NewRuntimeHistogram("nope_seconds", "", "/no/such:seconds", nil)
	})
	mustPanic(t, "non-histogram runtime sample", func() {
		r.NewRuntimeHistogram("goroutines", "", "/sched/goroutines:goroutines", nil)
	})
}

// TestJSONRoundTrip checks WriteJSON output parses back with ParseJSON
// and preserves values, labels and buckets.
func TestJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("a_total", "", map[string]string{"k": "v"}).Add(5)
	h := r.NewHistogram("b_seconds", "", nil, []float64{0.1})
	h.Observe(0.05)
	h.Observe(1)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	pts, err := ParseJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	if pts[0].Name != "a_total" || pts[0].Value != 5 || pts[0].Labels["k"] != "v" {
		t.Errorf("counter point = %+v", pts[0])
	}
	hp := pts[1]
	if hp.Type != "histogram" || hp.Value != 2 || hp.Sum != 1.05 {
		t.Errorf("histogram point = %+v", hp)
	}
	if len(hp.Buckets) != 2 || hp.Buckets[0].Count != 1 || hp.Buckets[1].LE != nil || hp.Buckets[1].Count != 2 {
		t.Errorf("buckets = %+v", hp.Buckets)
	}
}

// TestUpdateAllocs asserts the hard bar directly: counter, gauge and
// histogram updates allocate nothing.
func TestUpdateAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "", nil)
	g := r.NewGauge("g", "", nil)
	h := r.NewHistogram("h_seconds", "", nil, nil)
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Add(2) }); n != 0 {
		t.Errorf("Gauge.Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.003) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op", n)
	}
}

// TestRegistrationPanics pins the wiring-bug guards.
func TestRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x_total", "", nil)
	mustPanic(t, "type clash", func() { r.NewGauge("x_total", "", nil) })
	mustPanic(t, "duplicate series", func() { r.NewCounter("x_total", "", nil) })
	mustPanic(t, "bad bounds", func() { r.NewHistogram("y", "", nil, []float64{1, 1}) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	fn()
}
