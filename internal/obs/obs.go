// Package obs is the serving stack's metrics layer: a dependency-free
// registry of counters, gauges and fixed-bucket latency histograms
// whose update paths are single atomic operations — no locks, no
// allocations, safe from any goroutine. Metric handles are created
// once at wiring time (registration takes a mutex and allocates; that
// is the cold path) and then shared; scraping walks the registry under
// the same mutex and reads every series with atomic loads, so a
// snapshot taken while writers storm the registry still sees a
// consistent monotone view of each series.
//
// Runtime-sourced histograms (NewRuntimeHistogram) keep no state of
// their own: a scrape reads the Go runtime's distribution and
// re-buckets it onto fixed bounds.
//
// The exposition side lives in prom.go: WritePrometheus emits the
// Prometheus text format (version 0.0.4) and WriteJSON a structured
// snapshot for programmatic consumers (ParseJSON reads a
// /metrics?format=json response back).
package obs

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. Inc/Add are single
// atomic adds: 0 allocs, no locks.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative deltas are a caller bug; they are applied as-is
// (the registry does not police monotonicity on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous int64 level (e.g. busy workers).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the level by n (use negative n to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-boundary cumulative-bucket histogram in the
// Prometheus style: bounds[i] is the inclusive upper edge of bucket i,
// a final implicit +Inf bucket catches the rest, and sum/count ride
// along. Observe is one linear scan over ≤ ~26 float64 bounds plus two
// atomic adds and a CAS loop for the float sum: 0 allocs, no locks.
type Histogram struct {
	bounds  []float64 // ascending upper edges; +Inf implicit
	counts  []atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value (for latency histograms: seconds).
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	return math.Float64frombits(h.sumBits.Load())
}

// Buckets returns the upper bounds and per-bucket (non-cumulative)
// counts, the final entry being the +Inf bucket. Snapshot only.
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	bounds = h.bounds
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// DefBuckets is the default latency layout: 25 µs to ~105 s in
// alternating ×2/×2.5 steps (1-2.5-5 per decade), wide enough to hold
// both a sub-millisecond scalar unit and a multi-minute sweep.
var DefBuckets = []float64{
	0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001,
	0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// metricKind discriminates exposition behaviour.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGaugeFunc, kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one registered time series: a metric handle plus its
// rendered label string.
type series struct {
	labels string // `k="v",k2="v2"` — sorted, escaped; "" when unlabelled
	lmap   map[string]string
	ctr    *Counter
	gauge  *Gauge
	gfn    func() float64
	hist   *Histogram
	rt     *runtimeHistogram
}

// histData returns a histogram series' bounds, per-bucket counts (the
// final entry the +Inf bucket) and sum, read at call time.
func (s *series) histData() (bounds []float64, counts []int64, sum float64) {
	if s.rt != nil {
		counts, sum = s.rt.read()
		return s.rt.bounds, counts, sum
	}
	bounds, counts = s.hist.Buckets()
	return bounds, counts, s.hist.Sum()
}

// family groups all series that share a metric name (and therefore a
// type and help string).
type family struct {
	name string
	help string
	kind metricKind
	ser  []*series
}

// Registry holds an ordered set of metric families. The zero value is
// not usable; call NewRegistry. All registration methods panic on a
// name reused with a different type/help or a duplicate (name, labels)
// pair — both are wiring bugs, caught at startup.
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	index map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*family)}
}

// renderLabels turns a label map into the canonical sorted
// `k="v",...` form used both for dedup and for exposition.
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += ","
		}
		out += k + `="` + escapeLabel(labels[k]) + `"`
	}
	return out
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}

// register adds one series under name, creating the family on first
// use and validating kind/help/label uniqueness.
func (r *Registry) register(name, help string, kind metricKind, s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.index[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.index[name] = f
		r.fams = append(r.fams, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	for _, prev := range f.ser {
		if prev.labels == s.labels {
			panic(fmt.Sprintf("obs: duplicate series %s{%s}", name, s.labels))
		}
	}
	f.ser = append(f.ser, s)
}

// NewCounter registers and returns a counter series. labels may be nil.
func (r *Registry) NewCounter(name, help string, labels map[string]string) *Counter {
	c := &Counter{}
	r.register(name, help, kindCounter, &series{labels: renderLabels(labels), lmap: labels, ctr: c})
	return c
}

// NewGauge registers and returns a settable gauge series.
func (r *Registry) NewGauge(name, help string, labels map[string]string) *Gauge {
	g := &Gauge{}
	r.register(name, help, kindGauge, &series{labels: renderLabels(labels), lmap: labels, gauge: g})
	return g
}

// NewGaugeFunc registers a gauge whose value is computed at scrape
// time — for levels the owning subsystem already tracks (queue depth,
// cached plans). fn must be safe to call from any goroutine.
func (r *Registry) NewGaugeFunc(name, help string, labels map[string]string, fn func() float64) {
	r.register(name, help, kindGaugeFunc, &series{labels: renderLabels(labels), lmap: labels, gfn: fn})
}

// checkBounds panics unless bounds ascend strictly.
func checkBounds(name string, bounds []float64) {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending at %d", name, i))
		}
	}
}

// NewHistogram registers and returns a histogram series with the given
// ascending upper bounds (nil means DefBuckets). The bounds slice is
// copied.
func (r *Registry) NewHistogram(name, help string, labels map[string]string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	checkBounds(name, bounds)
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.register(name, help, kindHistogram, &series{labels: renderLabels(labels), lmap: labels, hist: h})
	return h
}

// runtimeHistogram is a histogram series backed by a runtime/metrics
// Float64Histogram sample.
type runtimeHistogram struct {
	sample string
	bounds []float64
}

// NewRuntimeHistogram registers a histogram series that reads the
// runtime/metrics Float64Histogram named sample (for example
// "/sched/latencies:seconds") at scrape time and re-buckets it onto the
// given ascending bounds. Nothing is recorded between scrapes, and the
// runtime's own counts are cumulative since process start, so the
// series is as monotone as any other histogram. Panics if the runtime
// does not export sample as a Float64Histogram — a wiring bug.
func (r *Registry) NewRuntimeHistogram(name, help, sample string, bounds []float64) {
	checkBounds(name, bounds)
	found := false
	for _, d := range metrics.All() {
		found = found || d.Name == sample && d.Kind == metrics.KindFloat64Histogram
	}
	if !found {
		panic(fmt.Sprintf("obs: runtime metric %q is not a Float64Histogram", sample))
	}
	rt := &runtimeHistogram{sample: sample, bounds: append([]float64(nil), bounds...)}
	r.register(name, help, kindHistogram, &series{rt: rt})
}

// read samples the runtime histogram and re-buckets it.
func (h *runtimeHistogram) read() (counts []int64, sum float64) {
	smp := []metrics.Sample{{Name: h.sample}}
	metrics.Read(smp)
	return rebucket(smp[0].Value.Float64Histogram(), h.bounds)
}

// rebucket folds a runtime histogram onto fixed upper bounds. Each
// source bucket [lo, hi) lands whole in the first fixed bucket whose
// upper edge is at least hi, so a source bucket straddling a fixed
// edge is counted above it: latency is never under-reported. The
// runtime keeps no sum; it is estimated from bucket midpoints (the
// finite edge for an unbounded bucket), which the runtime's narrow
// sub-buckets keep within a few percent.
func rebucket(src *metrics.Float64Histogram, bounds []float64) (counts []int64, sum float64) {
	counts = make([]int64, len(bounds)+1)
	j := 0
	for i, c := range src.Counts {
		if c == 0 {
			continue
		}
		lo, hi := src.Buckets[i], src.Buckets[i+1]
		for j < len(bounds) && hi > bounds[j] {
			j++
		}
		counts[j] += int64(c)
		mid := lo/2 + hi/2
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		}
		sum += float64(c) * mid
	}
	return counts, sum
}
