// Session observability: the joss_service_* and joss_http_* metric
// families, registered on the session's obs.Registry at New (unless
// Config.DisableMetrics) alongside the dispatcher's and job journal's
// families. Job-path hooks are atomics only; the HTTP middleware's
// per-request wrapper allocates, but the HTTP layer is not a warm
// path — the alloc-gated benchmarks drive Sessions directly.
package service

import (
	"net/http"
	"strings"
	"time"

	"joss/internal/obs"
)

// httpEndpoints are the label values per-endpoint HTTP metrics are
// pre-registered under; requests elsewhere fold into "other" so label
// cardinality stays fixed no matter what clients probe.
var httpEndpoints = []string{
	"/sweep", "/run", "/jobs", "/jobs/{id}", "/healthz", "/metrics", "other",
}

// httpCodeClasses are the response-code classes request counters are
// split by.
var httpCodeClasses = []string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// endpointMetrics is one endpoint's pre-registered series.
type endpointMetrics struct {
	latency *obs.Histogram
	codes   map[string]*obs.Counter // code class → counter
}

// sessionMetrics is the service layer's metric set. Nil on sessions
// built with Config.DisableMetrics; every hook nil-checks.
type sessionMetrics struct {
	jobsCompleted *obs.Counter
	jobsCancelled *obs.Counter
	// jobQueueWait observes admission → first unit dispatch per job;
	// jobService first dispatch → completion; cancelLatency Cancel() →
	// drained (how long cooperative cancel took to unwind).
	jobQueueWait  *obs.Histogram
	jobService    *obs.Histogram
	cancelLatency *obs.Histogram
	// planEvals counts §5.2 configuration-search evaluations;
	// planSearch observes the wall time of claims that performed at
	// least one evaluation (plan-searching units — cache hits never
	// appear here).
	planEvals  *obs.Counter
	planSearch *obs.Histogram

	endpoints map[string]*endpointMetrics
}

// newSessionMetrics registers the service families on r.
func newSessionMetrics(r *obs.Registry, s *Session) *sessionMetrics {
	m := &sessionMetrics{
		jobsCompleted: r.NewCounter("joss_service_jobs_completed_total", "Jobs that ran to completion.", nil),
		jobsCancelled: r.NewCounter("joss_service_jobs_cancelled_total", "Jobs that finished cancelled.", nil),
		jobQueueWait:  r.NewHistogram("joss_service_job_queue_wait_seconds", "Per-job wait from admission to first unit dispatch.", nil, nil),
		jobService:    r.NewHistogram("joss_service_job_service_seconds", "Per-job first unit dispatch to completion.", nil, nil),
		cancelLatency: r.NewHistogram("joss_service_cancel_seconds", "Cancel call to job drained.", nil, nil),
		planEvals:     r.NewCounter("joss_service_plan_evals_total", "Plan-search configuration evaluations.", nil),
		planSearch:    r.NewHistogram("joss_service_plan_search_seconds", "Wall time of claims that performed plan-search evaluations.", nil, nil),
		endpoints:     make(map[string]*endpointMetrics, len(httpEndpoints)),
	}
	for _, ep := range httpEndpoints {
		em := &endpointMetrics{
			latency: r.NewHistogram("joss_http_request_seconds", "HTTP request latency.", map[string]string{"endpoint": ep}, nil),
			codes:   make(map[string]*obs.Counter, len(httpCodeClasses)),
		}
		for _, cc := range httpCodeClasses {
			em.codes[cc] = r.NewCounter("joss_http_requests_total", "HTTP requests by endpoint and response-code class.",
				map[string]string{"endpoint": ep, "code": cc})
		}
		m.endpoints[ep] = em
	}
	r.NewGaugeFunc("joss_service_plans_cached", "Plans resident in the session cache.", nil, func() float64 {
		return float64(s.Plans().Len())
	})
	r.NewGaugeFunc("joss_service_requests", "Requests completed since startup.", nil, func() float64 {
		return float64(s.Requests())
	})
	r.NewGaugeFunc("joss_service_uptime_seconds", "Seconds since the session was built.", nil, func() float64 {
		return time.Since(s.epoch).Seconds()
	})
	r.NewRuntimeHistogram("joss_go_sched_latency_seconds",
		"Go scheduler latency: time goroutines spent runnable before running (process-wide, runtime-sampled, read at scrape).",
		"/sched/latencies:seconds", schedLatencyBuckets)
	return m
}

// schedLatencyBuckets is the joss_go_sched_latency_seconds layout:
// 1 µs to 1 s in 1-2.5-5 steps. A goroutine on an idle processor runs
// within microseconds; one waiting out the runtime's 10 ms forced
// preemption behind a CPU-bound worker lands in the 10-25 ms bucket.
var schedLatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
}

// endpointLabel folds a request path into its pre-registered label.
func endpointLabel(path string) string {
	switch path {
	case "/sweep", "/run", "/jobs", "/healthz", "/metrics":
		return path
	}
	if strings.HasPrefix(path, "/jobs/") {
		return "/jobs/{id}"
	}
	return "other"
}

// codeClass folds an HTTP status code into its class label.
func codeClass(code int) string {
	switch code / 100 {
	case 1:
		return "1xx"
	case 2:
		return "2xx"
	case 3:
		return "3xx"
	case 5:
		return "5xx"
	default:
		return "4xx"
	}
}

// statusWriter captures the response code for the middleware. It
// passes Flush through so the NDJSON stream endpoints keep flushing
// per frame.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrumentHTTP wraps next with per-endpoint request counting and
// latency observation. A nil metric set returns next unchanged.
func (m *sessionMetrics) instrumentHTTP(next http.Handler) http.Handler {
	if m == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		em := m.endpoints[endpointLabel(r.URL.Path)]
		em.latency.Observe(time.Since(start).Seconds())
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		em.codes[codeClass(code)].Inc()
	})
}
