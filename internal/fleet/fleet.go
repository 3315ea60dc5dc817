// Package fleet shards one sweep across several jossd daemons and
// merges the result byte-identically to a single daemon's /sweep
// response. Robustness is the core of the design, not an afterthought:
// a fleet that cannot survive a dead, draining or overloaded shard is
// slower than one daemon.
//
// Routing: cells are assigned to shards by kernel identity — the
// benchmark (workload) name, which determines the DAG's kernel set —
// on a consistent hash ring, so repeated sweeps keep each daemon's
// plan cache warm for exactly the kernels it serves, and adding or
// removing a shard only moves the benchmarks that hashed to it. All
// repeats of a cell run on one shard (the shard merges them in repeat
// order exactly as a single daemon would), so per-cell reports never
// depend on how the fleet split the work.
//
// Wire format: each shard serves its cells via the existing NDJSON
// `POST /sweep?stream=1` — one frame per completed cell, then a done
// frame with the shard's totals. The coordinator merges cell frames
// into one report map, deduplicating by cell identity (first frame
// wins; a late duplicate from a shard presumed dead is dropped), which
// is what keeps the merged reports byte-identical even through
// failover.
//
// Failure handling, in increasing severity:
//
//   - 429 (admission refused) and 503 (draining): the shard is alive
//     but not accepting. Its cells spill over to the next hash-ring
//     candidate — the least-loaded healthy shard when heartbeats have
//     reported load, ring-successor order breaking ties. Only when no
//     other shard is available does the coordinator go back to the
//     refusing shard, after a backoff honouring its Retry-After.
//   - Transport errors, unexpected 5xx, stalled or truncated streams:
//     the shard is treated as failed for this sweep. Its *unfinished*
//     cells (frames already merged are kept) are reassigned to
//     surviving shards, the failure counts toward the shard's health
//     threshold, and the shard is excluded from serving those cells
//     again. Reassignment is bounded by Config.MaxReassignments per
//     cell chain; the sweep degrades gracefully down to one survivor.
//   - Permanent 4xx protocol errors abort the sweep: a request the
//     daemon rejects as malformed will be rejected by every daemon.
//
// Health: a background heartbeat polls every shard's /healthz each
// HeartbeatPeriod; Config.FailureThreshold consecutive failures mark a
// shard unhealthy (skipped by routing until a probe succeeds again),
// and the reported inflight_units/queued_units feed the load-aware
// candidate choice.
//
// Every sweep returns a Degradation report — which shards failed, how
// many cells were reassigned or spilled, duplicate frames dropped,
// surviving shards — so "the fleet coped" is observable, not silent.
package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"joss/internal/obs"
	"joss/internal/service"
	"joss/internal/workloads"
)

// Config assembles a Coordinator. Shards is required; everything else
// defaults sensibly.
type Config struct {
	// Shards are the daemon targets (http://host:port or unix://PATH),
	// in a stable order — the ring hashes the target strings, so
	// reordering this list does not reshuffle cell placement.
	Shards []string
	// RequestTimeout bounds each non-streaming request (heartbeats);
	// default 5s.
	RequestTimeout time.Duration
	// StreamStallTimeout bounds the silence between stream frames (and
	// the wait for the response header) before a shard is declared
	// stalled; default 5m — it bounds a hung shard, not a slow sweep,
	// since every completed cell resets it.
	StreamStallTimeout time.Duration
	// HeartbeatPeriod is the /healthz polling cadence; default 2s,
	// negative disables heartbeats (health then changes only on sweep
	// failures).
	HeartbeatPeriod time.Duration
	// FailureThreshold is the consecutive heartbeat/stream failures
	// after which a shard is marked unhealthy; default 3.
	FailureThreshold int
	// MaxReassignments bounds how many times one cell may be
	// re-dispatched after its first assignment; default 2×len(Shards).
	MaxReassignments int
	// Replicas is the virtual-node count per shard on the hash ring;
	// default 64.
	Replicas int
	// OnCellMerged, when non-nil, observes each cell merged into the
	// result (progress reporting; also the hook fault drills use to
	// time their kills). Called from sweep goroutines.
	OnCellMerged func(bench, sched, shard string)
	// Logf, when non-nil, receives human-readable failover narration
	// (jossrun points it at stderr).
	Logf func(format string, args ...any)
}

// ShardHealth is one shard's health snapshot.
type ShardHealth struct {
	Target              string `json:"target"`
	Healthy             bool   `json:"healthy"`
	Draining            bool   `json:"draining"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	InflightUnits       int    `json:"inflight_units"`
	QueuedUnits         int    `json:"queued_units"`
	// PlansTrained/Training pass through the shard's /healthz training
	// telemetry: resident plans and in-flight training claims. A
	// Warmup() caller can watch them converge across the fleet.
	PlansTrained int `json:"plans_trained"`
	Training     int `json:"training"`
	// UptimeSec, Workers, GOMAXPROCS, Version and Commit pass through
	// the shard's build and capacity identity from /healthz — a fleet
	// operator can spot a freshly restarted shard (uptime reset), a
	// misconfigured one (wrong worker count, or no processor left free
	// for serving: GOMAXPROCS <= Workers) or a stray dev binary
	// (version "dev") from one Health() snapshot.
	UptimeSec  float64 `json:"uptime_sec"`
	Workers    int     `json:"workers"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Version    string  `json:"version,omitempty"`
	Commit     string  `json:"commit,omitempty"`
}

// ShardFailure is one shard's failure within a sweep.
type ShardFailure struct {
	Shard string `json:"shard"`
	// Reason is the human-readable cause (transport error, stalled
	// stream, unexpected status).
	Reason string `json:"reason"`
	// CellsLost counts the unfinished cells reassigned away from the
	// shard (cells it completed before failing are kept).
	CellsLost int `json:"cells_lost"`
}

// Degradation is the structured account of everything a sweep had to
// survive. A fully healthy sweep has Degraded == false and zero
// counters.
type Degradation struct {
	Degraded bool `json:"degraded"`
	// FailedShards lists shards that died mid-sweep (one entry per
	// failure event, in failure order).
	FailedShards []ShardFailure `json:"failed_shards,omitempty"`
	// ReassignedCells counts cells re-dispatched after a shard
	// failure; SpilloverCells counts cells rerouted on a 429/503
	// refusal before any work was lost.
	ReassignedCells int `json:"reassigned_cells,omitempty"`
	SpilloverCells  int `json:"spillover_cells,omitempty"`
	// Retries counts dispatch attempts beyond each cell group's first.
	Retries int `json:"retries,omitempty"`
	// DuplicateFrames counts late frames dropped by cell-identity
	// dedup (a shard presumed dead delivering after reassignment).
	DuplicateFrames int `json:"duplicate_frames_dropped,omitempty"`
	// LostCells lists "bench/sched" cells no shard could serve — only
	// non-empty when Sweep also returns a *DegradedError.
	LostCells []string `json:"lost_cells,omitempty"`
	// Survivors are the shards healthy when the sweep finished.
	Survivors []string `json:"survivors,omitempty"`
}

// DegradedError reports a sweep that could not be completed: after
// exhausting failover, some cells remain unserved. It is a transient
// condition (shards may recover), so jossrun maps it to the retriable
// exit code.
type DegradedError struct {
	Deg Degradation
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("fleet: sweep incomplete: %d cells unserved after %d shard failures (lost: %s)",
		len(e.Deg.LostCells), len(e.Deg.FailedShards), strings.Join(e.Deg.LostCells, ", "))
}

// shard is one daemon plus its tracked health.
type shard struct {
	target string
	client *Client

	mu       sync.Mutex
	healthy  bool
	fails    int // consecutive failures
	draining bool
	inflight int
	queued   int
	plans    int // plans_trained from the last beat
	training int // in-flight training claims from the last beat
	uptime   float64
	workers  int
	procs    int
	version  string
	commit   string
}

// usable reports whether routing should offer the shard new cells.
func (sh *shard) usable() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.healthy && !sh.draining
}

// load is the shard's last-reported queue depth (0 before any beat).
func (sh *shard) load() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.inflight + sh.queued
}

// noteFail counts one failure toward the unhealthy threshold.
func (sh *shard) noteFail(threshold int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.fails++
	if sh.fails >= threshold {
		sh.healthy = false
	}
}

// noteDraining marks a shard that answered 503: it is alive but going
// away; routing skips it until a heartbeat reports otherwise.
func (sh *shard) noteDraining() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.draining = true
}

type wireHealth struct {
	Draining      bool    `json:"draining"`
	InflightUnits int     `json:"inflight_units"`
	QueuedUnits   int     `json:"queued_units"`
	PlansTrained  int     `json:"plans_trained"`
	Training      int     `json:"training"`
	UptimeSec     float64 `json:"uptime_sec"`
	Workers       int     `json:"workers"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Version       string  `json:"version"`
	Commit        string  `json:"commit"`
}

// noteBeat records a successful health probe.
func (sh *shard) noteBeat(h wireHealth) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.fails = 0
	sh.healthy = true
	sh.draining = h.Draining
	sh.inflight = h.InflightUnits
	sh.queued = h.QueuedUnits
	sh.plans = h.PlansTrained
	sh.training = h.Training
	sh.uptime = h.UptimeSec
	sh.workers = h.Workers
	sh.procs = h.GOMAXPROCS
	sh.version = h.Version
	sh.commit = h.Commit
}

func (sh *shard) snapshot() ShardHealth {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return ShardHealth{
		Target:              sh.target,
		Healthy:             sh.healthy,
		Draining:            sh.draining,
		ConsecutiveFailures: sh.fails,
		InflightUnits:       sh.inflight,
		QueuedUnits:         sh.queued,
		PlansTrained:        sh.plans,
		Training:            sh.training,
		UptimeSec:           sh.uptime,
		Workers:             sh.workers,
		GOMAXPROCS:          sh.procs,
		Version:             sh.version,
		Commit:              sh.commit,
	}
}

// Coordinator shards sweeps across a fleet of daemons.
type Coordinator struct {
	cfg     Config
	shards  []*shard
	ring    *ring
	reg     *obs.Registry
	metrics *coordMetrics

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a coordinator over the configured shards and starts the
// heartbeat loops. Shards start optimistically healthy — a dead shard
// is discovered by its first heartbeat or sweep failure, and failover
// handles it either way. Close the coordinator to stop the loops.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("fleet: Config.Shards must name at least one daemon")
	}
	seen := make(map[string]bool, len(cfg.Shards))
	for _, t := range cfg.Shards {
		if seen[t] {
			return nil, fmt.Errorf("fleet: duplicate shard target %q", t)
		}
		seen[t] = true
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.StreamStallTimeout <= 0 {
		cfg.StreamStallTimeout = 5 * time.Minute
	}
	if cfg.HeartbeatPeriod == 0 {
		cfg.HeartbeatPeriod = 2 * time.Second
	}
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 3
	}
	if cfg.MaxReassignments <= 0 {
		cfg.MaxReassignments = 2 * len(cfg.Shards)
	}
	c := &Coordinator{cfg: cfg, ring: newRing(cfg.Shards, cfg.Replicas), stop: make(chan struct{})}
	c.reg = obs.NewRegistry()
	c.metrics = newCoordMetrics(c.reg, cfg.Shards)
	for _, t := range cfg.Shards {
		cl, err := NewClient(t, 0) // the coordinator reroutes instead of same-shard retrying
		if err != nil {
			return nil, err
		}
		c.shards = append(c.shards, &shard{target: t, client: cl, healthy: true})
	}
	if cfg.HeartbeatPeriod > 0 {
		for _, sh := range c.shards {
			c.wg.Add(1)
			go c.heartbeatLoop(sh)
		}
	}
	return c, nil
}

// Close stops the heartbeat loops. In-flight Sweeps are unaffected.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// Metrics is the coordinator's joss_fleet_* registry: per-shard
// heartbeat RTT and failure counts plus per-sweep degradation tallies.
// jossrun renders it after a fleet sweep alongside the shards' own
// scraped families.
func (c *Coordinator) Metrics() *obs.Registry {
	return c.reg
}

// Health snapshots every shard's tracked state, in Config.Shards order.
func (c *Coordinator) Health() []ShardHealth {
	out := make([]ShardHealth, len(c.shards))
	for i, sh := range c.shards {
		out[i] = sh.snapshot()
	}
	return out
}

func (c *Coordinator) heartbeatLoop(sh *shard) {
	defer c.wg.Done()
	c.beat(sh) // immediate first probe so Health() is meaningful early
	t := time.NewTicker(c.cfg.HeartbeatPeriod)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.beat(sh)
		}
	}
}

func (c *Coordinator) beat(sh *shard) {
	sm := c.metrics.perShard[sh.target]
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.RequestTimeout)
	defer cancel()
	start := time.Now()
	resp, err := sh.client.Do(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		sm.beatFailures.Inc()
		sh.noteFail(c.cfg.FailureThreshold)
		return
	}
	defer resp.Body.Close()
	var h wireHealth
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&h) != nil {
		sm.beatFailures.Inc()
		sh.noteFail(c.cfg.FailureThreshold)
		return
	}
	// RTT includes reading and decoding the body — the probe's full
	// round trip as routing experiences it, not just the TCP echo.
	sm.beatRTT.Observe(time.Since(start).Seconds())
	sh.noteBeat(h)
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// mergeSink accumulates cell reports with first-wins dedup by cell
// identity.
type mergeSink struct {
	mu      sync.Mutex
	reports map[string]map[string]service.WireReport
	dups    int
}

func newMergeSink() *mergeSink {
	return &mergeSink{reports: make(map[string]map[string]service.WireReport)}
}

// add merges one cell report, reporting whether it was new (false = a
// duplicate frame, dropped).
func (m *mergeSink) add(bench, sched string, rep service.WireReport) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.reports[bench][sched]; dup {
		m.dups++
		return false
	}
	if m.reports[bench] == nil {
		m.reports[bench] = make(map[string]service.WireReport)
	}
	m.reports[bench][sched] = rep
	return true
}

// missing returns bench → the scheds of benches×scheds not yet merged,
// preserving the request's ordering.
func (m *mergeSink) missing(benches, scheds []string) map[string][]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string][]string)
	for _, b := range benches {
		for _, s := range scheds {
			if _, ok := m.reports[b][s]; !ok {
				out[b] = append(out[b], s)
			}
		}
	}
	return out
}

// assignment is one batch of cells bound for one shard: the benches ×
// scheds cross product, plus the failover bookkeeping of the chain
// that led here.
type assignment struct {
	benches []string
	scheds  []string
	// preferred is the shard to try (-1 = pick by ring + load).
	preferred int
	// attempt is the re-dispatch count of this cell chain (0 = first).
	attempt int
	// failed are shards that died serving these cells — never retried.
	failed map[int]bool
	// avoid is the shard that just refused with 429/503 (skipped unless
	// it is the only option left, and then only after a backoff
	// honouring retryAfter).
	avoid      int
	retryAfter string
}

func (a assignment) cellCount() int { return len(a.benches) * len(a.scheds) }

// sweepState is the shared bookkeeping of one Sweep call.
type sweepState struct {
	c    *Coordinator
	tmpl service.WireSweepRequest
	sink *mergeSink
	wg   sync.WaitGroup

	mu          sync.Mutex
	deg         Degradation
	fatal       error
	planEvals   int
	workers     int
	plansCached int
}

func (st *sweepState) aborted() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.fatal != nil
}

func (st *sweepState) setFatal(err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.fatal == nil {
		st.fatal = err
	}
}

func (st *sweepState) launch(a assignment) {
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		st.run(a)
	}()
}

// Sweep shards the request's cells across the fleet and merges the
// per-cell reports. The merged Reports map is byte-identical (as JSON)
// to a single daemon's /sweep response for the same request; the
// telemetry fields are fleet aggregates (PlanEvals/Workers summed over
// contributing shards, UnitsDone derived from the merged cells so work
// a dead shard delivered still counts, PlansCached the maximum,
// ElapsedSec the coordinator's wall clock). The Degradation report is always
// returned; the error is non-nil only when cells remained unserved
// after exhausting failover (*DegradedError) or a shard rejected the
// request as malformed (permanent, not retriable).
func (c *Coordinator) Sweep(req service.WireSweepRequest) (service.WireSweepResult, Degradation, error) {
	start := time.Now()
	benches := req.Benchmarks
	if len(benches) == 0 {
		for _, wl := range workloads.Fig8Configs() {
			benches = append(benches, wl.Name)
		}
	}
	scheds := req.Schedulers
	if len(scheds) == 0 {
		scheds = service.SchedulerNames
	}
	repeats := req.Repeats
	if repeats == 0 {
		repeats = 1
	}

	st := &sweepState{c: c, tmpl: req, sink: newMergeSink()}

	// Initial placement: each bench goes to its ring owner (or the
	// owner's first usable successor), all scheds of a bench together.
	byShard := make(map[int][]string)
	var cands []int
	for _, b := range benches {
		cands = c.ring.candidates(b, cands[:0])
		target := cands[0]
		for _, si := range cands {
			if c.shards[si].usable() {
				target = si
				break
			}
		}
		byShard[target] = append(byShard[target], b)
	}
	order := make([]int, 0, len(byShard))
	for si := range byShard {
		order = append(order, si)
	}
	sort.Ints(order)
	for _, si := range order {
		st.launch(assignment{benches: byShard[si], scheds: scheds, preferred: si, avoid: -1})
	}
	st.wg.Wait()

	st.mu.Lock()
	deg := st.deg
	fatal := st.fatal
	res := service.WireSweepResult{
		Reports:     st.sink.reports,
		PlanEvals:   st.planEvals,
		Units:       len(benches) * len(scheds) * repeats,
		Workers:     st.workers,
		PlansCached: st.plansCached,
		ElapsedSec:  time.Since(start).Seconds(),
	}
	st.mu.Unlock()

	st.sink.mu.Lock()
	deg.DuplicateFrames = st.sink.dups
	// UnitsDone derives from the merged cells (a cell frame arrives
	// once all its repeats ran), not from shard done frames: a shard
	// killed after serving a cell delivered real work that must count
	// even though its own totals never arrived.
	merged := 0
	for _, m := range st.sink.reports {
		merged += len(m)
	}
	res.UnitsDone = merged * repeats
	st.sink.mu.Unlock()
	for _, b := range benches {
		for _, s := range scheds {
			if _, ok := res.Reports[b][s]; !ok {
				deg.LostCells = append(deg.LostCells, b+"/"+s)
			}
		}
	}
	for _, sh := range c.shards {
		if sh.usable() {
			deg.Survivors = append(deg.Survivors, sh.target)
		}
	}
	deg.Degraded = len(deg.FailedShards) > 0 || deg.ReassignedCells > 0 ||
		deg.SpilloverCells > 0 || deg.DuplicateFrames > 0 || len(deg.LostCells) > 0
	c.metrics.noteSweep(deg)

	if fatal != nil {
		return res, deg, fatal
	}
	if len(deg.LostCells) > 0 {
		return res, deg, &DegradedError{Deg: deg}
	}
	return res, deg, nil
}

// pickTarget chooses the shard for an assignment: the preferred shard
// when still viable, else the least-loaded usable ring candidate of
// the batch's first bench (ring-successor order breaking load ties —
// an idle fleet therefore spills to the next ring candidate). When
// only refused or unhealthy shards remain it degrades in that order:
// the avoid shard (caller backs off first), then any non-failed shard
// (health info may be stale). Returns -1 when every shard has failed.
func (st *sweepState) pickTarget(a assignment) int {
	c := st.c
	if a.preferred >= 0 && a.preferred != a.avoid && !a.failed[a.preferred] && c.shards[a.preferred].usable() {
		return a.preferred
	}
	cands := c.ring.candidates(a.benches[0], nil)
	best := -1
	for _, si := range cands {
		if a.failed[si] || si == a.avoid || !c.shards[si].usable() {
			continue
		}
		if best == -1 || c.shards[si].load() < c.shards[best].load() {
			best = si
		}
	}
	if best >= 0 {
		return best
	}
	if a.avoid >= 0 && !a.failed[a.avoid] {
		return a.avoid
	}
	for _, si := range cands {
		if !a.failed[si] {
			return si
		}
	}
	return -1
}

// requeue re-dispatches the not-yet-merged cells of a failed or
// refused assignment, grouped so each new assignment is a clean
// benches × scheds cross product.
func (st *sweepState) requeue(a assignment, missing map[string][]string, reassigned bool) {
	if len(missing) == 0 {
		return
	}
	cells := 0
	groups := make(map[string][]string) // sched-signature → benches
	sig := make(map[string][]string)
	for b, ss := range missing {
		cells += len(ss)
		k := strings.Join(ss, ",")
		groups[k] = append(groups[k], b)
		sig[k] = ss
	}
	st.mu.Lock()
	if reassigned {
		st.deg.ReassignedCells += cells
	} else {
		st.deg.SpilloverCells += cells
	}
	st.deg.Retries += len(groups)
	st.mu.Unlock()

	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		bs := groups[k]
		sort.Strings(bs)
		st.launch(assignment{
			benches:    bs,
			scheds:     sig[k],
			preferred:  -1,
			attempt:    a.attempt + 1,
			failed:     a.failed,
			avoid:      a.avoid,
			retryAfter: a.retryAfter,
		})
	}
}

// lost records cells no shard could serve; Sweep reports them in the
// degradation report and returns a *DegradedError.
func (st *sweepState) lost(a assignment, reason string) {
	st.c.logf("fleet: giving up on %d cells (%s)", a.cellCount(), reason)
}

// shardFailed records a failure event, bumps the shard's health
// counter and hands the unfinished cells to failover.
func (st *sweepState) shardFailed(a assignment, target int, reason string) {
	sh := st.c.shards[target]
	sh.noteFail(st.c.cfg.FailureThreshold)
	missing := st.sink.missing(a.benches, a.scheds)
	cells := 0
	for _, ss := range missing {
		cells += len(ss)
	}
	st.mu.Lock()
	st.deg.FailedShards = append(st.deg.FailedShards, ShardFailure{
		Shard: sh.target, Reason: reason, CellsLost: cells,
	})
	st.mu.Unlock()
	st.c.logf("fleet: shard %s failed (%s); reassigning %d unfinished cells", sh.target, reason, cells)
	if cells == 0 {
		return
	}
	failed := make(map[int]bool, len(a.failed)+1)
	for k := range a.failed {
		failed[k] = true
	}
	failed[target] = true
	a.failed = failed
	if a.attempt+1 > st.c.cfg.MaxReassignments {
		st.lost(a, "reassignment bound reached")
		return
	}
	st.requeue(a, missing, true)
}

// run dispatches one assignment to a shard and merges its stream,
// branching into spillover or failover on failure.
func (st *sweepState) run(a assignment) {
	if st.aborted() {
		return
	}
	if a.attempt > st.c.cfg.MaxReassignments {
		st.lost(a, "reassignment bound reached")
		return
	}
	target := st.pickTarget(a)
	if target < 0 {
		st.lost(a, "no shard left to serve them")
		return
	}
	if target == a.avoid {
		// Forced back to the shard that just refused: honour its
		// Retry-After (or back off) before knocking again.
		time.Sleep(retryDelay(a.attempt, a.retryAfter))
	}
	sh := st.c.shards[target]

	wr := st.tmpl // copy; per-assignment cell lists
	wr.Benchmarks = a.benches
	wr.Schedulers = a.scheds
	body, err := json.Marshal(wr)
	if err != nil {
		st.setFatal(fmt.Errorf("fleet: encoding shard request: %w", err))
		return
	}

	// The stall watchdog cancels the request when the shard goes
	// silent — it covers the wait for response headers and the gap
	// between frames (each frame rearms it).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stalled bool
	var stalledMu sync.Mutex
	watchdog := time.AfterFunc(st.c.cfg.StreamStallTimeout, func() {
		stalledMu.Lock()
		stalled = true
		stalledMu.Unlock()
		cancel()
	})
	defer watchdog.Stop()

	resp, err := sh.client.Do(ctx, http.MethodPost, "/sweep?stream=1", body)
	if err != nil {
		var te *TransientError
		if asTransient(err, &te) && (te.Code == http.StatusTooManyRequests || te.Code == http.StatusServiceUnavailable) {
			// The shard is alive but refusing admission; spill the cells
			// to the next candidate without penalising its health.
			if te.Code == http.StatusServiceUnavailable {
				sh.noteDraining()
			}
			st.c.logf("fleet: shard %s refused (%d); spilling %d cells over", sh.target, te.Code, a.cellCount())
			a.avoid, a.retryAfter = target, te.RetryAfter
			if a.attempt+1 > st.c.cfg.MaxReassignments {
				st.lost(a, "reassignment bound reached")
				return
			}
			st.requeue(a, st.sink.missing(a.benches, a.scheds), false)
			return
		}
		st.shardFailed(a, target, err.Error())
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Permanent protocol refusal: every shard would reject this
		// request the same way, so abort the sweep instead of bouncing
		// the cells around the ring.
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		if e.Error == "" {
			e.Error = resp.Status
		}
		st.setFatal(fmt.Errorf("fleet: shard %s rejected the request: %s", sh.target, e.Error))
		return
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024) // the done frame carries the shard's full result
	var done *service.WireSweepResult
	for done == nil && sc.Scan() {
		watchdog.Reset(st.c.cfg.StreamStallTimeout)
		var f service.WireStreamFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			break // corrupt frame: fall through to the failure path
		}
		switch f.Type {
		case "cell":
			if f.Report == nil {
				continue
			}
			if st.sink.add(f.Bench, f.Sched, *f.Report) {
				if st.c.cfg.OnCellMerged != nil {
					st.c.cfg.OnCellMerged(f.Bench, f.Sched, sh.target)
				}
			}
		case "done":
			done = f.Result
		}
	}
	if done == nil {
		stalledMu.Lock()
		wasStalled := stalled
		stalledMu.Unlock()
		reason := "stream ended without a done frame"
		if wasStalled {
			reason = fmt.Sprintf("stream stalled (no frame for %v)", st.c.cfg.StreamStallTimeout)
		} else if err := sc.Err(); err != nil {
			reason = fmt.Sprintf("stream broke: %v", err)
		}
		st.shardFailed(a, target, reason)
		return
	}

	st.mu.Lock()
	st.planEvals += done.PlanEvals
	st.workers += done.Workers
	if done.PlansCached > st.plansCached {
		st.plansCached = done.PlansCached
	}
	st.mu.Unlock()

	// A done frame normally means every requested cell arrived; a
	// shard that cancelled mid-job can under-deliver, and those cells
	// go back to failover like any other loss.
	if missing := st.sink.missing(a.benches, a.scheds); len(missing) > 0 {
		st.shardFailed(a, target, "done frame with missing cells")
	}
}

// asTransient is errors.As specialised to *TransientError without
// importing errors for one call site.
func asTransient(err error, out **TransientError) bool {
	te, ok := err.(*TransientError)
	if ok {
		*out = te
	}
	return ok
}
