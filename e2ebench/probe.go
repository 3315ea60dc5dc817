package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"joss/internal/service"
)

// probeRate is the open-loop probe rate (per second), well below what
// the saturated daemon can absorb.
const probeRate = 20

// probe is the probe-under-sweep workload: a background client streams
// the Figure 8 grid back to back, keeping every worker busy, while an
// open-loop generator posts single-cell SLU × JOSS probes on a fixed
// schedule.
type probe struct {
	o options
	// warmBody is the set-up's grid, under a fixed seed so every run
	// measures the same trained plans; gridBody is the measured stream's.
	warmBody, gridBody []byte
	bodies             [serveSeeds][]byte
	sluTasks           int
	cells              int
	d                  *daemon
	bg, pc             *http.Client
}

func newProbe(o options) (*probe, error) {
	p := &probe{o: o, cells: len(fig8Names()) * len(service.SchedulerNames)}
	wl, _, _ := service.FindWorkload("SLU")
	p.sluTasks = wl.BuildReuse(nil, benchScale).NumTasks()
	grid := func(seed int64) []byte {
		b, _ := json.Marshal(service.WireSweepRequest{Scale: benchScale, Seed: &seed,
			Repeats: 1, Parallel: runtime.NumCPU()})
		return b
	}
	p.warmBody, p.gridBody = grid(0), grid(o.seed)
	for i := range p.bodies {
		s := o.seed*serveSeeds + int64(i)
		p.bodies[i], _ = json.Marshal(service.WireRunRequest{Bench: "SLU", Sched: "JOSS", Scale: benchScale, Seed: &s})
	}
	return p, nil
}

// streamSweep posts the grid with ?stream=1 and reads its NDJSON frames
// to the done frame, calling onCell with each cell frame's task count.
// The done frame must be a complete, uncancelled grid.
func (p *probe) streamSweep(body []byte, onCell func(tasks int)) error {
	resp, err := p.bg.Post(p.d.url+"/sweep?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return &failedOp{msg: err.Error()}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &failedOp{code: resp.StatusCode, msg: "streamed sweep refused"}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	cells := 0
	for sc.Scan() {
		var f service.WireStreamFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return fmt.Errorf("decoding a stream frame: %w", err)
		}
		switch f.Type {
		case "cell":
			cells++
			onCell(f.Report.Tasks)
		case "done":
			if f.Result == nil {
				return fmt.Errorf("done frame without a result")
			}
			n := 0
			for _, m := range f.Result.Reports {
				n += len(m)
			}
			if n != p.cells || cells != p.cells || f.Result.Cancelled || f.Result.UnitsDone != f.Result.Units {
				return fmt.Errorf("streamed grid: %d cell frames, done frame holds %d of %d cells, %d of %d units",
					cells, n, p.cells, f.Result.UnitsDone, f.Result.Units)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return &failedOp{msg: err.Error()}
	}
	return &failedOp{msg: "stream ended without a done frame"}
}

// sendProbe posts one probe and checks its single cell.
func sendProbe(c *http.Client, url string, body []byte, wantTasks int) error {
	code, b, err := post(c, url+"/run", body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return &failedOp{code: code, msg: string(b)}
	}
	var res service.WireRunResult
	if err := json.Unmarshal(b, &res); err != nil {
		return fmt.Errorf("decoding /run response: %w", err)
	}
	if res.Report.Tasks != wantTasks || res.Report.Scheduler == "" {
		return fmt.Errorf("probe report ran %d tasks under %q, want %d under JOSS",
			res.Report.Tasks, res.Report.Scheduler, wantTasks)
	}
	return nil
}

// setup execs jossd, streams one grid (training the plans the probes
// then adopt) and sends one probe per seed.
func (p *probe) setup(keep bool) (time.Duration, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(p.o.jossd)
	if err != nil {
		return 0, 0, err
	}
	p.d, p.bg, p.pc = d, newClient(1), newClient(8)
	t1 := time.Now()
	err = p.streamSweep(p.warmBody, func(int) {})
	for i := 0; err == nil && i < serveSeeds; i++ {
		err = sendProbe(p.pc, d.url, p.bodies[i], p.sluTasks)
	}
	t2 := time.Now()
	if err != nil || !keep {
		cerr := p.close()
		if err != nil {
			return 0, 0, fmt.Errorf("warm-up: %w", err)
		}
		return t2.Sub(t0), t2.Sub(t1), cerr
	}
	return t2.Sub(t0), t2.Sub(t1), nil
}

// sends is how many sends an open loop makes: one per due time before d.
func sends(interval, d time.Duration) int { return int((d + interval - 1) / interval) }

// openLoopResult is an open-loop run: per send, the latency from its
// due time, the latency from its actual send, its error, and how late
// the generator sent it.
type openLoopResult struct {
	lat, fromSend, late []time.Duration
	errs                []error
}

// openLoop calls send(i) at start + i*interval for every due time
// before start+d, each call in its own goroutine so a slow response
// never delays later sends, and waits for all of them. Latency counts
// from the due time, so a stall also charges the sends queued behind it.
func openLoop(start time.Time, interval, d time.Duration, send func(i int) error) openLoopResult {
	n := sends(interval, d)
	r := openLoopResult{
		lat: make([]time.Duration, n), fromSend: make([]time.Duration, n),
		late: make([]time.Duration, n), errs: make([]error, n),
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		sent := time.Now()
		r.late[i] = sent.Sub(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.errs[i] = send(i)
			end := time.Now()
			r.lat[i], r.fromSend[i] = end.Sub(due), end.Sub(sent)
		}()
	}
	wg.Wait()
	return r
}

func (p *probe) phase(d time.Duration) (phaseResult, error) {
	var ph phaseResult
	var bgTasks, probeTasks atomic.Int64
	stop := make(chan struct{})
	bgErr := make(chan error, 1)
	start := time.Now()
	pid := p.servingPID()
	ph.start = markNow(start, pid, 0)
	go func() {
		for {
			select {
			case <-stop:
				bgErr <- nil
				return
			default:
			}
			if err := p.streamSweep(p.gridBody, func(n int) { bgTasks.Add(int64(n)) }); err != nil {
				bgErr <- err
				return
			}
		}
	}()
	interval := time.Second / probeRate
	ph.marks = make([]mark, sends(interval, d))
	r := openLoop(start, interval, d, func(i int) error {
		err := sendProbe(p.pc, p.d.url, p.bodies[i%serveSeeds], p.sluTasks)
		if err == nil {
			probeTasks.Add(int64(p.sluTasks))
		}
		ph.marks[i] = markNow(start, pid, probeTasks.Load()+bgTasks.Load())
		return err
	})
	close(stop)
	err := <-bgErr
	ph.wall = time.Since(start)
	for i := range r.lat {
		ph.outcome(r.lat[i], r.errs[i])
		ph.late = append(ph.late, ms(r.late[i]))
		ph.fromSend = append(ph.fromSend, ms(r.fromSend[i]))
	}
	ph.tasks = probeTasks.Load() + bgTasks.Load()
	if err != nil && ph.mismatch == nil {
		ph.mismatch = fmt.Errorf("background stream: %w", err)
	}
	return ph, nil
}

func (p *probe) servingPID() int { return p.d.pid() }

func (p *probe) snapshot() (snapshot, error) { return scrape(p.pc, p.d.url) }

func (p *probe) finish() error { return nil }

// ledger takes the dispatch and HTTP rows from the contended traced
// phase and the quiet boundary rows from an in-process session whose
// plans the probe shape has warmed, as the background grid warms the
// daemon's.
func (p *probe) ledger(l *ledgerRun) error {
	l.phaseLayers("/run")
	cfg, err := service.DefaultConfig()
	if err != nil {
		return err
	}
	sess, err := service.New(cfg)
	if err != nil {
		return err
	}
	req, err := sweepRequest(sess, []string{"SLU"}, []string{"JOSS"}, benchScale, p.o.seed*serveSeeds, 1, true)
	if err != nil {
		return err
	}
	if _, err := sess.Submit(req); err != nil {
		return err
	}
	return l.quiet(sess, req, "/run", p.bodies[0])
}

func (p *probe) close() error {
	if p.d == nil {
		return nil
	}
	p.bg.CloseIdleConnections()
	p.pc.CloseIdleConnections()
	err := p.d.stop()
	p.d = nil
	return err
}
