package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"time"

	"joss/internal/service"
)

// serveBenches × serveScheds at serveRepeats is the ROADMAP ledger
// request: GRWS, so no plan search, with the HT_Small rebuild among its
// cells.
var (
	serveBenches = []string{"SLU", "MM_256_dop4", "HT_Small", "ST_2048_dop16"}
	serveScheds  = []string{"GRWS"}
)

const (
	serveRepeats = 3
	// serveSeeds is how many request seeds the client cycles over.
	serveSeeds = 4
)

// serve is the serve-run workload: one closed-loop client on one
// keep-alive connection posting the ledger request to a loopback jossd.
type serve struct {
	o      options
	bodies [serveSeeds][]byte
	want   [serveSeeds]map[string]map[string]service.WireReport
	// tasks is each benchmark's graph task count at benchScale.
	tasks map[string]int
	// ref is the in-process session the references were computed on;
	// the traced run's quiet ledger rows reuse it.
	ref *service.Session
	d   *daemon
	c   *http.Client
}

func newServe(o options) (*serve, error) {
	s := &serve{o: o, tasks: make(map[string]int)}
	for _, b := range serveBenches {
		wl, _, ok := service.FindWorkload(b)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", b)
		}
		s.tasks[b] = wl.BuildReuse(nil, benchScale).NumTasks()
	}
	// The references come from an in-process session before any daemon
	// starts, outside every timed set-up.
	cfg, err := service.DefaultConfig()
	if err != nil {
		return nil, err
	}
	if s.ref, err = service.New(cfg); err != nil {
		return nil, err
	}
	h := service.NewHandler(s.ref)
	for i := range s.bodies {
		seed := o.seed*serveSeeds + int64(i)
		s.bodies[i], _ = json.Marshal(service.WireSweepRequest{
			Benchmarks: serveBenches, Schedulers: serveScheds, Scale: benchScale,
			Seed: &seed, Repeats: serveRepeats,
		})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(s.bodies[i])))
		res, err := s.check(rec.Code, rec.Body.Bytes(), -1)
		if err != nil {
			return nil, fmt.Errorf("reference for seed %d: %w", seed, err)
		}
		s.want[i] = res.Reports
	}
	return s, nil
}

// check validates one /sweep response: HTTP 200, every cell present
// with its graph's task count, and, for i >= 0, reports equal to seed
// i's reference. A non-200 status is a failed operation (failedOp).
func (s *serve) check(code int, body []byte, i int) (service.WireSweepResult, error) {
	var res service.WireSweepResult
	if code != http.StatusOK {
		return res, &failedOp{code: code, msg: string(body)}
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return res, fmt.Errorf("decoding /sweep response: %w", err)
	}
	n := 0
	for b, m := range res.Reports {
		for sn, rep := range m {
			n++
			if rep.Tasks != s.tasks[b] {
				return res, fmt.Errorf("%s/%s ran %d tasks, its graph has %d", b, sn, rep.Tasks, s.tasks[b])
			}
		}
	}
	if want := len(serveBenches) * len(serveScheds); n != want {
		return res, fmt.Errorf("%d of %d cells", n, want)
	}
	if i >= 0 && !reflect.DeepEqual(res.Reports, s.want[i]) {
		return res, fmt.Errorf("reports for seed index %d differ from the in-process reference", i)
	}
	return res, nil
}

// requestTasks is the simulated tasks one ledger request completes.
func (s *serve) requestTasks() int64 {
	var n int64
	for _, b := range serveBenches {
		n += int64(s.tasks[b] * len(serveScheds) * serveRepeats)
	}
	return n
}

// setup execs jossd and sends one request per seed.
func (s *serve) setup(keep bool) (time.Duration, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(s.o.jossd)
	if err != nil {
		return 0, 0, err
	}
	c := newClient(1)
	t1 := time.Now()
	for i, body := range s.bodies {
		code, b, err := post(c, d.url+"/sweep", body)
		if err == nil {
			_, err = s.check(code, b, i)
		}
		if err != nil {
			d.stop()
			return 0, 0, fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	t2 := time.Now()
	if !keep {
		c.CloseIdleConnections()
		return t2.Sub(t0), t2.Sub(t1), d.stop()
	}
	s.d, s.c = d, c
	return t2.Sub(t0), t2.Sub(t1), nil
}

func (s *serve) phase(d time.Duration) (phaseResult, error) {
	var ph phaseResult
	start := time.Now()
	ph.start = markNow(start, s.servingPID(), 0)
	for deadline := start.Add(d); time.Now().Before(deadline); {
		i := ph.ops.attempted() % serveSeeds
		t := time.Now()
		code, b, err := post(s.c, s.d.url+"/sweep", s.bodies[i])
		lat := time.Since(t)
		if err == nil {
			_, err = s.check(code, b, i)
		}
		if ph.outcome(lat, err) {
			ph.tasks += s.requestTasks()
		}
		ph.marks = append(ph.marks, markNow(start, s.servingPID(), ph.tasks))
	}
	ph.wall = time.Since(start)
	return ph, nil
}

func (s *serve) servingPID() int { return s.d.pid() }

func (s *serve) snapshot() (snapshot, error) { return scrape(s.c, s.d.url) }

func (s *serve) finish() error { return nil }

func (s *serve) ledger(l *ledgerRun) error {
	l.phaseLayers("/sweep")
	req, err := sweepRequest(s.ref, serveBenches, serveScheds, benchScale, s.o.seed*serveSeeds, serveRepeats, true)
	if err != nil {
		return err
	}
	return l.quiet(s.ref, req, "/sweep", s.bodies[0])
}

func (s *serve) close() error {
	if s.d == nil {
		return nil
	}
	s.c.CloseIdleConnections()
	err := s.d.stop()
	s.d = nil
	return err
}
