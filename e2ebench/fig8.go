package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strconv"
	"time"

	"joss/internal/service"
	"joss/internal/stats"
	"joss/internal/taskrt"
	"joss/internal/workloads"
)

// benchScale is the task-count scale of every workload's requests.
const benchScale = 0.05

// goldenGeomeans are the Figure 8 geomeans TestFig8GoldenGeomeans pins
// (scale 0.01, seed 1, one repeat, plans not shared), to the last ulp.
var goldenGeomeans = map[string]float64{
	"GRWS":           1,
	"ERASE":          1.0803356201572079,
	"Aequitas":       0.995548991389134,
	"STEER":          0.92898229038247726,
	"JOSS":           0.85415931561877911,
	"JOSS_NoMemDVFS": 0.87711365862033464,
}

// fig8Names lists the Figure 8 benchmark configurations.
func fig8Names() []string {
	var names []string
	for _, c := range workloads.Fig8Configs() {
		names = append(names, c.Name)
	}
	return names
}

// sweepRequest builds the in-process form of a wire sweep request the
// way the HTTP layer does: every benchmark × scheduler, each cell
// constructing its scheduler by name on the session.
func sweepRequest(sess *service.Session, benches, scheds []string, scale float64, seed int64, repeats int, share bool) (service.SweepRequest, error) {
	req := service.SweepRequest{Scale: scale, Seed: seed, Repeats: repeats, SharePlans: share}
	for _, b := range benches {
		wl, _, ok := service.FindWorkload(b)
		if !ok {
			return req, fmt.Errorf("unknown benchmark %q", b)
		}
		for _, sn := range scheds {
			sn := sn
			req.Jobs = append(req.Jobs, service.Job{Workload: wl, Label: sn,
				Make: func() taskrt.Scheduler { return sess.NewScheduler(sn) }})
		}
	}
	return req, nil
}

// tasksOf sums the simulated tasks a result's cells executed, counting
// every repeat (a cell's report is the mean of its repeats).
func tasksOf(reports map[string]map[string]taskrt.Report, repeats int) int64 {
	var n int64
	for _, m := range reports {
		for _, rep := range m {
			n += int64(rep.Stats.TasksExecuted * repeats)
		}
	}
	return n
}

// fig8 is the fig8-sweep workload: one closed-loop client submitting
// the full Figure 8 grid to an in-process session, back to back.
type fig8 struct {
	o    options
	sess *service.Session
	req  service.SweepRequest
	want map[string]map[string]taskrt.Report
}

func newFig8(o options) (*fig8, error) { return &fig8{o: o}, nil }

func (f *fig8) gridRequest(sess *service.Session) (service.SweepRequest, error) {
	req, err := sweepRequest(sess, fig8Names(), service.SchedulerNames, benchScale, f.o.seed, 1, false)
	req.Parallel = runtime.NumCPU()
	return req, err
}

// setup is DefaultConfig, New and one warm-up sweep. Only the kept
// set-up runs in this process: the others run in child processes, so
// every sample starts from a fresh process and no discarded session
// stays resident here.
func (f *fig8) setup(keep bool) (time.Duration, time.Duration, error) {
	if !keep {
		return f.childSetup()
	}
	t0 := time.Now()
	cfg, err := service.DefaultConfig()
	if err != nil {
		return 0, 0, err
	}
	cfg.RetainJobs = retainJobs
	sess, err := service.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	req, err := f.gridRequest(sess)
	if err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	res, err := sess.Submit(req)
	if err != nil {
		return 0, 0, fmt.Errorf("warm-up sweep: %w", err)
	}
	t2 := time.Now()
	if err := complete(res, len(req.Jobs)); err != nil {
		return 0, 0, fmt.Errorf("warm-up sweep: %w", err)
	}
	f.sess, f.req, f.want = sess, req, res.Reports
	return t2.Sub(t0), t2.Sub(t1), nil
}

func (f *fig8) childSetup() (time.Duration, time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	out, err := exec.Command(self, "-setup-child", "-workload", f.o.workload,
		"-seed", strconv.FormatInt(f.o.seed, 10)).Output()
	if err != nil {
		return 0, 0, fmt.Errorf("set-up child: %w", err)
	}
	var t childTiming
	if err := json.Unmarshal(out, &t); err != nil {
		return 0, 0, fmt.Errorf("set-up child output %q: %w", out, err)
	}
	return time.Duration(t.Total * float64(time.Second)), time.Duration(t.Warmup * float64(time.Second)), nil
}

// complete checks a result holds every cell of its request.
func complete(res service.SweepResult, cells int) error {
	n := 0
	for _, m := range res.Reports {
		n += len(m)
	}
	if n != cells || res.UnitsDone != res.Units || res.Cancelled {
		return fmt.Errorf("%d of %d cells, %d of %d units (cancelled %v)", n, cells, res.UnitsDone, res.Units, res.Cancelled)
	}
	return nil
}

func (f *fig8) phase(d time.Duration) (phaseResult, error) {
	var ph phaseResult
	start := time.Now()
	ph.start = markNow(start, 0, 0)
	for deadline := start.Add(d); time.Now().Before(deadline); {
		t := time.Now()
		res, err := f.sess.Submit(f.req)
		lat := time.Since(t)
		if err != nil {
			err = &failedOp{msg: err.Error()}
		} else if !reflect.DeepEqual(res.Reports, f.want) {
			err = fmt.Errorf("reports differ from the warm-up sweep's")
		}
		if ph.outcome(lat, err) {
			ph.tasks += tasksOf(res.Reports, 1)
		}
		ph.marks = append(ph.marks, markNow(start, 0, ph.tasks))
	}
	ph.wall = time.Since(start)
	return ph, nil
}

func (f *fig8) servingPID() int { return 0 }

func (f *fig8) snapshot() (snapshot, error) { return newSnapshot(f.sess.Metrics().Snapshot()), nil }

// finish reruns the grid at scale 0.01 (seed 1) on the warmed session:
// all six geomeans must equal the pinned values exactly.
func (f *fig8) finish() error {
	req, err := sweepRequest(f.sess, fig8Names(), service.SchedulerNames, 0.01, 1, 1, false)
	if err != nil {
		return err
	}
	res, err := f.sess.Submit(req)
	if err != nil {
		return fmt.Errorf("golden sweep: %w", err)
	}
	norms := make(map[string][]float64)
	for _, wl := range fig8Names() {
		base := service.EnergyOf(res.Reports[wl]["GRWS"]).TotalJ()
		for _, sn := range service.SchedulerNames {
			norms[sn] = append(norms[sn], service.EnergyOf(res.Reports[wl][sn]).TotalJ()/base)
		}
	}
	for sn, want := range goldenGeomeans {
		if got := stats.GeoMean(norms[sn]); got != want {
			return fmt.Errorf("golden check: %s geomean %.17g, want %.17g", sn, got, want)
		}
	}
	return nil
}

func (f *fig8) ledger(l *ledgerRun) error {
	l.phaseLayers("")
	body := gridBody(f.req)
	if err := l.quiet(f.sess, f.req, "/sweep", body); err != nil {
		return err
	}
	return l.overTCP("/sweep", body)
}

func (f *fig8) close() error { return nil }
