package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"

	"joss/internal/dag"
	"joss/internal/workloads"
)

// goldenReport freezes a taskrt.Report as observed on the seed
// implementation (container/heap engine, map-based models and search,
// slice queues) before the hot-path overhaul. The runtime refactor is
// required to be behaviour-preserving: same event order, same RNG
// draws, same floating-point operations — so these values must match
// bit-for-bit (energies asserted to 1e-9, counters exactly).
type goldenReport struct {
	makespan             float64
	sensorCPU, sensorMem float64
	exactCPU, exactMem   float64
	samples              int
	tasks, steals        int
	freqReq, recruit     int
	transCPU, transMem   int
	byType               [2]int
	events               int
}

var goldenCases = []struct {
	sched string
	build func() *dag.Graph
	name  string
	want  goldenReport
}{
	{
		sched: "GRWS", name: "SLU",
		build: func() *dag.Graph { return workloads.SLU(0.05) },
		want: goldenReport{
			makespan:  1.0526695350139,
			sensorCPU: 5.92470653902423, sensorMem: 0.803486605717602,
			exactCPU: 5.94887601162864, exactMem: 0.806631907587286,
			samples: 210, tasks: 650, steals: 209,
			freqReq: 0, recruit: 0, transCPU: 0, transMem: 0,
			byType: [2]int{390, 260},
			events: 2210,
		},
	},
	{
		sched: "JOSS", name: "SLU",
		build: func() *dag.Graph { return workloads.SLU(0.05) },
		want: goldenReport{
			makespan:  2.78121930957618,
			sensorCPU: 3.40078879420895, sensorMem: 1.17767471786462,
			exactCPU: 3.38997396198466, exactMem: 1.1695803179112,
			samples: 556, tasks: 650, steals: 38,
			freqReq: 650, recruit: 51, transCPU: 108, transMem: 138,
			byType: [2]int{518, 132},
			events: 3656,
		},
	},
	{
		sched: "GRWS", name: "VG",
		build: func() *dag.Graph { return workloads.VG(0.05) },
		want: goldenReport{
			makespan:  0.60757744990617,
			sensorCPU: 3.37063079318393, sensorMem: 0.474699056724528,
			exactCPU: 3.34050818289662, exactMem: 0.473827617346912,
			samples: 121, tasks: 509, steals: 152,
			freqReq: 0, recruit: 0, transCPU: 0, transMem: 0,
			byType: [2]int{296, 213},
			events: 1759,
		},
	},
	{
		sched: "JOSS", name: "VG",
		build: func() *dag.Graph { return workloads.VG(0.05) },
		want: goldenReport{
			makespan:  1.18384879102556,
			sensorCPU: 2.82414776075502, sensorMem: 0.880090594320483,
			exactCPU: 2.87857226426984, exactMem: 0.883574995313177,
			samples: 236, tasks: 509, steals: 51,
			freqReq: 509, recruit: 90, transCPU: 143, transMem: 0,
			byType: [2]int{214, 295},
			events: 2517,
		},
	},
}

func closeTo(got, want float64) bool { return math.Abs(got-want) <= 1e-9 }

// TestGoldenReports proves the hot-path overhaul left experiment
// outputs bit-identical: GRWS and JOSS on two small workloads at the
// default seed reproduce the seed implementation's reports.
func TestGoldenReports(t *testing.T) {
	e, err := NewEnv(0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range goldenCases {
		t.Run(tc.sched+"/"+tc.name, func(t *testing.T) {
			rep := e.Run(tc.sched, tc.build())
			w := tc.want
			if !closeTo(rep.MakespanSec, w.makespan) {
				t.Errorf("makespan = %.15g, want %.15g", rep.MakespanSec, w.makespan)
			}
			if !closeTo(rep.Sensor.CPUJ, w.sensorCPU) || !closeTo(rep.Sensor.MemJ, w.sensorMem) {
				t.Errorf("sensor = (%.15g, %.15g), want (%.15g, %.15g)",
					rep.Sensor.CPUJ, rep.Sensor.MemJ, w.sensorCPU, w.sensorMem)
			}
			if !closeTo(rep.Exact.CPUJ, w.exactCPU) || !closeTo(rep.Exact.MemJ, w.exactMem) {
				t.Errorf("exact = (%.15g, %.15g), want (%.15g, %.15g)",
					rep.Exact.CPUJ, rep.Exact.MemJ, w.exactCPU, w.exactMem)
			}
			if rep.Samples != w.samples {
				t.Errorf("samples = %d, want %d", rep.Samples, w.samples)
			}
			s := rep.Stats
			if s.TasksExecuted != w.tasks || s.Steals != w.steals ||
				s.FreqRequests != w.freqReq || s.Recruitments != w.recruit ||
				s.TransitionsCPU != w.transCPU || s.TransitionsMem != w.transMem {
				t.Errorf("stats = {tasks %d steals %d freq %d recruit %d tCPU %d tMem %d}, "+
					"want {tasks %d steals %d freq %d recruit %d tCPU %d tMem %d}",
					s.TasksExecuted, s.Steals, s.FreqRequests, s.Recruitments,
					s.TransitionsCPU, s.TransitionsMem,
					w.tasks, w.steals, w.freqReq, w.recruit, w.transCPU, w.transMem)
			}
			if [2]int{s.TasksByType[0], s.TasksByType[1]} != w.byType {
				t.Errorf("tasksByType = %v, want %v", s.TasksByType, w.byType)
			}
			if s.Events != w.events {
				t.Errorf("events = %d, want %d", s.Events, w.events)
			}
		})
	}
}

// TestGoldenRepeatable asserts two identically seeded runs of the
// pooled, cached runtime produce identical reports (pools and caches
// must not leak state into results).
func TestGoldenRepeatable(t *testing.T) {
	e, err := NewEnv(0.05)
	if err != nil {
		t.Fatal(err)
	}
	a := e.Run("JOSS", workloads.SLU(0.05))
	b := e.Run("JOSS", workloads.SLU(0.05))
	if a.MakespanSec != b.MakespanSec || a.Sensor != b.Sensor || a.Exact != b.Exact {
		t.Fatalf("repeated runs diverge: %+v vs %+v", a, b)
	}
}

// TestFig8GoldenGeomeans pins the headline figure outputs bit-exactly
// through the extracted service.Session path: the Figure 8 geomeans at
// bench scale must match the values recorded before the warm-session
// refactor (and tracked in BENCH_*.json as joss_vs_grws /
// steer_vs_grws) to the last ulp.
func TestFig8GoldenGeomeans(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	e := testEnv(t)
	res := e.Fig8()
	want := map[string]float64{
		"GRWS":           1,
		"ERASE":          1.0803356201572079,
		"Aequitas":       0.995548991389134,
		"STEER":          0.92898229038247726,
		"JOSS":           0.85415931561877911,
		"JOSS_NoMemDVFS": 0.87711365862033464,
	}
	for sn, w := range want {
		if res.GeoMean[sn] != w {
			t.Errorf("%s geomean = %.17g, want %.17g exactly", sn, res.GeoMean[sn], w)
		}
	}
}

// fig8ReportDigest is the SHA-256 of the JSON of every cell report of
// the scale-0.01, seed-1 Figure 8 grid, in workload-then-scheduler
// order, as produced before the event engine gained its FIFO lanes.
const fig8ReportDigest = "47282a93c0bd11811f6ebdd30f7e9e65ba3865fedfdfe237bd0d14a945fb6018"

// TestFig8ReportDigest pins every report field of the whole Figure 8
// grid — energies, makespans, samples, event counts and per-kernel
// stats of all 126 cells — where TestFig8GoldenGeomeans pins only six
// aggregates: any change to event order, RNG draws or float operation
// order anywhere in the grid changes the digest.
func TestFig8ReportDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	res := testEnv(t).Fig8()
	h := sha256.New()
	for _, wl := range workloads.Fig8Configs() {
		for _, sn := range SchedulerNames {
			b, err := json.Marshal(res.Reports[wl.Name][sn])
			if err != nil {
				t.Fatalf("%s/%s: %v", wl.Name, sn, err)
			}
			h.Write(b)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fig8ReportDigest {
		t.Errorf("Fig8 report digest = %s, want %s", got, fig8ReportDigest)
	}
}

// TestSharePlansSkipsSampling asserts the plan-reuse path works end to
// end: with SharePlans on and Repeats > 1, later repeats adopt the
// first repeat's kernel plans (no per-repeat re-sampling), and reports
// still complete all tasks.
func TestSharePlansSkipsSampling(t *testing.T) {
	e, err := NewEnv(0.02)
	if err != nil {
		t.Fatal(err)
	}
	e.Repeats = 3
	e.SharePlans = true
	res := e.Fig8()
	if len(res.Table.Rows) == 0 {
		t.Fatal("Fig8 with shared plans produced no rows")
	}
	for _, m := range res.GeoMean {
		if math.IsNaN(m) || m <= 0 {
			t.Fatalf("degenerate geomean with shared plans: %v", res.GeoMean)
		}
	}
}
