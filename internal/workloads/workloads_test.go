package workloads

import (
	"math"
	"runtime"
	"testing"

	"joss/internal/dag"
	"joss/internal/platform"
)

func TestAllGraphsValidate(t *testing.T) {
	for _, cfg := range Fig8Configs() {
		g := cfg.Build(0.02)
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
		if g.NumTasks() == 0 {
			t.Errorf("%s: empty graph", cfg.Name)
		}
	}
}

func TestFig8Has21Configs(t *testing.T) {
	if got := len(Fig8Configs()); got != 21 {
		t.Fatalf("Fig8Configs = %d, want 21 (paper Figure 8 x-axis)", got)
	}
}

func TestPaperTaskCountsAtScale1(t *testing.T) {
	cases := []struct {
		name string
		got  int
		want int
		tol  float64
	}{
		{"HT_Small", HD(HDSmall, 1).NumTasks(), 320032, 0.01},
		{"HT_Big", HD(HDBig, 1).NumTasks(), 32032, 0.01},
		{"HT_Huge", HD(HDHuge, 1).NumTasks(), 16032, 0.01},
		{"DP", DP(1).NumTasks(), 20200, 0.01},
		{"FB", FB(1).NumTasks(), 57314, 0.02},
		{"VG", VG(1).NumTasks(), 5090, 0.05},
		{"BI", BI(1).NumTasks(), 6217, 0.01},
		{"AY", AL(1).NumTasks(), 47840, 0.01},
		{"SLU", SLU(1).NumTasks(), 11472, 0.01},
		{"MM_256", MM(256, 4, 1).NumTasks(), 10000, 0.01},
		{"MM_512", MM(512, 4, 1).NumTasks(), 2000, 0.01},
		{"MC_4096", MC(4096, 4, 1).NumTasks(), 20000, 0.01},
		{"MC_8192", MC(8192, 4, 1).NumTasks(), 10000, 0.01},
		{"ST_512", ST(512, 4, 1).NumTasks(), 50000, 0.01},
		{"ST_2048", ST(2048, 4, 1).NumTasks(), 50000, 0.01},
	}
	for _, c := range cases {
		rel := math.Abs(float64(c.got-c.want)) / float64(c.want)
		if rel > c.tol {
			t.Errorf("%s: %d tasks, paper reports %d (off %.1f%%)", c.name, c.got, c.want, rel*100)
		}
	}
}

func TestDOPConfigurable(t *testing.T) {
	for _, dop := range []int{4, 16} {
		g := MM(256, dop, 0.1)
		if got := g.DOP(); math.Abs(got-float64(dop)) > 0.01 {
			t.Errorf("MM dop=%d: DOP = %v", dop, got)
		}
	}
}

func TestSLUShape(t *testing.T) {
	g := SLU(1)
	bmod := g.KernelByName("BMOD")
	if bmod == nil {
		t.Fatal("SLU has no BMOD kernel")
	}
	nbmod := 0
	for _, task := range g.Tasks {
		if task.Kernel == bmod {
			nbmod++
		}
	}
	frac := float64(nbmod) / float64(g.NumTasks())
	// §7.1: BMOD accounts for 91% of SparseLU's tasks.
	if frac < 0.88 || frac > 0.94 {
		t.Fatalf("BMOD fraction = %.3f, want ≈0.91", frac)
	}
	for _, name := range []string{"LU0", "FWD", "BDIV"} {
		if g.KernelByName(name) == nil {
			t.Fatalf("SLU missing kernel %s", name)
		}
	}
}

func TestKernelCharacteristics(t *testing.T) {
	o := platform.DefaultOracle()
	o.JitterFrac = 0

	stall := func(d platform.TaskDemand, tc platform.CoreType, nc int) float64 {
		return o.TaskTime(d, platform.Config{TC: tc, NC: nc, FC: platform.MaxFC, FM: platform.MaxFM}).StallFrac
	}

	// §7.1: BMOD on two Denver cores is compute-intensive, MB ≈ 1%.
	bmod := SLU(0.05).KernelByName("BMOD").Demand
	if sf := stall(bmod, platform.Denver, 2); sf > 0.06 {
		t.Errorf("BMOD MB on Denver x2 = %.3f, want ~0.01", sf)
	}

	// MM is compute-intensive; MC is memory-intensive (§2).
	mm := MM(256, 4, 0.02).KernelByName("mm_tile").Demand
	if sf := stall(mm, platform.Denver, 2); sf > 0.12 {
		t.Errorf("MM MB = %.3f, want small", sf)
	}
	mc := MC(4096, 4, 0.02).KernelByName("mc_copy").Demand
	if sf := stall(mc, platform.A57, 2); sf < 0.5 {
		t.Errorf("MC MB = %.3f, want memory-bound", sf)
	}

	// FB's leaves are fine-grained (tens of microseconds): the
	// coarsening path must trigger (threshold 200 µs).
	fb := FB(0.02).KernelByName("fib_leaf").Demand
	tt := o.TaskTime(fb, platform.Config{TC: platform.A57, NC: 1, FC: platform.MaxFC, FM: platform.MaxFM})
	if tt.TotalSec > 150e-6 {
		t.Errorf("FB leaf takes %.1f µs, want fine-grained (<150)", tt.TotalSec*1e6)
	}
}

func TestScaleShrinksTaskCounts(t *testing.T) {
	full := DP(1).NumTasks()
	small := DP(0.1).NumTasks()
	if small >= full || small == 0 {
		t.Fatalf("scale did not shrink DP: %d -> %d", full, small)
	}
	// Task demand is scale-independent.
	d1 := DP(1).KernelByName("dotblock").Demand
	d2 := DP(0.1).KernelByName("dotblock").Demand
	if d1.Ops != d2.Ops || d1.Bytes != d2.Bytes {
		t.Fatal("scale changed per-task demand")
	}
}

func TestTable1Rows(t *testing.T) {
	rows := Table1()
	if len(rows) != 10 {
		t.Fatalf("Table1 rows = %d, want 10", len(rows))
	}
	for _, r := range rows {
		if r.Abbr == "" || r.Description == "" || r.InputSize == "" || r.PaperTasks == "" {
			t.Fatalf("incomplete row %+v", r)
		}
	}
}

// TestWarmBuildAllocsBounded pins the recycling contract the serving
// path relies on: a worker rebuilds a cell's graph into its warm
// arenas whenever it switches cells, so a warm BuildReuse must cost a
// bounded handful of allocations, not one per task or edge.
func TestWarmBuildAllocsBounded(t *testing.T) {
	const scale, maxAllocs = 0.05, 64
	for _, cfg := range Fig8Configs() {
		g := cfg.BuildReuse(nil, scale)
		// AllocsPerRun's warm-up call is the second build; the measured
		// one is the third.
		allocs := testing.AllocsPerRun(1, func() {
			g = cfg.BuildReuse(g, scale)
		})
		if allocs > maxAllocs {
			t.Errorf("%s: warm BuildReuse made %.0f allocations, want <= %d", cfg.Name, allocs, maxAllocs)
		}
	}
}

// TestBuildersReturnSealedGraphs pins that Build and BuildReuse hand
// out sealed graphs, which is what lets one build back concurrent
// runs: the first BaseState and Succs on a fresh build find the
// successor lists built and allocate nothing (an unsealed graph would
// allocate them here, on whichever run came first).
func TestBuildersReturnSealedGraphs(t *testing.T) {
	for _, cfg := range Fig8Configs() {
		for _, g := range []*dag.Graph{cfg.Build(0.02), cfg.BuildReuse(nil, 0.02)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			g.BaseState()
			g.Succs(0)
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Errorf("%s: first BaseState on a built graph made %d allocations, want 0 (graph not sealed)", cfg.Name, n)
			}
		}
	}
}
