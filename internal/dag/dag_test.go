package dag

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"joss/internal/platform"
)

func demand() platform.TaskDemand {
	return platform.TaskDemand{Ops: 1e6, Bytes: 1e5, ParEff: 1, Activity: 1}
}

func TestBasicConstruction(t *testing.T) {
	g := New("g")
	k := g.AddKernel("k", demand())
	a := g.AddTask(k)
	b := g.AddTask(k, a)
	c := g.AddTask(k, a, b)
	if g.NumTasks() != 3 {
		t.Fatalf("NumTasks = %d, want 3", g.NumTasks())
	}
	if len(a.Preds) != 0 || len(b.Preds) != 1 || len(c.Preds) != 2 {
		t.Fatalf("pred counts %d,%d,%d want 0,1,2", len(a.Preds), len(b.Preds), len(c.Preds))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	roots := g.Roots()
	if len(roots) != 1 || roots[0] != a {
		t.Fatalf("Roots = %v", roots)
	}
}

func TestKernelBookkeeping(t *testing.T) {
	g := New("g")
	k1 := g.AddKernel("k1", demand())
	k2 := g.AddKernel("k2", demand())
	g.AddTask(k1)
	g.AddTask(k1)
	g.AddTask(k2)
	if g.KernelTaskCount(k1) != 2 || g.KernelTaskCount(k2) != 1 {
		t.Fatal("kernel task counts wrong")
	}
	if g.KernelByName("k1") != k1 || g.KernelByName("nope") != nil {
		t.Fatal("KernelByName wrong")
	}
	if g.Tasks[1].Seq != 1 || g.Tasks[2].Seq != 0 {
		t.Fatalf("invocation sequence wrong: %d, %d", g.Tasks[1].Seq, g.Tasks[2].Seq)
	}
	// Demand inherits the kernel name for oracle jitter keying.
	if k1.Demand.Kernel != "k1" {
		t.Fatalf("demand kernel name = %q, want k1", k1.Demand.Kernel)
	}
}

func TestDuplicateKernelPanics(t *testing.T) {
	g := New("g")
	g.AddKernel("k", demand())
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate kernel did not panic")
		}
	}()
	g.AddKernel("k", demand())
}

func TestBackwardEdgePanics(t *testing.T) {
	g := New("g")
	k := g.AddKernel("k", demand())
	a := g.AddTask(k)
	b := g.AddTask(k)
	defer func() {
		if recover() == nil {
			t.Fatal("backward edge did not panic")
		}
	}()
	g.AddDep(b, a)
}

func TestCriticalPathAndDOP(t *testing.T) {
	g := Chains("c", demand(), 4, 25)
	if cp := g.CriticalPathLen(); cp != 25 {
		t.Fatalf("CriticalPathLen = %d, want 25", cp)
	}
	if dop := g.DOP(); dop != 4 {
		t.Fatalf("DOP = %v, want 4", dop)
	}
}

func TestForkJoinShape(t *testing.T) {
	g := ForkJoin("fj", demand(), demand(), 8, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 3*(8+1) {
		t.Fatalf("NumTasks = %d, want 27", g.NumTasks())
	}
	// Critical path: work, join, work, join, work, join = 6.
	if cp := g.CriticalPathLen(); cp != 6 {
		t.Fatalf("CriticalPathLen = %d, want 6", cp)
	}
	if len(g.Roots()) != 8 {
		t.Fatalf("Roots = %d, want 8", len(g.Roots()))
	}
}

func TestTotalWork(t *testing.T) {
	g := Chains("c", demand(), 2, 3)
	ops, bytes := g.TotalWork()
	if ops != 6e6 || bytes != 6e5 {
		t.Fatalf("TotalWork = %v, %v", ops, bytes)
	}
}

// Property: randomly built layered DAGs always validate, and DOP is
// within [1, width].
func TestPropertyRandomLayeredDAGValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New("r")
		k := g.AddKernel("k", demand())
		layers := 2 + rng.Intn(8)
		width := 1 + rng.Intn(8)
		var prev []*Task
		for l := 0; l < layers; l++ {
			cur := make([]*Task, width)
			for i := range cur {
				var preds []*Task
				for _, p := range prev {
					if rng.Intn(2) == 0 {
						preds = append(preds, p)
					}
				}
				cur[i] = g.AddTask(k, preds...)
			}
			prev = cur
		}
		if g.Validate() != nil {
			return false
		}
		d := g.DOP()
		return d >= 1 && d <= float64(g.NumTasks())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEffectiveDemand(t *testing.T) {
	g := New("g")
	k := g.AddKernel("k", demand())
	a := g.AddTask(k)
	b := g.AddTask(k)
	b.DemandScale = 2.5
	da := a.EffectiveDemand()
	db := b.EffectiveDemand()
	if da.Ops != k.Demand.Ops || da.Bytes != k.Demand.Bytes {
		t.Fatal("unscaled task demand changed")
	}
	if db.Ops != 2.5*k.Demand.Ops || db.Bytes != 2.5*k.Demand.Bytes {
		t.Fatalf("scaled demand = %v/%v", db.Ops, db.Bytes)
	}
	// Kernel base demand must not be mutated.
	if k.Demand.Ops != 1e6 {
		t.Fatal("kernel demand mutated by scaling")
	}
}

func TestWriteDOT(t *testing.T) {
	g := ForkJoin("fj", demand(), demand(), 3, 2)
	var buf strings.Builder
	if err := g.WriteDOT(&buf, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "digraph \"fj\"") {
		t.Fatalf("bad header: %s", out[:30])
	}
	if strings.Count(out, "->") == 0 {
		t.Fatal("no edges in DOT output")
	}
	if !strings.Contains(out, "fj.work") || !strings.Contains(out, "fj.join") {
		t.Fatal("kernel labels missing")
	}
	// Truncation.
	var small strings.Builder
	if err := g.WriteDOT(&small, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(small.String(), "more tasks") {
		t.Fatal("truncation marker missing")
	}
}

// TestReuseRebuildEquivalence proves arena recycling is invisible: a
// graph rebuilt into recycled chunks is structurally identical to a
// freshly built one, including high fan-out edge lists that grew
// through the arena.
func TestReuseRebuildEquivalence(t *testing.T) {
	build := func(g *Graph) *Graph {
		g = Renew(g, "star")
		k := g.AddKernel("k", platform.TaskDemand{Ops: 1e6, Bytes: 1e5})
		hub := g.AddTask(k)
		var leaves []*Task
		for i := 0; i < 40; i++ { // hub fan-out far beyond initialEdgeCap
			leaves = append(leaves, g.AddTask(k, hub))
		}
		g.AddTask(k, leaves...) // join with fan-in beyond initialEdgeCap
		return g
	}
	fresh := build(nil)
	reused := build(build(nil)) // second build recycles the first's arenas
	if err := reused.Validate(); err != nil {
		t.Fatalf("reused graph invalid: %v", err)
	}
	if fresh.NumTasks() != reused.NumTasks() || len(fresh.Kernels) != len(reused.Kernels) {
		t.Fatalf("shape differs: %d/%d tasks, %d/%d kernels",
			fresh.NumTasks(), reused.NumTasks(), len(fresh.Kernels), len(reused.Kernels))
	}
	for i, ft := range fresh.Tasks {
		rt := reused.Tasks[i]
		if ft.ID != rt.ID || ft.Kernel.Name != rt.Kernel.Name || ft.Seq != rt.Seq ||
			len(ft.Succs) != len(rt.Succs) || len(ft.Preds) != len(rt.Preds) {
			t.Fatalf("task %d differs after arena reuse", i)
		}
		for j := range ft.Succs {
			if ft.Succs[j].ID != rt.Succs[j].ID {
				t.Fatalf("task %d succ %d differs", i, j)
			}
		}
	}
}

// TestReuseRebuildAllocFree asserts the point of the arena rewind:
// rebuilding an identical workload into a recycled graph performs no
// task/edge allocations (only kernel registration and builder-local
// bookkeeping remain).
func TestReuseRebuildAllocFree(t *testing.T) {
	var g *Graph
	build := func() {
		g = Renew(g, "chains")
		k := g.AddKernel("k", platform.TaskDemand{Ops: 1e6, Bytes: 1e5})
		var prev *Task
		for i := 0; i < 600; i++ { // spans multiple task chunks
			if prev == nil {
				prev = g.AddTask(k)
			} else {
				prev = g.AddTask(k, prev)
			}
		}
	}
	build()
	allocs := testing.AllocsPerRun(20, build)
	// One kernel struct per rebuild plus map-bucket noise; the 600
	// tasks and their edges must come from the recycled arenas.
	if allocs > 4 {
		t.Fatalf("rebuild into recycled graph = %.1f allocs, want <= 4", allocs)
	}
}
