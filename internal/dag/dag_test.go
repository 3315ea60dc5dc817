package dag

import (
	"math/rand"
	"slices"
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
	npred, roots := g.BaseState()
	if npred[a.ID] != 0 || npred[b.ID] != 1 || npred[c.ID] != 2 {
		t.Fatalf("pred counts %v want [0 1 2]", npred)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(roots) != 1 || roots[0] != a {
		t.Fatalf("roots = %v", roots)
	}
	if !slices.Equal(g.Succs(a.ID), []int32{1, 2}) || !slices.Equal(g.Succs(b.ID), []int32{2}) ||
		len(g.Succs(c.ID)) != 0 {
		t.Fatalf("succs %v %v %v", g.Succs(a.ID), g.Succs(b.ID), g.Succs(c.ID))
	}
}

func TestKernelBookkeeping(t *testing.T) {
	g := New("g")
	k1 := g.AddKernel("k1", demand())
	k2 := g.AddKernel("k2", demand())
	g.AddTask(k1)
	g.AddTask(k1)
	g.AddTask(k2)
	count := map[*Kernel]int{}
	for _, task := range g.Tasks {
		count[task.Kernel]++
	}
	if count[k1] != 2 || count[k2] != 1 {
		t.Fatalf("kernel task counts %d, %d want 2, 1", count[k1], count[k2])
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
	g.addDep(b, a)
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

// forkJoin builds `iters` sequential phases, each forking `width`
// tasks of one kernel that join into a barrier task of another.
func forkJoin(name string, width, iters int) *Graph {
	g := New(name)
	kw := g.AddKernel(name+".work", demand())
	kj := g.AddKernel(name+".join", demand())
	var barrier *Task
	for it := 0; it < iters; it++ {
		phase := make([]*Task, width)
		for i := range phase {
			if barrier == nil {
				phase[i] = g.AddTask(kw)
			} else {
				phase[i] = g.AddTask(kw, barrier)
			}
		}
		barrier = g.AddTask(kj, phase...)
	}
	return g
}

func TestForkJoinShape(t *testing.T) {
	g := forkJoin("fj", 8, 3)
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
	if _, roots := g.BaseState(); len(roots) != 8 {
		t.Fatalf("roots = %d, want 8", len(roots))
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
	g := forkJoin("fj", 3, 2)
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

// refGraph builds a graph through AddTask and, beside it, reference
// successor lists: each edge appended to its predecessor's list at
// AddTask time.
type refGraph struct {
	g    *Graph
	k    *Kernel
	succ [][]int32
}

func newRefGraph(g *Graph, name string) *refGraph {
	g = Renew(g, name)
	return &refGraph{g: g, k: g.AddKernel("k", demand())}
}

func (r *refGraph) add(preds ...*Task) *Task {
	t := r.g.AddTask(r.k, preds...)
	r.succ = append(r.succ, nil)
	for _, p := range preds {
		r.succ[p.ID] = append(r.succ[p.ID], int32(t.ID))
	}
	return t
}

// check compares every task's Succs with the reference lists.
func (r *refGraph) check(t *testing.T) {
	t.Helper()
	if err := r.g.Validate(); err != nil {
		t.Fatal(err)
	}
	for id, want := range r.succ {
		if got := r.g.Succs(id); !slices.Equal(got, want) {
			t.Fatalf("%s: Succs(%d) = %v, want %v", r.g.Name, id, got, want)
		}
	}
}

// The shapes that stress the counting sort: a hub whose successors are
// created far apart, a wide join, and predecessors listed twice.
func starFanOut(r *refGraph) {
	hub := r.add()
	for i := 0; i < 40; i++ {
		r.add(hub)
		r.add()
	}
}

func fanIn(r *refGraph) {
	var leaves []*Task
	for i := 0; i < 40; i++ {
		leaves = append(leaves, r.add())
	}
	r.add(leaves...)
}

// highFanIn is a Biomarker-like shape: hundreds of independent tasks
// joined by one aggregate, then a hub fanned out to as many tasks.
func highFanIn(r *refGraph) {
	var all []*Task
	for i := 0; i < 311; i++ {
		all = append(all, r.add())
	}
	agg := r.add(all...)
	for i := 0; i < 300; i++ {
		r.add(agg, all[i])
	}
}

func duplicatePreds(r *refGraph) {
	a := r.add()
	b := r.add(a, a)
	c := r.add(b, a, b, a)
	r.add(c, c, c, b)
	r.add(a)
}

// TestSuccsMatchAppendOrder is the successor-order differential: the
// CSR lists equal lists built by appending each edge as AddTask
// records it, for the shapes that stress the counting sort.
func TestSuccsMatchAppendOrder(t *testing.T) {
	for name, shape := range map[string]func(*refGraph){
		"star": starFanOut, "fanin": fanIn, "highfanin": highFanIn, "dups": duplicatePreds,
	} {
		r := newRefGraph(nil, name)
		shape(r)
		r.check(t)
	}
}

// TestReuseRebuildEquivalence proves arena recycling is invisible: a
// graph rebuilt into recycled storage has the same tasks, successor
// lists and base state as a freshly built one, for a star, wide joins
// and duplicate predecessors, each rebuilt over a different shape.
func TestReuseRebuildEquivalence(t *testing.T) {
	shapes := []func(*refGraph){starFanOut, fanIn, highFanIn, duplicatePreds}
	for i, shape := range shapes {
		fresh := newRefGraph(nil, "shape")
		shape(fresh)
		prev := newRefGraph(nil, "prev")
		shapes[(i+1)%len(shapes)](prev)
		prev.g.Seal()
		reused := newRefGraph(prev.g, "shape") // recycles prev's storage
		shape(reused)
		reused.check(t)
		fg, rg := fresh.g, reused.g
		if fg.NumTasks() != rg.NumTasks() || len(fg.Kernels) != len(rg.Kernels) {
			t.Fatalf("shape %d differs: %d/%d tasks, %d/%d kernels", i,
				fg.NumTasks(), rg.NumTasks(), len(fg.Kernels), len(rg.Kernels))
		}
		fn, froots := fg.BaseState()
		rn, rroots := rg.BaseState()
		if !slices.Equal(fn, rn) || len(froots) != len(rroots) {
			t.Fatalf("shape %d: base state differs after reuse", i)
		}
		for j, ft := range fg.Tasks {
			rt := rg.Tasks[j]
			if ft.ID != rt.ID || ft.Kernel.Name != rt.Kernel.Name || ft.Seq != rt.Seq ||
				!slices.Equal(fg.Succs(j), rg.Succs(j)) {
				t.Fatalf("shape %d task %d differs after reuse", i, j)
			}
		}
		for j := range froots {
			if froots[j].ID != rroots[j].ID {
				t.Fatalf("shape %d root %d differs after reuse", i, j)
			}
		}
	}
}

// TestReuseRebuildAllocFree asserts the point of the arena rewind:
// rebuilding an identical workload into a recycled graph, sealed and
// with its base state, performs no task or edge allocations (only
// kernel registration and builder-local bookkeeping remain) — for long
// chains and for a high fan-in join.
func TestReuseRebuildAllocFree(t *testing.T) {
	var g *Graph
	chains := func() {
		g = Renew(g, "chains")
		k := g.AddKernel("k", platform.TaskDemand{Ops: 1e6, Bytes: 1e5})
		var prev *Task
		for i := 0; i < 1500; i++ { // spans two task chunks
			if prev == nil {
				prev = g.AddTask(k)
			} else {
				prev = g.AddTask(k, prev)
			}
		}
		g.BaseState()
	}
	chains()
	// One kernel struct per rebuild plus map-bucket noise; the 1500
	// tasks and their edges must come from the recycled storage.
	if allocs := testing.AllocsPerRun(20, chains); allocs > 4 {
		t.Fatalf("chains rebuild into recycled graph = %.1f allocs, want <= 4", allocs)
	}

	// The fan-in builder's own bookkeeping (its reference lists and
	// task slice) allocates; measure the graph alone by rebuilding from
	// recorded predecessor lists.
	r := newRefGraph(nil, "fanin")
	highFanIn(r)
	ref := r.g
	preds := make([][]int, ref.NumTasks())
	for id := range ref.Tasks {
		for _, s := range ref.Succs(id) {
			preds[s] = append(preds[s], id)
		}
	}
	buf := make([]*Task, 0, 400)
	fan := func() {
		g = Renew(g, "fanin")
		k := g.AddKernel("k", demand())
		for _, ps := range preds {
			buf = buf[:0]
			for _, p := range ps {
				buf = append(buf, g.Tasks[p])
			}
			g.AddTask(k, buf...)
		}
		g.BaseState()
	}
	fan()
	if allocs := testing.AllocsPerRun(20, fan); allocs > 4 {
		t.Fatalf("fan-in rebuild into recycled graph = %.1f allocs, want <= 4", allocs)
	}
	for id := range ref.Tasks {
		if !slices.Equal(g.Succs(id), ref.Succs(id)) {
			t.Fatalf("fan-in rebuild: Succs(%d) differs", id)
		}
	}
}
