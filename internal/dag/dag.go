// Package dag represents task-based parallel applications as directed
// acyclic graphs, the programming model JOSS schedules (paper §1): an
// application is a DAG whose vertices are tasks and whose edges are
// dependencies; tasks belong to kernels (task types) that are invoked
// many times with identical routines, and tasks may be moldable
// (executed by several cores of one cluster).
//
// Tasks are created in a topological order (a task's predecessors must
// already exist) and hold no edges. A graph stores its edges in flat
// int32 arrays of task IDs: AddTask appends a task's predecessor IDs
// to one array and their count to another, and Seal derives the
// successor lists from them in one counting-sort pass, as CSR
// (compressed sparse row: every list back to back in one array, with
// an offset per task). Seal walks the tasks in ID order, so each
// successor list is in ascending task ID, with a predecessor listed
// twice in one AddTask appearing twice — exactly the order in which
// appending each edge to its predecessor's list at AddTask time would
// leave it. Runtimes wake successors in this order, so it is part of
// every simulated result.
package dag

import (
	"fmt"

	"joss/internal/platform"
)

// Kernel is a task type. All tasks of one kernel execute the same
// routine, so JOSS samples a kernel once and reuses the configuration
// for every later invocation (paper §5.2).
type Kernel struct {
	Name string
	// Demand is the per-task resource demand of this kernel.
	Demand platform.TaskDemand
	// Index is the kernel's position in its graph's kernel list.
	Index int
	// tasks is the number of tasks of this kernel added so far.
	tasks int
}

// Task is one vertex of the application DAG. Its edges live in the
// graph's flat arrays (see Graph.Succs), so a task is four words.
type Task struct {
	ID     int
	Kernel *Kernel
	// Seq is the kernel-local invocation number (0-based), used by
	// schedulers for online sampling.
	Seq int
	// DemandScale multiplies this task's ops and bytes relative to
	// its kernel's base demand (0 means 1.0). It models benchmarks
	// whose task sizes vary within a kernel (e.g. the Biomarker
	// combinations); schedulers still treat the kernel as uniform,
	// which is a realistic source of sampling noise.
	DemandScale float64
}

// EffectiveDemand returns the kernel demand scaled by the task's
// DemandScale.
func (t *Task) EffectiveDemand() platform.TaskDemand {
	d := t.Kernel.Demand
	if t.DemandScale > 0 && t.DemandScale != 1 {
		d = d.WithScale(t.DemandScale)
	}
	return d
}

// Graph is a task DAG under construction or execution.
type Graph struct {
	Name    string
	Kernels []*Kernel
	Tasks   []*Task

	kernelByName map[string]*Kernel

	// taskChunks is the chunked backing store for tasks: chunks are
	// never moved, so task pointers stay valid, and Reuse retains them
	// so a rebuild into a recycled graph allocates no tasks.
	taskChunks [][]Task
	taskUsed   int // tasks handed out across all chunks

	// preds holds every task's predecessor IDs back to back in task-ID
	// order, each task's in its AddTask order; baseNpred[id] is their
	// count and baseRoots the tasks with none. Together with the CSR
	// successor lists (succOff, succs) that Seal derives from preds,
	// they are the graph's whole edge structure. Every flat array keeps
	// its capacity across Reuse.
	preds     []int32
	baseNpred []int32
	baseRoots []*Task
	succOff   []int32 // len NumTasks+1; task id's successors are succs[succOff[id]:succOff[id+1]]
	succs     []int32
	sealed    bool // succOff/succs match preds
}

// taskChunk sizes the task arena chunks: 1024 tasks are 32 KiB, a
// whole number of pages. A chunk that exactly fills a small size class
// would spill into the next one, because the allocator adds an 8-byte
// header to pointerful objects of that size.
const taskChunk = 1024

func (g *Graph) newTask() *Task {
	ci, off := g.taskUsed/taskChunk, g.taskUsed%taskChunk
	if ci == len(g.taskChunks) {
		g.taskChunks = append(g.taskChunks, make([]Task, taskChunk))
	}
	g.taskUsed++
	t := &g.taskChunks[ci][off]
	*t = Task{} // chunks are recycled by Reuse; drop any stale state
	return t
}

// push appends v to s, doubling the capacity when s is full. append
// grows a large slice by about 1.25×, which allocates about five times
// the final size over a build; doubling allocates about twice.
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		ns := make([]T, len(s), max(2*len(s), 16))
		copy(ns, s)
		s = ns
	}
	return append(s, v)
}

// resize returns s with length n, reallocating only when its capacity
// is too small. The contents are unspecified.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// New creates an empty graph.
func New(name string) *Graph {
	return &Graph{
		Name:         name,
		kernelByName: make(map[string]*Kernel),
	}
}

// Reuse empties the graph for rebuilding under a new name while
// retaining its task chunks and edge arrays, so repeat builds of a
// workload recycle storage instead of allocating. The previous build's
// tasks and kernels become invalid; the caller must ensure no runtime
// still executes them.
func (g *Graph) Reuse(name string) {
	g.Name = name
	g.Kernels = g.Kernels[:0]
	g.Tasks = g.Tasks[:0]
	clear(g.kernelByName)
	g.taskUsed = 0
	g.preds = g.preds[:0]
	g.baseNpred = g.baseNpred[:0]
	g.baseRoots = g.baseRoots[:0]
	g.sealed = false
}

// Renew returns g rewound (via Reuse) and renamed when g is non-nil,
// or a fresh graph otherwise — the builder-side entry point for arena
// recycling.
func Renew(g *Graph, name string) *Graph {
	if g == nil {
		return New(name)
	}
	g.Reuse(name)
	return g
}

// AddKernel registers a kernel; the name must be unique in the graph.
func (g *Graph) AddKernel(name string, d platform.TaskDemand) *Kernel {
	if _, dup := g.kernelByName[name]; dup {
		panic(fmt.Sprintf("dag: duplicate kernel %q", name))
	}
	d.Kernel = name
	k := &Kernel{Name: name, Demand: d, Index: len(g.Kernels)}
	g.Kernels = append(g.Kernels, k)
	g.kernelByName[name] = k
	return k
}

// KernelByName returns the registered kernel or nil.
func (g *Graph) KernelByName(name string) *Kernel { return g.kernelByName[name] }

// AddTask creates a task of kernel k with the given predecessor tasks.
// A predecessor listed twice is two edges.
func (g *Graph) AddTask(k *Kernel, preds ...*Task) *Task {
	t := g.newTask()
	g.sealed = false
	t.ID = len(g.Tasks)
	t.Kernel = k
	t.Seq = k.tasks
	k.tasks++
	g.Tasks = push(g.Tasks, t)
	for _, p := range preds {
		g.addDep(p, t)
	}
	g.baseNpred = push(g.baseNpred, int32(len(preds)))
	if len(preds) == 0 {
		g.baseRoots = append(g.baseRoots, t)
	}
	return t
}

// addDep records that succ, the task AddTask is creating, depends on
// pred. An edge from a later-created task to an earlier one panics,
// which structurally guarantees acyclicity (tasks are created in a
// topological order).
func (g *Graph) addDep(pred, succ *Task) {
	if pred.ID >= succ.ID {
		panic(fmt.Sprintf("dag: dependency %d -> %d violates creation order", pred.ID, succ.ID))
	}
	g.preds = push(g.preds, int32(pred.ID))
}

// Seal builds the successor lists and returns g. It is one O(tasks +
// edges) counting-sort pass, idempotent until the next AddTask or
// Reuse. Succs, BaseState and Validate seal on first use, so a graph
// used by one goroutine needs no explicit call; a graph shared by
// concurrent runs must be sealed before it is shared, and is read-only
// from then on. Workload builders return sealed graphs.
func (g *Graph) Seal() *Graph {
	if g.sealed {
		return g
	}
	n := len(g.Tasks)
	off := resize(g.succOff, n+1)
	clear(off)
	for _, p := range g.preds {
		off[p+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	// off[p] is p's fill cursor: it starts at p's first slot and ends
	// at p+1's, and the shift below restores the starts. Walking the
	// successors in ID order keeps each list in ascending ID order,
	// with a repeated predecessor's duplicates adjacent.
	succs := resize(g.succs, len(g.preds))
	i := 0
	for v, np := range g.baseNpred {
		for _, p := range g.preds[i : i+int(np)] {
			succs[off[p]] = int32(v)
			off[p]++
		}
		i += int(np)
	}
	copy(off[1:], off[:n])
	off[0] = 0
	g.succOff, g.succs = off, succs
	g.sealed = true
	return g
}

// Succs returns the IDs of the tasks that depend on task id, in
// ascending order (a repeated predecessor contributes repeats) — the
// order in which AddTask recorded the edges. The slice aliases the
// graph's storage and must not be modified.
func (g *Graph) Succs(id int) []int32 {
	if !g.sealed {
		g.Seal()
	}
	return g.succs[g.succOff[id]:g.succOff[id+1]]
}

// BaseState returns the graph's initial per-task predecessor counts
// (indexed by Task.ID) and its root set, sealing the graph first.
// Execution never mutates the graph, so the result is valid no matter
// how many executions have run it since it was built. Callers must
// treat both slices as read-only; they are invalidated by the next
// AddTask or Reuse.
func (g *Graph) BaseState() ([]int32, []*Task) {
	g.Seal()
	return g.baseNpred, g.baseRoots
}

// NumTasks returns the task count.
func (g *Graph) NumTasks() int { return len(g.Tasks) }

// CriticalPathLen returns the number of tasks on the longest path.
func (g *Graph) CriticalPathLen() int {
	depth := make([]int, len(g.Tasks))
	longest := 0
	// Tasks are topologically ordered by construction.
	for id := range g.Tasks {
		if depth[id] == 0 {
			depth[id] = 1
		}
		longest = max(longest, depth[id])
		for _, s := range g.Succs(id) {
			depth[s] = max(depth[s], depth[id]+1)
		}
	}
	return longest
}

// DOP returns the DAG parallelism: total tasks divided by the length
// of the longest path (paper §2).
func (g *Graph) DOP() float64 {
	cp := g.CriticalPathLen()
	if cp == 0 {
		return 0
	}
	return float64(len(g.Tasks)) / float64(cp)
}

// Validate checks structural invariants: edges only go forward,
// successor lists match the predecessor counts, and kernels belong to
// the graph. It returns the first violation found.
func (g *Graph) Validate() error {
	npred, roots := g.BaseState()
	inDeg := make([]int32, len(g.Tasks))
	for id, t := range g.Tasks {
		if t.Kernel == nil {
			return fmt.Errorf("task %d has no kernel", id)
		}
		if g.kernelByName[t.Kernel.Name] != t.Kernel {
			return fmt.Errorf("task %d kernel %q not registered", id, t.Kernel.Name)
		}
		for _, s := range g.Succs(id) {
			if int(s) <= id {
				return fmt.Errorf("edge %d->%d not forward", id, s)
			}
			inDeg[s]++
		}
	}
	for id, n := range npred {
		if n != inDeg[id] {
			return fmt.Errorf("task %d has %d preds but in-degree=%d", id, n, inDeg[id])
		}
	}
	if len(roots) == 0 && len(g.Tasks) > 0 {
		return fmt.Errorf("graph has tasks but no roots")
	}
	return nil
}
