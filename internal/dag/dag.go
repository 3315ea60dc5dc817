// Package dag represents task-based parallel applications as directed
// acyclic graphs, the programming model JOSS schedules (paper §1): an
// application is a DAG whose vertices are tasks and whose edges are
// dependencies; tasks belong to kernels (task types) that are invoked
// many times with identical routines, and tasks may be moldable
// (executed by several cores of one cluster).
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

// Task is one vertex of the application DAG.
type Task struct {
	ID     int
	Kernel *Kernel
	// Succs are the tasks that depend on this task.
	Succs []*Task
	// Preds are the tasks this task depends on (the reverse edges,
	// kept for criticality analyses; their count is the task's initial
	// unfinished-predecessor count).
	Preds []*Task
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

	// taskChunks and edgeChunks are chunked backing stores for tasks
	// and initial Succs/Preds slices: large graphs (SLU at paper scale
	// has 11440 tasks and ~3 edges each) are built with a handful of
	// allocations instead of one per task and per edge-append. Chunks
	// are never moved, so task pointers stay valid — and they are
	// retained by Reuse, so rebuilding a workload into a recycled graph
	// allocates nothing once the arenas have grown to size.
	taskChunks [][]Task
	taskUsed   int // tasks handed out across all chunks
	edgeChunks [][]*Task
	edgeUsed   int // edge-arena slots handed out across all chunks

	// baseNpred/baseRoots cache the graph's initial ready-state — the
	// per-task predecessor counts and the root set — so every run
	// starts from an O(tasks) array copy instead of re-walking the
	// edge lists. Derived from the Preds structure, recomputed lazily
	// after any structural change.
	baseNpred []int32
	baseRoots []*Task
	baseValid bool
}

// taskChunk and edgeChunkSlots size the arena chunks; initialEdgeCap is
// the starting capacity of a task's Succs/Preds slice (growth beyond it
// falls back to the regular allocator).
const (
	taskChunk      = 512
	edgeChunkSlots = 1024
	initialEdgeCap = 4
	edgeChunkLen   = initialEdgeCap * edgeChunkSlots
)

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

// edgeSlice allocates a zero-length, capacity-c slot from the edge
// arena (c a multiple of initialEdgeCap, at most edgeChunkLen). A slot
// never straddles chunks; a chunk tail too small for the request is
// abandoned.
func (g *Graph) edgeSlice(c int) []*Task {
	if rem := edgeChunkLen - g.edgeUsed%edgeChunkLen; rem < c {
		g.edgeUsed += rem
	}
	ci, off := g.edgeUsed/edgeChunkLen, g.edgeUsed%edgeChunkLen
	if ci == len(g.edgeChunks) {
		g.edgeChunks = append(g.edgeChunks, make([]*Task, edgeChunkLen))
	}
	g.edgeUsed += c
	return g.edgeChunks[ci][off : off : off+c]
}

func (g *Graph) newEdgeSlice() []*Task { return g.edgeSlice(initialEdgeCap) }

// appendEdge appends t to an edge slice, growing through the arena
// (doubling, like append) so high fan-out tasks also rebuild
// allocation-free into a recycled graph. The abandoned smaller slot
// stays dead until Reuse; slices that would outgrow a whole chunk fall
// back to the regular allocator.
func (g *Graph) appendEdge(s []*Task, t *Task) []*Task {
	if len(s) < cap(s) || cap(s)*2 > edgeChunkLen {
		return append(s, t)
	}
	ns := g.edgeSlice(cap(s) * 2)[:len(s)]
	copy(ns, s)
	return append(ns, t)
}

// New creates an empty graph.
func New(name string) *Graph {
	return &Graph{
		Name:         name,
		kernelByName: make(map[string]*Kernel),
	}
}

// Reuse empties the graph for rebuilding under a new name while
// retaining its task and edge arena chunks, so repeat builds of a
// workload recycle storage instead of allocating. The previous build's
// tasks and kernels become invalid; the caller must ensure no runtime
// still executes them. Edge slices that grew beyond the arena's initial
// capacity were ordinary allocations and are simply dropped.
func (g *Graph) Reuse(name string) {
	g.Name = name
	g.Kernels = g.Kernels[:0]
	g.Tasks = g.Tasks[:0]
	clear(g.kernelByName)
	g.taskUsed = 0
	g.edgeUsed = 0
	g.baseValid = false
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
func (g *Graph) AddTask(k *Kernel, preds ...*Task) *Task {
	t := g.newTask()
	g.baseValid = false
	t.ID = len(g.Tasks)
	t.Kernel = k
	t.Seq = k.tasks
	k.tasks++
	g.Tasks = append(g.Tasks, t)
	for _, p := range preds {
		g.AddDep(p, t)
	}
	return t
}

// AddDep records that succ depends on pred. Adding an edge from a
// later-created task to an earlier one panics, which structurally
// guarantees acyclicity (tasks are created in a topological order).
func (g *Graph) AddDep(pred, succ *Task) {
	if pred.ID >= succ.ID {
		panic(fmt.Sprintf("dag: dependency %d -> %d violates creation order", pred.ID, succ.ID))
	}
	g.baseValid = false
	if pred.Succs == nil {
		pred.Succs = g.newEdgeSlice()
	}
	pred.Succs = g.appendEdge(pred.Succs, succ)
	if succ.Preds == nil {
		succ.Preds = g.newEdgeSlice()
	}
	succ.Preds = g.appendEdge(succ.Preds, pred)
}

// Roots returns tasks with no predecessors (the initially ready set).
func (g *Graph) Roots() []*Task {
	var out []*Task
	for _, t := range g.Tasks {
		if len(t.Preds) == 0 {
			out = append(out, t)
		}
	}
	return out
}

// BaseState returns the graph's initial per-task predecessor counts
// (indexed by Task.ID) and its root set. Both are cached on the graph
// and derived from the edge structure, which execution never mutates,
// so the result is valid no matter how many executions have run the
// graph since it was built. Callers must treat both slices as
// read-only; they are invalidated by the next structural change
// (AddTask/AddDep/Reuse).
func (g *Graph) BaseState() ([]int32, []*Task) {
	if !g.baseValid {
		if cap(g.baseNpred) < len(g.Tasks) {
			g.baseNpred = make([]int32, len(g.Tasks))
		}
		g.baseNpred = g.baseNpred[:len(g.Tasks)]
		g.baseRoots = g.baseRoots[:0]
		for i, t := range g.Tasks {
			n := len(t.Preds)
			g.baseNpred[i] = int32(n)
			if n == 0 {
				g.baseRoots = append(g.baseRoots, t)
			}
		}
		g.baseValid = true
	}
	return g.baseNpred, g.baseRoots
}

// NumTasks returns the task count.
func (g *Graph) NumTasks() int { return len(g.Tasks) }

// KernelTaskCount returns the number of tasks of kernel k.
func (g *Graph) KernelTaskCount(k *Kernel) int { return k.tasks }

// CriticalPathLen returns the number of tasks on the longest path.
func (g *Graph) CriticalPathLen() int {
	depth := make([]int, len(g.Tasks))
	longest := 0
	// Tasks are topologically ordered by construction.
	for _, t := range g.Tasks {
		if depth[t.ID] == 0 {
			depth[t.ID] = 1
		}
		if depth[t.ID] > longest {
			longest = depth[t.ID]
		}
		for _, s := range t.Succs {
			if d := depth[t.ID] + 1; d > depth[s.ID] {
				depth[s.ID] = d
			}
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
// predecessor lists match incoming edges, and kernels belong to the
// graph. It returns the first violation found.
func (g *Graph) Validate() error {
	inDeg := make([]int, len(g.Tasks))
	for _, t := range g.Tasks {
		if t.Kernel == nil {
			return fmt.Errorf("task %d has no kernel", t.ID)
		}
		if g.kernelByName[t.Kernel.Name] != t.Kernel {
			return fmt.Errorf("task %d kernel %q not registered", t.ID, t.Kernel.Name)
		}
		for _, s := range t.Succs {
			if s.ID <= t.ID {
				return fmt.Errorf("edge %d->%d not forward", t.ID, s.ID)
			}
			inDeg[s.ID]++
		}
	}
	for _, t := range g.Tasks {
		if len(t.Preds) != inDeg[t.ID] {
			return fmt.Errorf("task %d has %d preds but in-degree=%d", t.ID, len(t.Preds), inDeg[t.ID])
		}
	}
	if len(g.Roots()) == 0 && len(g.Tasks) > 0 {
		return fmt.Errorf("graph has tasks but no roots")
	}
	return nil
}

// TotalWork sums ops and bytes over all tasks.
func (g *Graph) TotalWork() (ops, bytes float64) {
	for _, t := range g.Tasks {
		ops += t.Kernel.Demand.Ops
		bytes += t.Kernel.Demand.Bytes
	}
	return
}
