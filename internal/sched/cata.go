package sched

import (
	"slices"

	"joss/internal/dag"
	"joss/internal/platform"
	"joss/internal/taskrt"
)

// CATA is a criticality-aware task-acceleration baseline in the spirit
// of Castillo et al. (IPDPS'16), from the paper's related work (§8):
// tasks on (or near) a critical path are accelerated (big cores, high
// frequency), non-critical tasks are decelerated (little cores, low
// frequency). A task's criticality is the length of the longest
// root-to-leaf path through it (top level + bottom level) relative to
// the DAG's critical path. Unlike JOSS it ignores task resource
// characteristics entirely.
type CATA struct {
	rt *taskrt.Runtime
	// CritFrac: tasks whose longest through-path is at least this
	// fraction of the critical path count as critical.
	CritFrac float64

	top    []int32 // top level per task ID: longest chain from a root, inclusive
	bottom []int32 // bottom level per task ID: longest chain to a leaf, inclusive
	// maxBL is the largest bottom level among the tasks decided so far
	// this run: the critical path as far as the run has seen it.
	maxBL int32
}

// NewCATA returns the criticality-aware baseline.
func NewCATA() *CATA { return &CATA{CritFrac: 0.9} }

// Name implements taskrt.Scheduler.
func (s *CATA) Name() string { return "CATA" }

// ResetRun implements RunResetter. Attach recomputes the levels and
// clears the critical-path length for every run, so nothing run-scoped
// is left to rewind; the level slices keep their capacity.
func (s *CATA) ResetRun() {}

// Attach implements taskrt.Scheduler.
func (s *CATA) Attach(rt *taskrt.Runtime) {
	s.rt = rt
	s.prepare(rt.Graph())
}

// Scope implements taskrt.Scheduler.
func (s *CATA) Scope() taskrt.StealScope { return taskrt.StealSameType }

// prepare starts a run on g: it clears maxBL and fills top and bottom
// in two linear passes. Tasks are created in topological order, so a
// forward pass over task IDs sees every predecessor of a task before
// the task itself, and a backward pass every successor.
func (s *CATA) prepare(g *dag.Graph) {
	s.maxBL = 0
	n := g.NumTasks()
	s.top = slices.Grow(s.top[:0], n)[:n]
	s.bottom = slices.Grow(s.bottom[:0], n)[:n]
	for i := range s.top {
		s.top[i] = 1
	}
	for id := range n {
		for _, v := range g.Succs(id) {
			s.top[v] = max(s.top[v], s.top[id]+1)
		}
	}
	for id := n - 1; id >= 0; id-- {
		var best int32
		for _, v := range g.Succs(id) {
			best = max(best, s.bottom[v])
		}
		s.bottom[id] = best + 1
	}
}

// Decide implements taskrt.Scheduler: critical tasks go to the big
// cluster at maximum frequency, the rest to the little cluster at a
// low frequency. Memory stays at maximum (CATA has no memory knob).
// A task is critical when the longest root-to-leaf path through it is
// close to the longest bottom level among the tasks decided so far
// (the DAG's critical path once a task on it has been decided).
func (s *CATA) Decide(t *dag.Task) taskrt.Decision {
	s.maxBL = max(s.maxBL, s.bottom[t.ID])
	through := s.top[t.ID] + s.bottom[t.ID] - 1
	if float64(through) >= s.CritFrac*float64(s.maxBL) {
		return taskrt.Decision{
			Placement: platform.Placement{TC: platform.Denver, NC: 1},
			SetFreq:   true, FC: platform.MaxFC, FM: platform.MaxFM,
		}
	}
	return taskrt.Decision{
		Placement: platform.Placement{TC: platform.A57, NC: 1},
		SetFreq:   true, FC: 1, FM: platform.MaxFM,
	}
}

// TaskDone implements taskrt.Scheduler.
func (s *CATA) TaskDone(taskrt.ExecRecord) {}
