package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"joss/internal/dag"
	"joss/internal/platform"
	"joss/internal/taskrt"
	"joss/internal/workloads"
)

// bruteLevels computes every task's top and bottom level by relaxing
// all edges until nothing changes, visiting tasks against their
// creation order, so it relies on neither the topological creation
// order nor a single pass.
func bruteLevels(g *dag.Graph) (top, bottom []int32) {
	n := g.NumTasks()
	top, bottom = make([]int32, n), make([]int32, n)
	for i := range top {
		top[i], bottom[i] = 1, 1
	}
	for changed := true; changed; {
		changed = false
		for u := n - 1; u >= 0; u-- {
			for _, v := range g.Succs(u) {
				if top[u]+1 > top[v] {
					top[v], changed = top[u]+1, true
				}
			}
		}
		for u := 0; u < n; u++ {
			for _, v := range g.Succs(u) {
				if bottom[v]+1 > bottom[u] {
					bottom[u], changed = bottom[v]+1, true
				}
			}
		}
	}
	return top, bottom
}

// TestCATALevelsMatchLongestPaths pins CATA's two linear passes against
// a brute-force longest-path computation on every Fig8 graph.
func TestCATALevelsMatchLongestPaths(t *testing.T) {
	s := NewCATA()
	for _, cfg := range workloads.Fig8Configs() {
		g := cfg.Build(0.02)
		s.prepare(g)
		top, bottom := bruteLevels(g)
		for id := range top {
			if s.top[id] != top[id] || s.bottom[id] != bottom[id] {
				t.Fatalf("%s task %d: levels top %d bottom %d, want %d %d",
					cfg.Name, id, s.top[id], s.bottom[id], top[id], bottom[id])
			}
		}
		if got, want := int(maxOf(bottom)), g.CriticalPathLen(); got != want {
			t.Fatalf("%s: longest bottom level %d, critical path %d", cfg.Name, got, want)
		}
	}
}

// TestCATACriticalPathSoFar pins that CATA measures criticality
// against the longest bottom level among the tasks decided so far, not
// the whole graph's critical path: the root of a short chain decided
// before a long chain's root counts as critical.
func TestCATACriticalPathSoFar(t *testing.T) {
	g := dag.New("two chains")
	k := g.AddKernel("k", platform.TaskDemand{Ops: 1e6, Bytes: 1e5, ParEff: 1, Activity: 1})
	short := g.AddTask(k)
	g.AddTask(k, short)
	long := g.AddTask(k)
	for prev, i := long, 0; i < 20; i++ {
		prev = g.AddTask(k, prev)
	}
	s := NewCATA()
	s.prepare(g)
	if d := s.Decide(short); d.Placement.TC != platform.Denver {
		t.Fatalf("short chain's root decided first went to %v, want Denver", d.Placement.TC)
	}
	if d := s.Decide(long); d.Placement.TC != platform.Denver {
		t.Fatalf("long chain's root went to %v, want Denver", d.Placement.TC)
	}
	if d := s.Decide(g.Tasks[short.ID+1]); d.Placement.TC != platform.A57 {
		t.Fatalf("short chain's leaf decided after the long root went to %v, want A57", d.Placement.TC)
	}
}

func maxOf(xs []int32) int32 {
	var m int32
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// cataFig8Digest hashes CATA's report on every Fig8 graph at scale
// 0.02 (seed 1): CATA is in no golden, so this pins its decisions bit
// for bit, and any change in which tasks count as critical shows here.
const cataFig8Digest = "26a36a5dea7a1734f474b36b8ad1a37856abd897eefbabd61d6d5166804d9a03"

func TestCATAFig8Digest(t *testing.T) {
	o, _, _ := testModels(t)
	h := sha256.New()
	for _, cfg := range workloads.Fig8Configs() {
		rep := taskrt.New(o, NewCATA(), taskrt.DefaultOptions()).Run(cfg.Build(0.02))
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		h.Write(b)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != cataFig8Digest {
		t.Errorf("CATA Fig8 report digest = %s, want %s", got, cataFig8Digest)
	}
}
