package dag_test

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"joss/internal/dag"
	"joss/internal/workloads"
)

// TestFig8SuccsMatchAppendOrder is the successor-order differential
// on the paper's workloads: for every Fig8 graph, each CSR successor
// list equals the list built by appending every edge to its
// predecessor's list in AddTask order — the order runtimes wake
// successors in, so every simulated result depends on it.
func TestFig8SuccsMatchAppendOrder(t *testing.T) {
	for _, cfg := range workloads.Fig8Configs() {
		g := cfg.Build(0.05)
		ref := make([][]int32, g.NumTasks())
		for id, ps := range g.PredLists() {
			for _, p := range ps {
				ref[p] = append(ref[p], int32(id))
			}
		}
		for id, want := range ref {
			if got := g.Succs(id); !slices.Equal(got, want) {
				t.Fatalf("%s: Succs(%d) = %v, want %v", cfg.Name, id, got, want)
			}
		}
	}
}

// TestTaskIsFourWords pins the compact task: ID, kernel, invocation
// number and demand scale, with every edge in the graph's flat arrays.
func TestTaskIsFourWords(t *testing.T) {
	if sz := unsafe.Sizeof(dag.Task{}); sz > 32 {
		t.Fatalf("dag.Task is %d bytes, want <= 32", sz)
	}
}

// TestGraphBytesPerTask bounds what a fresh build of the largest
// resident graph of a scale-0.05 Fig8 sweep (HT_Small, 16000 tasks,
// about two edges each) allocates, base state and successor lists
// included.
func TestGraphBytesPerTask(t *testing.T) {
	var cfg workloads.Config
	for _, c := range workloads.Fig8Configs() {
		if c.Name == "HT_Small" {
			cfg = c
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := cfg.Build(0.05)
	g.BaseState()
	runtime.ReadMemStats(&after)
	if g.NumTasks() != 16000 {
		t.Fatalf("HT_Small has %d tasks, want 16000", g.NumTasks())
	}
	perTask := float64(after.TotalAlloc-before.TotalAlloc) / float64(g.NumTasks())
	t.Logf("HT_Small build: %.1f B/task", perTask)
	if perTask > 96 {
		t.Errorf("HT_Small build allocated %.1f B/task, want <= 96", perTask)
	}
}
