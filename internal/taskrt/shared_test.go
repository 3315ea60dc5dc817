package taskrt

import (
	"sync"
	"testing"

	"joss/internal/platform"
	"joss/internal/workloads"
)

// TestConcurrentRunsShareOneGraph backs Run's promise that one built
// graph can serve concurrent runs across runtimes: two runtimes start
// together on a freshly built, never-run HT_Small graph, and both
// reports equal a sequential run's. Under -race it also checks that
// running a graph writes nothing to it (the race detector may miss a
// write that the other run reads much later; workloads'
// TestBuildersReturnSealedGraphs pins the sealing deterministically).
func TestConcurrentRunsShareOneGraph(t *testing.T) {
	want := reportBytes(New(platform.DefaultOracle(), &variedSched{}, DefaultOptions()).
		Run(workloads.HD(workloads.HDSmall, 0.05)))

	g := workloads.HD(workloads.HDSmall, 0.05)
	var got [2]string
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range got {
		rt := New(platform.DefaultOracle(), &variedSched{}, DefaultOptions())
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = reportBytes(rt.Run(g))
		}()
	}
	close(start)
	wg.Wait()
	for i, r := range got {
		if r != want {
			t.Errorf("concurrent run %d differs from the sequential run:\nsequential: %s\nconcurrent: %s", i, want, r)
		}
	}
}
