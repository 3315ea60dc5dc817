package sched

import (
	"bytes"
	"testing"

	"joss/internal/taskrt"
	"joss/internal/workloads"
)

// fuzzScale is the SLU scale FuzzPlanStore runs at; the seed corpus's
// valid store holds the plans a JOSS run trains there (3 of SLU's 4
// kernels), so mutated entries keep keys that a run adopts.
const fuzzScale = 0.05

// FuzzPlanStore feeds arbitrary bytes to PlanCache.Load, as jossd does
// with its -planstore file at start-up. A store is either rejected, or
// it loads and a JOSS run adopting its plans completes every task
// without a panic.
func FuzzPlanStore(f *testing.F) {
	o, set, _ := testModels(f)
	g := workloads.SLU(fuzzScale)
	f.Fuzz(func(t *testing.T, data []byte) {
		pc := NewPlanCache()
		if _, err := pc.Load(bytes.NewReader(data), o.Spec); err != nil {
			return
		}
		s := NewJOSS(set)
		s.SetPlanCache(pc, fuzzScale)
		rep := taskrt.New(o, s, taskrt.DefaultOptions()).Run(g)
		if rep.Stats.TasksExecuted != g.NumTasks() {
			t.Fatalf("executed %d of %d tasks", rep.Stats.TasksExecuted, g.NumTasks())
		}
	})
}
