package sched

import (
	"sync"
	"testing"

	"joss/internal/dag"
	"joss/internal/platform"
)

func planKeyFor(kernel string, schedName string, goal Goal) PlanKey {
	return PlanKey{
		Kernel: kernel,
		Demand: platform.TaskDemand{Kernel: kernel, Ops: 1e6, Bytes: 1e5},
		Sched:  schedName,
		Goal:   goal,
	}
}

// TestPlanCacheConcurrent hammers one cache from many goroutines (run
// under -race in CI): concurrent stores to the same key must be safe
// and first-writer-wins, concurrent distinct keys must all land, and
// lookups may interleave freely.
func TestPlanCacheConcurrent(t *testing.T) {
	pc := NewPlanCache()
	const workers = 16
	const kernels = 32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < kernels; i++ {
				k := planKeyFor(string(rune('a'+i%26))+"k", "JOSS", GoalMinEnergy)
				pc.Store(k, CachedPlan{Cfg: platform.Config{NC: 1 + w%2}, Batch: w})
				if p, ok := pc.Lookup(k); !ok || p.Cfg.NC < 1 {
					t.Error("lookup after store failed")
					return
				}
				// Distinct per-worker keys must never collide.
				own := planKeyFor("own", "JOSS", GoalMinEnergy)
				own.Speedup = float64(w)
				pc.Store(own, CachedPlan{Batch: w})
				if p, ok := pc.Lookup(own); !ok || p.Batch != w {
					t.Errorf("per-worker key clobbered: got %+v", p)
					return
				}
			}
		}()
	}
	wg.Wait()

	// First-writer-wins: every later Store of a stored key was a no-op,
	// so the surviving plan is internally consistent (NC set iff Batch
	// matches the same writer — both fields came from one Store).
	k := planKeyFor("ak", "JOSS", GoalMinEnergy)
	p, ok := pc.Lookup(k)
	if !ok {
		t.Fatal("shared key missing after concurrent stores")
	}
	if p.Cfg.NC != 1+p.Batch%2 {
		t.Fatalf("torn plan: %+v", p)
	}
}

// TestPlanCacheKeyedIdentity asserts the key separates everything that
// shapes a selection: scheduler, goal, knob set, constraint, search
// family, scale and the kernel's demand (kernels sharing a name across
// workload sizes must not share plans).
func TestPlanCacheKeyedIdentity(t *testing.T) {
	pc := NewPlanCache()
	base := PlanKey{
		Kernel:  "Jacobi",
		Demand:  platform.TaskDemand{Kernel: "Jacobi", Ops: 1e6, Bytes: 1e5},
		Sched:   "JOSS",
		Goal:    GoalMinEnergy,
		MemDVFS: true,
	}
	pc.Store(base, CachedPlan{Batch: 1})

	variants := []PlanKey{}
	v := base
	v.Sched, v.MemDVFS = "JOSS_NoMemDVFS", false
	variants = append(variants, v)
	v = base
	v.Demand.Ops = 4e6 // HT_Big's Jacobi: same name, bigger blocks
	variants = append(variants, v)
	v = base
	v.Speedup = 1.4
	variants = append(variants, v)
	v = base
	v.Exhaustive = true
	variants = append(variants, v)
	v = base
	v.Scale = 0.5
	variants = append(variants, v)
	v = base
	v.Goal = GoalMinEDP
	variants = append(variants, v)
	v = base
	v.CoarsenThresholdSec = 400e-6 // cached Fine/Batch depend on it
	variants = append(variants, v)
	v = base
	v.CoarsenWindowSec = 2e-3
	variants = append(variants, v)

	for i, vk := range variants {
		if _, ok := pc.Lookup(vk); ok {
			t.Errorf("variant %d unexpectedly shares the base plan: %+v", i, vk)
		}
	}
	if p, ok := pc.Lookup(base); !ok || p.Batch != 1 {
		t.Errorf("base plan lost: %+v ok=%v", p, ok)
	}
	if pc.Len() != 1 {
		t.Errorf("cache Len = %d, want 1", pc.Len())
	}
}

// TestPlanKeyAtDiscrimination asserts the cache key a scheduler
// trains under at a given scale separates every option that shapes a
// selection, and that attaching a cache at that scale keys by exactly
// the same value.
func TestPlanKeyAtDiscrimination(t *testing.T) {
	_, set, _ := testModels(t)
	kn := &dag.Kernel{Name: "Jacobi", Demand: platform.TaskDemand{Kernel: "Jacobi", Ops: 1e6, Bytes: 1e5}}
	const scale = 0.02
	keyAt := func(s *ModelSched, k *dag.Kernel, scale float64) PlanKey {
		s.planScale = scale
		return s.planKey(k)
	}
	base := keyAt(NewJOSS(set), kn, scale)

	bigger := *kn
	bigger.Demand.Ops = 4e6 // HT_Big's Jacobi: same name, bigger blocks
	cases := []struct {
		name string
		key  PlanKey
	}{
		{"JOSS_NoMemDVFS", keyAt(NewJOSSNoMemDVFS(set), kn, scale)},
		{"STEER", keyAt(NewSTEER(set), kn, scale)},
		{"JOSS+1.4X", keyAt(NewJOSSConstrained(set, 1.4), kn, scale)},
		{"JOSS+MAXP", keyAt(NewJOSSMaxP(set), kn, scale)},
		{"JOSS+EDP", keyAt(NewJOSSEDP(set), kn, scale)},
		{"other scale", keyAt(NewJOSS(set), kn, 0.05)},
		{"bigger demand", keyAt(NewJOSS(set), &bigger, scale)},
	}
	seen := map[PlanKey]string{base: "JOSS base"}
	for _, c := range cases {
		if prev, dup := seen[c.key]; dup {
			t.Errorf("%s shares a PlanKey with %s: %+v", c.name, prev, c.key)
			continue
		}
		seen[c.key] = c.name
	}

	// A scheduler attached to a cache at the same scale keys by exactly
	// the base key.
	s := NewJOSS(set)
	s.SetPlanCache(NewPlanCache(), scale)
	if got := s.planKey(kn); got != base {
		t.Errorf("planKey() after SetPlanCache = %+v, want %+v", got, base)
	}
}
