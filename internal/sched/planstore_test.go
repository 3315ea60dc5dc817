package sched

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"joss/internal/platform"
)

func storeKey(kernel string, sched string, scale float64) PlanKey {
	return PlanKey{
		Kernel:              kernel,
		Demand:              platform.TaskDemand{Kernel: kernel, Ops: 1e6, Bytes: 32e3, ParEff: 0.9, Activity: 0.7},
		Sched:               sched,
		Goal:                GoalMinEnergy,
		MemDVFS:             sched == "JOSS",
		CoarsenThresholdSec: 200e-6,
		CoarsenWindowSec:    1e-3,
		Scale:               scale,
	}
}

func storePlan(fc int) CachedPlan {
	return CachedPlan{
		Cfg:          platform.Config{TC: platform.A57, NC: 2, FC: fc, FM: 1},
		Fine:         true,
		Batch:        7,
		PredictedSec: 1.25e-4,
	}
}

// TestPlanStoreRoundTrip saves a populated cache and reloads it into
// an empty one: every key must come back with an identical plan, and
// Save must be byte-deterministic so unchanged stores do not churn.
func TestPlanStoreRoundTrip(t *testing.T) {
	pc := NewPlanCache()
	keys := []PlanKey{
		storeKey("mm_tile", "JOSS", 1),
		storeKey("mm_tile", "JOSS_NoMemDVFS", 1), // same kernel, different knob set
		storeKey("jacobi", "JOSS", 0.05),
	}
	for i, k := range keys {
		pc.Store(k, storePlan(i))
	}

	var buf bytes.Buffer
	if err := pc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := pc.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two saves of the same cache differ byte-wise")
	}

	loaded := NewPlanCache()
	n, err := loaded.Load(bytes.NewReader(buf.Bytes()), platform.TX2())
	if err != nil {
		t.Fatal(err)
	}
	if n != len(keys) || loaded.Len() != len(keys) {
		t.Fatalf("loaded %d plans (Len %d), want %d", n, loaded.Len(), len(keys))
	}
	for i, k := range keys {
		got, ok := loaded.Lookup(k)
		if !ok {
			t.Fatalf("key %d missing after round trip", i)
		}
		if !reflect.DeepEqual(got, storePlan(i)) {
			t.Errorf("key %d: plan mutated in round trip:\nwant %+v\ngot  %+v", i, storePlan(i), got)
		}
	}
}

// TestPlanStoreVersionMismatch asserts the version gate: a store
// claiming a different format version is rejected without mutating
// the cache.
func TestPlanStoreVersionMismatch(t *testing.T) {
	raw, err := json.Marshal(map[string]any{"version": 99, "plans": []any{}})
	if err != nil {
		t.Fatal(err)
	}
	pc := NewPlanCache()
	if _, err := pc.Load(bytes.NewReader(raw), platform.TX2()); err == nil {
		t.Fatal("version 99 store accepted")
	} else if !strings.Contains(err.Error(), "version") {
		t.Fatalf("error does not mention the version: %v", err)
	}
	if pc.Len() != 0 {
		t.Fatal("rejected store still populated the cache")
	}
}

// TestPlanStoreRejectsInvalidPlans asserts Load refuses a whole store
// when any entry's plan would crash the run adopting it — a
// configuration outside the platform's knob ranges, or a coarsened
// plan without a batch — and leaves the cache untouched.
func TestPlanStoreRejectsInvalidPlans(t *testing.T) {
	bad := map[string]func(*CachedPlan){
		"NC 99":     func(p *CachedPlan) { p.Cfg.NC = 99 },
		"NC 3":      func(p *CachedPlan) { p.Cfg.NC = 3 },
		"FC 99":     func(p *CachedPlan) { p.Cfg.FC = 99 },
		"FM 99":     func(p *CachedPlan) { p.Cfg.FM = 99 },
		"FM -1":     func(p *CachedPlan) { p.Cfg.FM = -1 },
		"TC 7":      func(p *CachedPlan) { p.Cfg.TC = 7 },
		"batch 0":   func(p *CachedPlan) { p.Batch = 0 },
		"batch -20": func(p *CachedPlan) { p.Batch = -20 },
	}
	for name, mutate := range bad {
		src := NewPlanCache()
		src.Store(storeKey("jacobi", "JOSS", 1), storePlan(1))
		p := storePlan(2)
		mutate(&p)
		src.Store(storeKey("mm_tile", "JOSS", 1), p)
		var buf bytes.Buffer
		if err := src.Save(&buf); err != nil {
			t.Fatal(err)
		}
		pc := NewPlanCache()
		if _, err := pc.Load(&buf, platform.TX2()); err == nil {
			t.Errorf("%s: store accepted", name)
		} else if strings.Contains(err.Error(), "PANIC") {
			t.Errorf("%s: error message formatting panicked: %v", name, err)
		}
		if pc.Len() != 0 {
			t.Errorf("%s: rejected store still populated the cache", name)
		}
	}
}

// TestPlanStoreConcurrentMergedWriters is the lock-and-merge
// correctness bar: many writers — simulating a fleet of processes
// sharing one store — concurrently SaveFileMerged caches holding
// disjoint plans, and the final store must contain every plan from
// every writer. The old last-writer-wins rewrite dropped all but one
// writer's plans under this schedule.
func TestPlanStoreConcurrentMergedWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.json")
	const writers, plansPer = 8, 3

	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pc := NewPlanCache()
			for p := 0; p < plansPer; p++ {
				pc.Store(storeKey(fmt.Sprintf("kern_%d_%d", w, p), "JOSS", 1), storePlan(p))
			}
			errs[w] = pc.SaveFileMerged(path, platform.TX2())
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}

	final := NewPlanCache()
	n, err := final.LoadFile(path, platform.TX2())
	if err != nil {
		t.Fatal(err)
	}
	if want := writers * plansPer; n != want {
		t.Fatalf("final store holds %d plans, want %d (a writer's plans were dropped)", n, want)
	}
	for w := 0; w < writers; w++ {
		for p := 0; p < plansPer; p++ {
			if _, ok := final.Lookup(storeKey(fmt.Sprintf("kern_%d_%d", w, p), "JOSS", 1)); !ok {
				t.Errorf("writer %d plan %d missing from merged store", w, p)
			}
		}
	}
	// The flock implementation leaves the (inert) lock file in place;
	// the portable existence-lock must clean up after itself.
	if _, err := os.Stat(path + ".lock"); !lockFilePersists && !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("lock file left behind: %v", err)
	}
}

// TestPlanStoreMergedWriterAdoptsDiskPlans asserts the union mutates
// the writing cache too: plans another process published appear in the
// writer's cache after SaveFileMerged (the documented "merged store
// written back" semantics).
func TestPlanStoreMergedWriterAdoptsDiskPlans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.json")
	other := NewPlanCache()
	other.Store(storeKey("theirs", "JOSS", 1), storePlan(1))
	if err := other.SaveFileMerged(path, platform.TX2()); err != nil {
		t.Fatal(err)
	}

	mine := NewPlanCache()
	mine.Store(storeKey("mine", "JOSS", 1), storePlan(2))
	if err := mine.SaveFileMerged(path, platform.TX2()); err != nil {
		t.Fatal(err)
	}
	if _, ok := mine.Lookup(storeKey("theirs", "JOSS", 1)); !ok {
		t.Error("merged save did not adopt the plan already on disk")
	}
	if mine.Len() != 2 {
		t.Errorf("writer cache holds %d plans after merge, want 2", mine.Len())
	}
}

// TestPlanStoreLoadFirstWriterWins asserts Load follows the cache's
// first-writer-wins rule: plans the process already trained are not
// clobbered by loaded ones.
func TestPlanStoreLoadFirstWriterWins(t *testing.T) {
	k := storeKey("mm_tile", "JOSS", 1)

	saved := NewPlanCache()
	saved.Store(k, storePlan(0))
	var buf bytes.Buffer
	if err := saved.Save(&buf); err != nil {
		t.Fatal(err)
	}

	pc := NewPlanCache()
	pc.Store(k, storePlan(4))
	if _, err := pc.Load(&buf, platform.TX2()); err != nil {
		t.Fatal(err)
	}
	got, _ := pc.Lookup(k)
	if got != storePlan(4) {
		t.Fatalf("Load clobbered an existing plan: %+v", got)
	}
}
