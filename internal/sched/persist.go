package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"

	"joss/internal/platform"
)

// The §5.1 sampling phase and the §5.2 configuration search are pure
// functions of ⟨kernel, scheduler options, scale⟩, so their outcome —
// the selected plan — is as cacheable across processes as the trained
// models are. This file is the persistence half of that observation,
// the PlanCache counterpart of models.Persist: a trained cache can be
// serialised to versioned JSON and reloaded by any later process (or
// a service), which then performs zero plan searches for known keys.

// persistPlanEntry is one ⟨key, plan⟩ pair of the store. PlanKey and
// CachedPlan are plain exported-field structs, so they round-trip
// through JSON exactly (float64 encoding is shortest-round-trip).
type persistPlanEntry struct {
	Key  PlanKey    `json:"key"`
	Plan CachedPlan `json:"plan"`
}

type persistPlanStore struct {
	Version int                `json:"version"`
	Plans   []persistPlanEntry `json:"plans"`
}

// planStoreVersion gates the on-disk format: Load rejects stores
// written by an incompatible PlanKey/CachedPlan layout rather than
// silently adopting plans keyed by different semantics.
const planStoreVersion = 1

// Save serialises the cache as a versioned JSON plan store. Entries
// are emitted in a deterministic order (sorted by encoded key), so
// saving an unchanged cache is byte-stable.
func (pc *PlanCache) Save(w io.Writer) error {
	pc.mu.RLock()
	ps := persistPlanStore{Version: planStoreVersion}
	for k, p := range pc.plans {
		ps.Plans = append(ps.Plans, persistPlanEntry{Key: k, Plan: p})
	}
	pc.mu.RUnlock()
	keyStr := make([]string, len(ps.Plans))
	for i := range ps.Plans {
		b, err := json.Marshal(ps.Plans[i].Key)
		if err != nil {
			return fmt.Errorf("sched: encoding plan key: %w", err)
		}
		keyStr[i] = string(b)
	}
	sort.Sort(&planEntrySorter{entries: ps.Plans, keys: keyStr})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ps)
}

type planEntrySorter struct {
	entries []persistPlanEntry
	keys    []string
}

func (s *planEntrySorter) Len() int           { return len(s.entries) }
func (s *planEntrySorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *planEntrySorter) Swap(i, j int) {
	s.entries[i], s.entries[j] = s.entries[j], s.entries[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// Load merges a store written by Save into the cache, returning the
// number of plans read. Existing entries win over loaded ones (the
// same first-writer-wins rule as Store), so loading never clobbers
// plans the process has already trained. Version mismatches and
// malformed stores — including any plan whose configuration is
// outside spec's knob ranges, or a coarsened plan without a batch,
// either of which would crash the first run adopting it — are
// rejected whole without touching the cache.
func (pc *PlanCache) Load(r io.Reader, spec platform.Spec) (int, error) {
	var ps persistPlanStore
	if err := json.NewDecoder(r).Decode(&ps); err != nil {
		return 0, fmt.Errorf("sched: decoding plan store: %w", err)
	}
	if ps.Version != planStoreVersion {
		return 0, fmt.Errorf("sched: unsupported plan store version %d (want %d)",
			ps.Version, planStoreVersion)
	}
	for _, e := range ps.Plans {
		if e.Key.Kernel == "" {
			return 0, fmt.Errorf("sched: plan store entry with empty kernel name")
		}
		if !e.Plan.Cfg.Valid(spec) {
			c := e.Plan.Cfg // not %v: Config.String indexes the frequency tables
			return 0, fmt.Errorf("sched: plan store entry for kernel %q has invalid configuration TC %d NC %d FC %d FM %d",
				e.Key.Kernel, c.TC, c.NC, c.FC, c.FM)
		}
		if e.Plan.Fine && e.Plan.Batch < 1 {
			return 0, fmt.Errorf("sched: plan store entry for kernel %q has batch %d",
				e.Key.Kernel, e.Plan.Batch)
		}
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for _, e := range ps.Plans {
		if _, dup := pc.plans[e.Key]; !dup {
			pc.plans[e.Key] = e.Plan
		}
	}
	return len(ps.Plans), nil
}

// LoadFile merges a plan store file into the cache (see Load). A
// missing file is not an error — the first process starts cold, trains
// and saves. Returns the number of plans read.
func (pc *PlanCache) LoadFile(path string, spec platform.Spec) (int, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("sched: opening plan store: %w", err)
	}
	defer f.Close()
	return pc.Load(f, spec)
}

// Lock-file parameters for SaveFileMerged: how long one writer waits
// for another before giving up, and how often it retries. The timeout
// is a var so crash-recovery tests can shorten the contended path.
var storeLockTimeout = 10 * time.Second

const storeLockRetry = 2 * time.Millisecond

// acquireStoreLock takes the plan store's sibling .lock file and
// returns a release func. The implementation is platform-gated: on
// unix-like systems the lock is an exclusive flock(2) on the lock
// file's open descriptor (lock_flock.go) — a crashed holder's lock is
// released by the kernel, so an unclean death never orphans the store.
// Elsewhere it falls back to O_CREATE|O_EXCL existence locking
// (lock_portable.go), where a crash leaves the lock behind until an
// operator removes it: breaking it automatically would race a live
// writer and readmit exactly the lost update this file prevents.

// SaveFileMerged writes the cache to path with lock-and-merge
// semantics, so concurrent fleets (and multiple service daemons)
// sharing one store never drop each other's plans the way a
// last-writer-wins rewrite would. Under a sibling .lock file it loads
// the store currently on disk into the cache (union — disk-only plans
// are adopted, first-writer-wins keeps the in-memory ones), then
// writes the merged set to a temp file and atomically renames it over
// path, so concurrent readers never observe a torn store. The cache
// itself gains any plans other writers published; the store on disk is
// validated against spec as by Load.
func (pc *PlanCache) SaveFileMerged(path string, spec platform.Spec) error {
	unlock, err := acquireStoreLock(path + ".lock")
	if err != nil {
		return err
	}
	defer unlock()

	if _, err := pc.LoadFile(path, spec); err != nil {
		return fmt.Errorf("sched: merging plan store: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("sched: writing plan store: %w", err)
	}
	if err := pc.Save(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("sched: writing plan store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sched: writing plan store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sched: writing plan store: %w", err)
	}
	return nil
}
