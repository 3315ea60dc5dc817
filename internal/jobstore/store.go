// Package jobstore is the serving daemon's crash-durable job journal:
// an append-only NDJSON file recording each admitted job's wire spec
// and, once the job completes, its wire result. The service journals
// on admit and on completion and replays the journal at startup, so
// finished results survive a kill -9 and jobs that never produced a
// result can be reported as interrupted.
//
// The file discipline mirrors the plan store's (internal/sched): a
// sibling .lock file taken through internal/filelock (flock(2) where
// available, so a crashed daemon never orphans the journal), plus
// rewrite-via-temp-file-and-atomic-rename whenever the journal is
// compacted. Unlike the plan store's whole-file save, steady-state
// writes are single-syscall appends: one JSON record per line, so a
// crash can only tear the final line, and replay drops exactly that
// torn tail. Appends reach the page cache without fsync — the store
// is durable against process death, not power loss, matching the
// warm-session daemon's restart story.
//
// The lock is held for the Store's whole lifetime, not per operation:
// two daemons must not interleave appends into one journal.
package jobstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"joss/internal/filelock"
)

// Journal record kinds.
const (
	kindSpec   = "spec"
	kindResult = "result"
	kindEvict  = "evict"
)

// storeLockTimeout bounds how long Open waits for the journal lock; a
// var so tests can shorten it.
var storeLockTimeout = 2 * time.Second

// record is one journal line.
type record struct {
	Kind    string          `json:"kind"`
	ID      string          `json:"id"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Entry is one job reconstructed by replay: its spec as journaled at
// admission and, if the job completed before the last shutdown, its
// result. A nil Result marks a job that was admitted but never
// finished — the serving layer reports it interrupted.
type Entry struct {
	ID     string
	Spec   json.RawMessage
	Result json.RawMessage
}

// Store is an open journal. Methods are safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	path   string
	f      *os.File
	unlock func()
	closed bool
	// metrics, when non-nil, receives append/compaction observations.
	// Guarded by mu. replayed/compacted record what Open found, for
	// SetMetrics to apply; immutable after Open.
	metrics   *Metrics
	replayed  int
	compacted bool
}

// Open locks and replays the journal at path (missing is an empty
// store), compacts it if the replay dropped anything (a torn final
// line from a crash mid-append, or evicted jobs) or the file does not
// end in a newline (the next append would join the last line), and
// returns the surviving entries in admission order. The lock is held
// until Close; a second Open on the same path fails once the lock
// timeout expires.
func Open(path string) (*Store, []Entry, error) {
	unlock, err := filelock.Acquire(path+".lock", storeLockTimeout)
	if err != nil {
		return nil, nil, fmt.Errorf("jobstore: journal lock: %w", err)
	}
	entries, rewrite, err := replay(path)
	if err != nil {
		unlock()
		return nil, nil, err
	}
	if rewrite {
		if err := compact(path, entries); err != nil {
			unlock()
			return nil, nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		unlock()
		return nil, nil, fmt.Errorf("jobstore: opening journal: %w", err)
	}
	return &Store{path: path, f: f, unlock: unlock, replayed: len(entries), compacted: rewrite}, entries, nil
}

// replay parses the journal into live entries. It reports whether the
// on-disk bytes need rewriting (torn tail, evicts, or an unterminated
// final record, which is kept) so Open knows to compact. A malformed
// line anywhere but the unsynced tail is corruption, not a crash
// artifact, and fails loudly.
func replay(path string) (entries []Entry, rewrite bool, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("jobstore: reading journal: %w", err)
	}
	byID := make(map[string]int) // id → index into entries
	evicted := 0
	torn := false
	lines := bytes.Split(data, []byte("\n"))
	for i, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec record
		if uerr := json.Unmarshal(line, &rec); uerr != nil || rec.ID == "" {
			if i == len(lines)-1 {
				// Unterminated or half-written final line: the crash
				// the journal exists to survive. Drop it.
				torn = true
				break
			}
			return nil, false, fmt.Errorf("jobstore: corrupt journal %s at line %d", path, i+1)
		}
		switch rec.Kind {
		case kindSpec:
			if idx, ok := byID[rec.ID]; ok {
				entries[idx].Spec = rec.Payload
				break
			}
			byID[rec.ID] = len(entries)
			entries = append(entries, Entry{ID: rec.ID, Spec: rec.Payload})
		case kindResult:
			if idx, ok := byID[rec.ID]; ok {
				entries[idx].Result = rec.Payload
				break
			}
			byID[rec.ID] = len(entries)
			entries = append(entries, Entry{ID: rec.ID, Result: rec.Payload})
		case kindEvict:
			if idx, ok := byID[rec.ID]; ok {
				entries[idx] = Entry{}
				evicted++
				delete(byID, rec.ID)
			}
		default:
			return nil, false, fmt.Errorf("jobstore: corrupt journal %s at line %d: unknown kind %q",
				path, i+1, rec.Kind)
		}
	}
	if evicted > 0 {
		live := entries[:0]
		for _, e := range entries {
			if e.ID != "" {
				live = append(live, e)
			}
		}
		entries = live
	}
	unterminated := len(data) > 0 && data[len(data)-1] != '\n'
	return entries, torn || evicted > 0 || unterminated, nil
}

// compact rewrites the journal to exactly the live entries, via a
// temp file and atomic rename so a crash mid-compaction leaves either
// the old journal or the new one, never a hybrid.
func compact(path string, entries []Entry) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("jobstore: compacting journal: %w", err)
	}
	defer os.Remove(tmp.Name())
	for _, e := range entries {
		// A job journaled with neither payload still has an identity;
		// its payload-less spec record keeps it across the rewrite.
		if e.Spec != nil || e.Result == nil {
			if err := writeRecord(tmp, record{Kind: kindSpec, ID: e.ID, Payload: e.Spec}); err != nil {
				tmp.Close()
				return err
			}
		}
		if e.Result != nil {
			if err := writeRecord(tmp, record{Kind: kindResult, ID: e.ID, Payload: e.Result}); err != nil {
				tmp.Close()
				return err
			}
		}
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("jobstore: compacting journal: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("jobstore: compacting journal: %w", err)
	}
	return nil
}

func writeRecord(f *os.File, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobstore: encoding record: %w", err)
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("jobstore: writing journal: %w", err)
	}
	return nil
}

// append journals one record as a single write syscall, so a crash
// tears at most the final line.
func (s *Store) append(rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobstore: encoding record: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("jobstore: store is closed")
	}
	if _, err := s.f.Write(append(b, '\n')); err != nil {
		if s.metrics != nil {
			s.metrics.AppendErrors.Inc()
		}
		return fmt.Errorf("jobstore: appending to journal: %w", err)
	}
	if m := s.metrics; m != nil {
		switch rec.Kind {
		case kindSpec:
			m.AppendsSpec.Inc()
		case kindResult:
			m.AppendsResult.Inc()
		case kindEvict:
			m.AppendsEvict.Inc()
		}
	}
	return nil
}

// AppendSpec journals a job's wire spec at admission. payload must be
// compact JSON (json.Marshal output).
func (s *Store) AppendSpec(id string, payload json.RawMessage) error {
	return s.append(record{Kind: kindSpec, ID: id, Payload: payload})
}

// AppendResult journals a completed job's wire result.
func (s *Store) AppendResult(id string, payload json.RawMessage) error {
	return s.append(record{Kind: kindResult, ID: id, Payload: payload})
}

// Evict journals the removal of a job; the next replay drops it and
// compacts it out of the file.
func (s *Store) Evict(id string) error {
	return s.append(record{Kind: kindEvict, ID: id})
}

// Path returns the journal's file path.
func (s *Store) Path() string { return s.path }

// Close flushes nothing (appends are synchronous), closes the journal
// and releases the lock. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.f.Close()
	s.unlock()
	if err != nil {
		return fmt.Errorf("jobstore: closing journal: %w", err)
	}
	return nil
}
