package jobstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func openT(t *testing.T, path string) (*Store, []Entry) {
	t.Helper()
	s, entries, err := Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return s, entries
}

func raw(s string) json.RawMessage { return json.RawMessage(s) }

// TestRoundtrip: appended specs and results replay in admission order
// with results attached to their jobs.
func TestRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.ndjson")
	s, entries := openT(t, path)
	if len(entries) != 0 {
		t.Fatalf("fresh store replayed %d entries", len(entries))
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.AppendSpec("j1", raw(`{"scale":1}`)))
	must(s.AppendSpec("j2", raw(`{"scale":2}`)))
	must(s.AppendResult("j1", raw(`{"units":4}`)))
	must(s.Close())

	s2, entries := openT(t, path)
	defer s2.Close()
	if len(entries) != 2 {
		t.Fatalf("replayed %d entries, want 2", len(entries))
	}
	if entries[0].ID != "j1" || string(entries[0].Spec) != `{"scale":1}` ||
		string(entries[0].Result) != `{"units":4}` {
		t.Errorf("entry 0 = %+v", entries[0])
	}
	if entries[1].ID != "j2" || entries[1].Result != nil {
		t.Errorf("entry 1 = %+v, want spec-only (interrupted) job", entries[1])
	}
}

// TestTornTailRecovered: a half-written final line — the artifact of
// a crash mid-append — is dropped on replay and compacted out of the
// file; everything before it survives.
func TestTornTailRecovered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.ndjson")
	intact := `{"kind":"spec","id":"j1","payload":{"scale":1}}` + "\n" +
		`{"kind":"result","id":"j1","payload":{"units":4}}` + "\n"
	if err := os.WriteFile(path, []byte(intact+`{"kind":"spec","id":"j2","pay`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, entries := openT(t, path)
	if len(entries) != 1 || entries[0].ID != "j1" || entries[0].Result == nil {
		t.Fatalf("replayed %+v, want j1 with result", entries)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "j2") {
		t.Errorf("torn record survived compaction: %q", data)
	}
	// The compacted journal keeps accepting appends.
	if err := s.AppendSpec("j3", raw(`{}`)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, entries := openT(t, path)
	defer s2.Close()
	if len(entries) != 2 || entries[1].ID != "j3" {
		t.Fatalf("post-recovery replay = %+v, want j1 and j3", entries)
	}
}

// TestUnterminatedTailKept: a valid final record without its newline
// is kept, and Open compacts so the next append starts on a line of
// its own instead of joining it (which made the following Open fail
// as corrupt at line 1).
func TestUnterminatedTailKept(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.ndjson")
	if err := os.WriteFile(path, []byte(`{"kind":"spec","id":"j1","payload":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, entries := openT(t, path)
	if len(entries) != 1 || entries[0].ID != "j1" {
		t.Fatalf("replayed %+v, want j1", entries)
	}
	if err := s.AppendSpec("j2", raw(`{}`)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, entries := openT(t, path)
	defer s2.Close()
	if len(entries) != 2 || entries[0].ID != "j1" || entries[1].ID != "j2" {
		t.Fatalf("reopen replayed %+v, want j1 and j2", entries)
	}
}

// TestCompactKeepsPayloadlessJob: a record without a payload still
// names a job; compaction (here forced by a torn tail) must not drop
// it, or replay would stop being idempotent.
func TestCompactKeepsPayloadlessJob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.ndjson")
	if err := os.WriteFile(path, []byte(`{"kind":"spec","id":"j1"}`+"\n"+`{"ki`), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		s, entries := openT(t, path)
		if len(entries) != 1 || entries[0].ID != "j1" || entries[0].Spec != nil || entries[0].Result != nil {
			t.Fatalf("open %d replayed %+v, want payload-less j1", i+1, entries)
		}
		s.Close()
	}
}

// TestCorruptMiddleFails: a malformed line that is not the tail is
// corruption, not a crash artifact — Open must refuse rather than
// silently drop jobs.
func TestCorruptMiddleFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.ndjson")
	content := `{"kind":"spec","id":"j1"}` + "\n" + `garbage` + "\n" +
		`{"kind":"spec","id":"j2"}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("Open on corrupt journal: err = %v, want line-2 corruption", err)
	}
}

// TestEvictCompacts: an evicted job disappears from replay and from
// the compacted file.
func TestEvictCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.ndjson")
	s, _ := openT(t, path)
	for _, id := range []string{"j1", "j2"} {
		if err := s.AppendSpec(id, raw(`{}`)); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendResult(id, raw(`{"id":"`+id+`"}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Evict("j1"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, entries := openT(t, path)
	defer s2.Close()
	if len(entries) != 1 || entries[0].ID != "j2" {
		t.Fatalf("replay after evict = %+v, want only j2", entries)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "j1") || strings.Contains(string(data), "evict") {
		t.Errorf("evicted job or evict record survived compaction: %q", data)
	}
}

// TestLockExcludesSecondOpen: the journal lock is held for the store's
// lifetime, so a second daemon pointed at the same journal fails fast
// instead of interleaving appends.
func TestLockExcludesSecondOpen(t *testing.T) {
	defer func(old time.Duration) { storeLockTimeout = old }(storeLockTimeout)
	storeLockTimeout = 50 * time.Millisecond

	path := filepath.Join(t.TempDir(), "jobs.ndjson")
	s, _ := openT(t, path)
	if _, _, err := Open(path); err == nil || !strings.Contains(err.Error(), "lock") {
		t.Fatalf("second Open: err = %v, want lock failure", err)
	}
	s.Close()
	s2, _ := openT(t, path)
	s2.Close()
}

// TestConcurrentAppends is the -race coverage: appends from many
// goroutines interleave without tearing records.
func TestConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.ndjson")
	s, _ := openT(t, path)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := fmt.Sprintf("j%d-%d", w, i)
				if err := s.AppendSpec(id, raw(`{}`)); err != nil {
					t.Errorf("append %s: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s.Close()
	s2, entries := openT(t, path)
	defer s2.Close()
	if len(entries) != 160 {
		t.Fatalf("replayed %d entries, want 160", len(entries))
	}
}

// TestAppendAfterCloseFails pins the lifecycle contract.
func TestAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.ndjson")
	s, _ := openT(t, path)
	s.Close()
	if err := s.AppendSpec("j1", raw(`{}`)); err == nil {
		t.Fatal("append after Close succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}
