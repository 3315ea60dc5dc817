package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"
)

// fuzzWorkers is the fuzz session's worker count: above 1, so both
// sides of the wire clamp are reachable.
const fuzzWorkers = 3

// decodeWire decodes data the way the HTTP handlers do: one JSON value
// from the body, trailing bytes ignored.
func decodeWire(data []byte, v any) error {
	return json.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// FuzzBuildSweepRequest feeds arbitrary bytes through the /sweep and
// /jobs decode path (/run reaches the same buildRequest). A request
// that passes must meet every precondition Enqueue and dispatch.Admit
// panic on, and its Parallel must lie within the session's workers.
// Nothing is simulated.
func FuzzBuildSweepRequest(f *testing.F) {
	cfg := testConfig(f)
	cfg.Parallel = fuzzWorkers
	cfg.DisableMetrics = true
	s, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	f.Fuzz(func(t *testing.T, data []byte) {
		var wr WireSweepRequest
		if decodeWire(data, &wr) != nil {
			return
		}
		req, err := s.buildRequest(wr)
		if err != nil {
			return
		}
		if req.Parallel < 1 || req.Parallel > s.Parallel() {
			t.Errorf("Parallel = %d, want within [1, %d]", req.Parallel, s.Parallel())
		}
		if req.Repeats < 0 || req.Repeats > maxWireRepeats {
			t.Errorf("Repeats = %d, want within [0, %d]", req.Repeats, maxWireRepeats)
		}
		if req.Weight < 0 || req.Weight > maxWireWeight || req.DeadlineMS < 0 || req.SensorPeriodSec < 0 {
			t.Errorf("negative or oversized knob: weight %g, deadline_ms %d, sensor_period_sec %g",
				req.Weight, req.DeadlineMS, req.SensorPeriodSec)
		}
		if !(req.Scale > 0 && req.Scale <= maxWireScale) {
			t.Errorf("Scale = %g, want within (0, %d]", req.Scale, maxWireScale)
		}
		if len(req.Jobs) == 0 || len(req.Jobs) > maxWireJobs {
			t.Errorf("%d jobs, want within [1, %d]", len(req.Jobs), maxWireJobs)
		}
		if req.Trace != nil || req.Plans != nil {
			t.Error("the wire set a Go-API-only field")
		}
		for _, j := range req.Jobs {
			if j.Make == nil {
				t.Fatalf("job %s/%s has no scheduler constructor", j.Workload.Name, j.Label)
			}
			if _, err := s.ParseScheduler(j.Label); err != nil {
				t.Errorf("job scheduler %q would panic in NewScheduler: %v", j.Label, err)
			}
		}
	})
}

// FuzzJobJournal writes arbitrary bytes as a session's job journal and
// opens the session on it: the journal → registry → wire boundary. New
// either refuses the journal or yields a session where every id GET
// /jobs lists answers GET /jobs/{id} with a 200, and replay is
// idempotent: closing and reopening lists the same jobs.
func FuzzJobJournal(f *testing.F) {
	cfg := testConfig(f)
	cfg.DisableMetrics = true
	f.Fuzz(func(t *testing.T, journal []byte) {
		cfg := cfg
		cfg.JobStorePath = filepath.Join(t.TempDir(), "jobs.journal")
		if err := os.WriteFile(cfg.JobStorePath, journal, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(cfg)
		if err != nil {
			return
		}
		first := wireListing(t, s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = New(cfg)
		if err != nil {
			t.Fatalf("reopening a journal the first session accepted: %v", err)
		}
		defer s.Close()
		if again := wireListing(t, s); !bytes.Equal(again, first) {
			t.Errorf("replay is not idempotent:\n first %s\n again %s", first, again)
		}
	})
}

// wireListing serves GET /jobs, requires every listed id to answer
// GET /jobs/{id} with a 200, and returns the listing's body.
func wireListing(t *testing.T, s *Session) []byte {
	t.Helper()
	h := NewHandler(s)
	get := func(path string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
		return rr
	}
	rr := get("/jobs")
	var listing struct{ Jobs []WireJobSummary }
	if rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &listing) != nil {
		t.Fatalf("GET /jobs = %d %s", rr.Code, rr.Body)
	}
	for _, j := range listing.Jobs {
		if one := get("/jobs/" + url.PathEscape(j.JobID)); one.Code != http.StatusOK {
			t.Errorf("listed job %q: GET /jobs/{id} = %d %s", j.JobID, one.Code, one.Body)
		}
	}
	return rr.Body.Bytes()
}
