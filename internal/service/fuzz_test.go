package service

import (
	"bytes"
	"encoding/json"
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
		if req.Trace != nil || req.Plans != nil || req.trainer {
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

// FuzzBuildTrainRequest feeds arbitrary bytes through the /train
// decode path. A request that passes must carry only values
// EnqueueTrain and the rounds' Enqueue accept, with Parallel within
// the session's workers.
func FuzzBuildTrainRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var wr WireTrainRequest
		if decodeWire(data, &wr) != nil {
			return
		}
		req, err := buildTrainRequest(wr, fuzzWorkers)
		if err != nil {
			return
		}
		if req.Parallel < 1 || req.Parallel > fuzzWorkers {
			t.Errorf("Parallel = %d, want within [1, %d]", req.Parallel, fuzzWorkers)
		}
		if req.Weight < 0 || req.Weight > maxWireWeight || req.SensorPeriodSec < 0 {
			t.Errorf("negative or oversized knob: weight %g, sensor_period_sec %g", req.Weight, req.SensorPeriodSec)
		}
		if req.Scale < 0 || req.Scale > maxWireScale {
			t.Errorf("Scale = %g, want within [0, %d]", req.Scale, maxWireScale)
		}
		if req.Plans != nil {
			t.Error("the wire set a Go-API-only field")
		}
	})
}
