package fleet

import (
	"runtime"
	"testing"
	"time"

	"joss/internal/obs"
)

// TestFleetHealthPassthroughAndMetrics pins the coordinator's
// observability surface: heartbeats pass the shard's /healthz build
// and capacity identity (uptime, workers, GOMAXPROCS, version) through to
// Health(), successful probes land in the per-shard RTT histogram, a
// dead shard's probes land in its failure counter, and a finished
// sweep is tallied in joss_fleet_sweeps_total.
func TestFleetHealthPassthroughAndMetrics(t *testing.T) {
	srv, _ := newShard(t, nil)
	// The second target accepts nothing: an httptest server closed
	// immediately leaves a port that refuses connections.
	srvDead, _ := newShard(t, nil)
	dead := srvDead.URL
	srvDead.Close()

	c := newCoordinator(t, Config{
		Shards:          []string{srv.URL, dead},
		HeartbeatPeriod: 20 * time.Millisecond,
	})

	// Wait for the live shard's first successful beat to land (the
	// version field only arrives via /healthz).
	deadline := time.Now().Add(5 * time.Second)
	var live ShardHealth
	for {
		live = c.Health()[0]
		if live.Version != "" || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if live.Version == "" {
		t.Fatalf("heartbeat never delivered the build identity: %+v", live)
	}
	if live.UptimeSec <= 0 {
		t.Errorf("uptime_sec = %v, want > 0", live.UptimeSec)
	}
	if want := runtime.GOMAXPROCS(0); live.GOMAXPROCS != want {
		t.Errorf("gomaxprocs = %d, want the shard process's %d", live.GOMAXPROCS, want)
	}

	res, deg, err := c.Sweep(testRequest())
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if res.UnitsDone != res.Units {
		t.Errorf("units %d/%d, want all served", res.UnitsDone, res.Units)
	}
	_ = deg // one shard is dead; degradation depends on ring placement

	// The sweep grew the shard's worker pool (it grows on demand);
	// the next heartbeat passes the count through.
	deadline = time.Now().Add(5 * time.Second)
	for {
		live = c.Health()[0]
		if live.Workers > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if live.Workers <= 0 {
		t.Errorf("workers = %d after a served sweep, want > 0", live.Workers)
	}

	pts := c.Metrics().Snapshot()
	get := func(name, shard string) (obs.Point, bool) {
		for _, p := range pts {
			if p.Name == name && (shard == "" || p.Labels["shard"] == shard) {
				return p, true
			}
		}
		return obs.Point{}, false
	}
	if p, ok := get("joss_fleet_sweeps_total", ""); !ok || p.Value != 1 {
		t.Errorf("sweeps_total = %+v, want 1", p)
	}
	if p, ok := get("joss_fleet_heartbeat_rtt_seconds", srv.URL); !ok || p.Value < 1 {
		t.Errorf("live shard RTT histogram = %+v, want >= 1 observation", p)
	}
	if p, ok := get("joss_fleet_heartbeat_failures_total", dead); !ok || p.Value < 1 {
		t.Errorf("dead shard failure counter = %+v, want >= 1", p)
	}
	if p, ok := get("joss_fleet_heartbeat_failures_total", srv.URL); !ok || p.Value != 0 {
		t.Errorf("live shard failure counter = %+v, want 0", p)
	}
}
