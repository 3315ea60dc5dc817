package main

import "testing"

// TestReserveServingP pins the worker/GOMAXPROCS arithmetic: the
// daemon always runs one processor more than it has simulation
// workers, whether the worker count is defaulted or given.
func TestReserveServingP(t *testing.T) {
	for _, tc := range []struct {
		parallel, procs     int
		workers, gomaxprocs int
	}{
		{parallel: 0, procs: 1, workers: 1, gomaxprocs: 2},
		{parallel: 0, procs: 2, workers: 2, gomaxprocs: 3},
		{parallel: 0, procs: 8, workers: 8, gomaxprocs: 9},
		{parallel: 3, procs: 2, workers: 3, gomaxprocs: 4},
		{parallel: 3, procs: 16, workers: 3, gomaxprocs: 4},
	} {
		w, p := reserveServingP(tc.parallel, tc.procs)
		if w != tc.workers || p != tc.gomaxprocs {
			t.Errorf("reserveServingP(%d, %d) = %d workers, %d Ps; want %d, %d",
				tc.parallel, tc.procs, w, p, tc.workers, tc.gomaxprocs)
		}
	}
}
