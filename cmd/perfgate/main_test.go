package main

import (
	"context"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: joss
cpu: Some CPU @ 2.10GHz
BenchmarkRuntimeThroughput-2   	     100	    656088 ns/op	    992815 tasks/s	  262472 B/op	     210 allocs/op
BenchmarkWarmPlanSweep-16      	      10	  12378201 ns/op	         0 plan_evals/op	      65 allocs/op	    8392 B/op
BenchmarkFig8                  	       1	  27705174 ns/op	         0.8542 JOSS-vs-GRWS
BenchmarkAblation-3-2          	       5	       100 ns/op
--- FAIL: BenchmarkBroken-2
PASS
ok  	joss	0.246s
`
	r, host := parseBench(out)
	if want := "goos: linux\ngoarch: amd64\ncpu: Some CPU @ 2.10GHz\n"; host != want {
		t.Errorf("host = %q, want %q", host, want)
	}
	want := run{
		"RuntimeThroughput": {"ns/op": 656088, "tasks/s": 992815, "B/op": 262472, "allocs/op": 210},
		"WarmPlanSweep":     {"ns/op": 12378201, "plan_evals/op": 0, "allocs/op": 65, "B/op": 8392},
		"Fig8":              {"ns/op": 27705174, "JOSS-vs-GRWS": 0.8542},
		"Ablation-3":        {"ns/op": 100},
	}
	if !reflect.DeepEqual(r, want) {
		t.Errorf("parsed %v\nwant   %v", r, want)
	}
}

func TestQuartiles(t *testing.T) {
	if q1, m, q3 := quartiles([]float64{4, 1, 3, 2}); q1 != 1.75 || m != 2.5 || q3 != 3.25 {
		t.Errorf("quartiles = %v %v %v, want 1.75 2.5 3.25", q1, m, q3)
	}
}

// healthy returns pairs of base and change runs in which every gated row
// reports the same passing values on both sides.
func healthy() (base, change []run) {
	for i := 0; i < pairs; i++ {
		for _, side := range []*[]run{&base, &change} {
			r := run{}
			for _, row := range rows {
				r[row] = map[string]float64{"ns/op": 1000, "tasks/s": 1000, "allocs/op": 100, "B/op": 100, "plan_evals/op": 0}
			}
			r["MetricsHotPath"]["allocs/op"] = 0
			*side = append(*side, r)
		}
	}
	return base, change
}

func TestGate(t *testing.T) {
	cases := []struct {
		name, row, unit string
		val             float64
		runs            []int // the change runs set to val; nil is all of them
		dropBase        bool  // the base lacks the row
		fail            bool
	}{
		{"healthy", "Fig8", "ns/op", 1000, nil, false, false},
		{"tasks/s at limit", "RuntimeThroughput", "tasks/s", 800, nil, false, false},
		{"tasks/s inside", "RuntimeThroughput", "tasks/s", 801, nil, false, false},
		{"tasks/s outside", "RuntimeThroughput", "tasks/s", 799, nil, false, true},
		{"allocs at limit", "JOSSRunWarm", "allocs/op", 110, nil, false, false},
		{"allocs inside", "JOSSRunWarm", "allocs/op", 109, nil, false, false},
		{"allocs outside", "JOSSRunWarm", "allocs/op", 111, nil, false, true},
		{"bytes at limit", "SessionSweepWarm", "B/op", 130, nil, false, false},
		{"bytes inside", "SessionSweepWarm", "B/op", 129, nil, false, false},
		{"bytes outside", "SessionSweepWarm", "B/op", 131, nil, false, true},
		{"allocs ungated on a cold row", "JOSSRun", "allocs/op", 500, nil, false, false},
		{"a minority of slow pairs", "RuntimeThroughputWarm", "tasks/s", 100, []int{0, 3, 5, 8}, false, false},
		{"a majority of slow pairs", "RuntimeThroughputWarm", "tasks/s", 100, []int{0, 1, 3, 5, 6, 8}, false, true},
		{"new row", "RuntimeThroughputWarm", "tasks/s", 1, nil, true, false},
		{"warm/cold at limit", "WarmPlanSweep", "ns/op", 1100, nil, false, false},
		{"warm/cold inside", "WarmPlanSweep", "ns/op", 1099, nil, false, false},
		{"warm/cold outside", "WarmPlanSweep", "ns/op", 1101, nil, false, true},
		{"hot path allocates once", "MetricsHotPath", "allocs/op", 1, []int{7}, false, true},
		{"warm sweep searches once", "WarmPlanSweep", "plan_evals/op", 2, []int{4}, false, true},
		{"new hot path allocates once", "MetricsHotPath", "allocs/op", 1, []int{2}, true, true},
	}
	for _, c := range cases {
		base, change := healthy()
		for i := range change {
			if c.runs == nil || slices.Contains(c.runs, i) {
				change[i][c.row][c.unit] = c.val
			}
			if c.dropBase {
				delete(base[i], c.row)
			}
		}
		var out strings.Builder
		failures, checks := gate(&out, base, change)
		if checks == 0 || (failures > 0) != c.fail {
			t.Errorf("%s: %d of %d checks failed, want fail=%v\n%s", c.name, failures, checks, c.fail, &out)
		}
		if c.dropBase && !strings.Contains(out.String(), "new  "+c.row+"\n") {
			t.Errorf("%s: %s not listed as new\n%s", c.name, c.row, &out)
		}
	}
}

func TestGateMissingRowFails(t *testing.T) {
	base, change := healthy()
	delete(change[6], "ColdSweep")
	if failures, _ := gate(io.Discard, base, change); failures == 0 {
		t.Error("a row missing from one change run passed")
	}
}

// TestWorktreeRemoved checks that withWorktree leaves only the main tree
// behind whether the gate passes, fails, or the base fails to build.
func TestWorktreeRemoved(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	ctx := context.Background()
	repo := t.TempDir()
	// The committed package's test binary does not compile.
	for name, body := range map[string]string{
		"go.mod":    "module broken\n\ngo 1.21\n",
		"x_test.go": "package broken\n\nfunc Broken( {\n",
	} {
		if err := os.WriteFile(filepath.Join(repo, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, args := range [][]string{{"init", "-q"}, {"add", "."},
		{"-c", "user.name=perfgate", "-c", "user.email=perfgate@example.invalid", "commit", "-q", "-m", "broken"}} {
		if _, err := git(ctx, repo, args...); err != nil {
			t.Fatal(err)
		}
	}
	errFailed := errors.New("gate failed")
	for name, fn := range map[string]func(dir string) error{
		"pass": func(string) error { return nil },
		"fail": func(string) error { return errFailed },
		"base build fails": func(dir string) error {
			return buildTests(ctx, dir, filepath.Join(t.TempDir(), "base.test"))
		},
	} {
		dir := filepath.Join(t.TempDir(), "base")
		err := withWorktree(ctx, repo, "HEAD", dir, func(d string) error {
			if _, err := os.Stat(filepath.Join(d, "x_test.go")); err != nil {
				t.Errorf("%s: HEAD not checked out: %v", name, err)
			}
			return fn(d)
		})
		if (err == nil) != (name == "pass") || (name == "fail" && !errors.Is(err, errFailed)) {
			t.Errorf("%s: withWorktree = %v", name, err)
		}
		list, err := git(ctx, repo, "worktree", "list", "--porcelain")
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(list, "worktree "); n != 1 {
			t.Errorf("%s: %d worktrees left, want only the main tree:\n%s", name, n, list)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%s: worktree directory %s left behind (%v)", name, dir, err)
		}
	}
}
