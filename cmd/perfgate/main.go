// Command perfgate is the CI performance regression gate. It builds the
// root package's benchmarks (bench_test.go) at a base git revision,
// checked out into a temporary worktree, and in the working tree, then
// runs the two test binaries in alternating pairs. Both sides of a pair
// share the host and the moment's noise, so each gate reads the median
// of the per-pair change/base ratios, printed with its quartiles.
//
// On rows both sides report, tasks/s and the *Warm rows' allocs/op and
// B/op are gated by the ratio constants below. The change's runs alone
// must show MetricsHotPath at 0 allocs/op and WarmPlanSweep at 0
// plan_evals/op in every run, and a median WarmPlanSweep/ColdSweep
// ns/op within maxWarmPlanRatio, a loose ceiling (a 1-vCPU runner hides
// most of the search cost; PERF.md PR 9). A row the base lacks is
// printed as new and not gated; a row the change lacks fails.
//
// Usage:
//
//	perfgate [-base REV]
//
// REV defaults to the merge-base of HEAD and main (origin/main without
// a local main), or HEAD~1 when that is HEAD, as on a push to main.
// Exit status 0: every gate passed; 1: one failed; 2: none ran (a
// usage, git, build or run error).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

const (
	pairs     = 10
	benchTime = "500ms"

	minRateRatio     = 0.80 // tasks/s, change/base
	maxAllocRatio    = 1.10 // allocs/op on *Warm rows, change/base
	maxBytesRatio    = 1.30 // B/op on *Warm rows, change/base
	maxWarmPlanRatio = 1.10 // WarmPlanSweep/ColdSweep ns/op within the change
)

// rows are the gated benchmarks of bench_test.go.
var rows = []string{"RuntimeThroughput", "JOSSRun", "MetricsHotPath",
	"RuntimeThroughputWarm", "JOSSRunWarm", "SessionSweepWarm",
	"ColdSweep", "WarmPlanSweep", "Fig8SharedPlans", "Fig8"}

// run is one test-binary invocation: each row's values keyed by unit
// (ns/op, B/op, allocs/op and the rows' custom metrics).
type run map[string]map[string]float64

func main() {
	base := flag.String("base", "", "git revision to compare the working tree against "+
		"(default: the merge-base of HEAD and main, or HEAD~1 when that is HEAD)")
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code, err := perfgate(ctx, *base)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		code = 2
	}
	os.Exit(code)
}

func perfgate(ctx context.Context, base string) (int, error) {
	top, err := git(ctx, "", "rev-parse", "--show-toplevel")
	if err != nil {
		return 0, err
	}
	rev, err := baseRevision(ctx, top, base)
	if err != nil {
		return 0, err
	}
	tmp, err := os.MkdirTemp("", "perfgate")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp)
	fmt.Printf("perfgate: base %.12s vs the working tree, %d alternating pairs, -test.benchtime %s\n",
		rev, pairs, benchTime)

	var runs [2][]run // base, change
	err = withWorktree(ctx, top, rev, filepath.Join(tmp, "base"), func(dir string) error {
		bins, dirs := [2]string{filepath.Join(tmp, "base.test"), filepath.Join(tmp, "change.test")}, [2]string{dir, top}
		for side := range bins {
			if err := buildTests(ctx, dirs[side], bins[side]); err != nil {
				return fmt.Errorf("%s: %w", dirs[side], err)
			}
		}
		for i := 0; i < pairs; i++ {
			// Alternate which side goes first, so neither always
			// inherits the other's warm caches or thermal state.
			for _, side := range [][2]int{{0, 1}, {1, 0}}[i%2] {
				out, err := runBench(ctx, bins[side], dirs[side])
				if err != nil {
					return err
				}
				r, host := parseBench(out)
				if i == 0 && side == 0 {
					fmt.Printf("%sgo: %s\n", host, runtime.Version())
				}
				runs[side] = append(runs[side], r)
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	failures, checks := gate(os.Stdout, runs[0], runs[1])
	switch {
	case checks == 0:
		return 0, fmt.Errorf("no gate ran")
	case failures > 0:
		fmt.Printf("perfgate: FAILED %d of %d gates\n", failures, checks)
		return 1, nil
	}
	fmt.Printf("perfgate: passed %d gates\n", checks)
	return 0, nil
}

// baseRevision resolves -base, or picks the default the package
// comment describes.
func baseRevision(ctx context.Context, top, base string) (string, error) {
	if base != "" {
		return git(ctx, top, "rev-parse", "--verify", base+"^{commit}")
	}
	head, err := git(ctx, top, "rev-parse", "HEAD")
	if err != nil {
		return "", err
	}
	mb, err := git(ctx, top, "merge-base", "HEAD", "main")
	if err != nil {
		mb, err = git(ctx, top, "merge-base", "HEAD", "origin/main")
	}
	if err != nil || mb != head {
		return mb, err
	}
	return git(ctx, top, "rev-parse", "--verify", "HEAD~1^{commit}")
}

// withWorktree checks rev out into dir as a detached worktree of repo
// (local objects only), calls fn on it and removes the worktree again
// on every path, a cancelled context included.
func withWorktree(ctx context.Context, repo, rev, dir string, fn func(dir string) error) (err error) {
	defer func() {
		ctx := context.WithoutCancel(ctx)
		if _, rmErr := git(ctx, repo, "worktree", "remove", "--force", dir); rmErr != nil {
			// After a failed add there is no worktree to remove: delete
			// whatever the add left and prune its entry.
			delErr := os.RemoveAll(dir)
			_, pruneErr := git(ctx, repo, "worktree", "prune")
			err = errors.Join(err, delErr, pruneErr)
		}
	}()
	if _, err := git(ctx, repo, "worktree", "add", "--detach", "--quiet", dir, rev); err != nil {
		return err
	}
	return fn(dir)
}

func git(ctx context.Context, dir string, args ...string) (string, error) {
	out, err := command(ctx, dir, "git", args...)
	return strings.TrimSpace(out), err
}

// buildTests compiles the test binary of the package in dir to out.
// -trimpath keeps the checkout's path out of the binary, so identical
// sources give identical code layout on both sides.
func buildTests(ctx context.Context, dir, out string) error {
	_, err := command(ctx, dir, "go", "test", "-c", "-trimpath", "-o", out, ".")
	return err
}

func runBench(ctx context.Context, bin, dir string) (string, error) {
	return command(ctx, dir, bin, "-test.run", "^$",
		"-test.bench", "^Benchmark("+strings.Join(rows, "|")+")$",
		"-test.benchmem", "-test.benchtime", benchTime, "-test.timeout", "10m")
}

// command runs name in dir and returns its standard output; an error
// quotes both output streams.
func command(ctx context.Context, dir, name string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %v\n%s%s", filepath.Base(name), strings.Join(args, " "), err, out, &stderr)
	}
	return string(out), nil
}

var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parseBench reads the standard benchmark lines of a test binary's
// output, the -N GOMAXPROCS suffix stripped from each name, and returns
// the goos, goarch and cpu header lines beside them.
func parseBench(out string) (run, string) {
	r := run{}
	host := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "goos:") || strings.HasPrefix(line, "goarch:") || strings.HasPrefix(line, "cpu:") {
			host += line + "\n"
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		f := strings.Fields(m[2])
		vals := make(map[string]float64)
		for j := 0; j+1 < len(f); j += 2 {
			if v, err := strconv.ParseFloat(f[j], 64); err == nil {
				vals[f[j+1]] = v
			}
		}
		r[m[1]] = vals
	}
	return r, host
}

// gate prints one line per row and check and returns how many checks
// ran and how many of them failed.
func gate(w io.Writer, base, change []run) (failures, checks int) {
	check := func(ok bool, row, unit, detail string) {
		checks++
		status := "ok"
		if !ok {
			status = "FAIL"
			failures++
		}
		fmt.Fprintf(w, "  %-4s %-23s %-13s %s\n", status, row, unit, detail)
	}
	pairGate := func(row, unit string, lo, hi float64) {
		if r := ratios(base, change, row, unit); r != nil {
			_, m, _ := quartiles(r)
			check(m >= lo && m <= hi, row, unit, fmt.Sprintf("%s  gate [%.2f, %.2f]", spread(r), lo, hi))
		}
	}
	for _, row := range rows {
		if n := count(change, row); n < len(change) || n == 0 {
			check(false, row, "", fmt.Sprintf("reported by %d of %d change runs", n, len(change)))
			continue
		}
		if count(base, row) == 0 {
			fmt.Fprintf(w, "  %-4s %s\n", "new", row)
			continue
		}
		fmt.Fprintf(w, "  %-4s %-23s %-13s %s\n", "", row, "ns/op", spread(ratios(base, change, row, "ns/op")))
		pairGate(row, "tasks/s", minRateRatio, math.Inf(1))
		if strings.HasSuffix(row, "Warm") {
			pairGate(row, "allocs/op", 0, maxAllocRatio)
			pairGate(row, "B/op", 0, maxBytesRatio)
		}
	}
	if len(change) == 0 {
		return failures, checks
	}
	var hotAllocs, warmEvals, warmCold []float64
	for _, r := range change {
		hotAllocs = append(hotAllocs, r["MetricsHotPath"]["allocs/op"])
		warmEvals = append(warmEvals, r["WarmPlanSweep"]["plan_evals/op"])
		warmCold = append(warmCold, r["WarmPlanSweep"]["ns/op"]/r["ColdSweep"]["ns/op"])
	}
	check(slices.Max(hotAllocs) == 0, "MetricsHotPath", "allocs/op",
		fmt.Sprintf("max %g over the change runs  gate 0", slices.Max(hotAllocs)))
	check(slices.Max(warmEvals) == 0, "WarmPlanSweep", "plan_evals/op",
		fmt.Sprintf("max %g over the change runs  gate 0", slices.Max(warmEvals)))
	_, m, _ := quartiles(warmCold)
	check(m <= maxWarmPlanRatio, "WarmPlanSweep/ColdSweep", "ns/op",
		fmt.Sprintf("%s  gate [0, %.2f] within the change", spread(warmCold), maxWarmPlanRatio))
	return failures, checks
}

func count(runs []run, row string) int {
	n := 0
	for _, r := range runs {
		if _, ok := r[row]; ok {
			n++
		}
	}
	return n
}

// ratios returns row's change/base ratio of unit for each pair in which
// both sides report it and the base value is not zero.
func ratios(base, change []run, row, unit string) []float64 {
	var out []float64
	for i := 0; i < len(base) && i < len(change); i++ {
		b, okB := base[i][row][unit]
		c, okC := change[i][row][unit]
		if okB && okC && b != 0 {
			out = append(out, c/b)
		}
	}
	return out
}

func spread(vals []float64) string {
	q1, m, q3 := quartiles(vals)
	return fmt.Sprintf("median %.3f [%.3f, %.3f]", m, q1, q3)
}

// quartiles returns the 25th, 50th and 75th percentiles of vals,
// interpolated linearly between order statistics.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := slices.Sorted(slices.Values(vals))
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		i := int(pos)
		if frac := pos - float64(i); frac > 0 {
			return s[i] + frac*(s[i+1]-s[i])
		}
		return s[i]
	}
	return q(0.25), q(0.5), q(0.75)
}
