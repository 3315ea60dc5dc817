package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// recordPrefix starts the line carrying a run's full record, which
// -compare reads back.
const recordPrefix = "record "

// jsonValue is a metric value for the result line: a failed operation
// can push a latency percentile to +Inf, which JSON cannot carry.
func jsonValue(v float64) any {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return v
}

// print writes the human-readable report, the record line and, last,
// the result line.
func (r *record) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  measured %gs  trace %v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Fprintf(w, "host %s  GOMAXPROCS %d  source %s\n", r.Host.Key, r.Host.GOMAXPROCS, r.Host.Source)
	fmt.Fprintf(w, "operations %d attempted, %d failed; measured wall %.3fs; steal %.3fs; %d simulated tasks; serving CPU %.3fs\n",
		r.Attempted, r.Failed, r.Wall, r.StealS, r.Tasks, r.CPUS)
	if r.LateN > 0 {
		fmt.Fprintf(w, "open-loop generator late: p90 %.3fms, max %.3fms over %d sends\n",
			r.LateP90MS, r.LateMaxMS, r.LateN)
	}
	fmt.Fprintf(w, "set-ups (s): %.4f\n", r.Setups)
	if r.Groups > 0 {
		fmt.Fprintf(w, "latency, task rate and CPU per task: medians over %d groups of >= %d operations\n", r.Groups, groupSize)
	}
	names := endToEndNames
	if r.Trace {
		names = perLayerNames
	}
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-32s %16.6f %-6s samples %d\n", n, m.Value, m.Unit, m.Samples)
	}
	for _, line := range r.CrossCheck {
		fmt.Fprintln(w, line)
	}
	for _, mm := range r.Mismatch {
		fmt.Fprintln(w, "MISMATCH:", mm)
	}
	b, _ := json.Marshal(r)
	fmt.Fprintln(w, recordPrefix+string(b))

	type value struct {
		Value any    `json:"value"`
		Unit  string `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]value)}
	for n, m := range r.Metrics {
		out.Metrics[n] = value{jsonValue(m.Value), m.Unit}
	}
	b, _ = json.Marshal(out)
	fmt.Fprintln(w, string(b))
}

// MarshalJSON keeps +Inf latencies out of the record line too.
func (m metric) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Value   any    `json:"value"`
		Unit    string `json:"unit"`
		Samples int    `json:"samples"`
	}{jsonValue(m.Value), m.Unit, m.Samples})
}

func (m *metric) UnmarshalJSON(b []byte) error {
	var v struct {
		Value   *float64 `json:"value"`
		Unit    string   `json:"unit"`
		Samples int      `json:"samples"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	m.Value, m.Unit, m.Samples = math.Inf(1), v.Unit, v.Samples
	if v.Value != nil {
		m.Value = *v.Value
	}
	return nil
}

// readRecord finds the last record line in a saved run output.
func readRecord(path string) (*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if s, ok := strings.CutPrefix(sc.Text(), recordPrefix); ok {
			last = s
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	if last == "" {
		return nil, fmt.Errorf("%s holds no %q line", path, strings.TrimSpace(recordPrefix))
	}
	var r record
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, fmt.Errorf("parsing the record in %s: %w", path, err)
	}
	return &r, nil
}

// compareRecords prints B's metrics against A's, flagging results
// measured on different hosts, whose comparison says nothing about the
// code.
func compareRecords(w io.Writer, pathA, pathB string) error {
	a, err := readRecord(pathA)
	if err != nil {
		return err
	}
	b, err := readRecord(pathB)
	if err != nil {
		return err
	}
	if a.Host.Key != b.Host.Key {
		fmt.Fprintf(w, "WARNING: different hosts, not comparable:\n  A %s\n  B %s\n", a.Host.Key, b.Host.Key)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "WARNING: different runs: A %s trace=%v %gs, B %s trace=%v %gs\n",
			a.Workload, a.Trace, a.Seconds, b.Workload, b.Trace, b.Seconds)
	}
	fmt.Fprintf(w, "A source %s seed %d steal %.3fs | B source %s seed %d steal %.3fs\n",
		a.Host.Source, a.Seed, a.StealS, b.Host.Source, b.Seed, b.StealS)
	fmt.Fprintf(w, "%-32s %14s %14s %9s %s\n", "metric", "A", "B", "B/A", "unit")
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ma := a.Metrics[n]
		mb, ok := b.Metrics[n]
		if !ok {
			fmt.Fprintf(w, "%-32s %14.6g %14s\n", n, ma.Value, "-")
			continue
		}
		fmt.Fprintf(w, "%-32s %14.6g %14.6g %9.4f %s\n", n, ma.Value, mb.Value, mb.Value/ma.Value, ma.Unit)
	}
	return nil
}
