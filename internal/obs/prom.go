// Prometheus text exposition (format version 0.0.4) and the JSON
// snapshot twin. Both walk the registry under its mutex and read each
// series atomically; neither touches the hot path.
package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
)

// PromContentType is the Content-Type for WritePrometheus output.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// formatValue renders a sample value the way Prometheus clients do:
// shortest round-trip decimal.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every registered family in registration
// order: # HELP and # TYPE once per family, then one line per series
// (histograms expand into cumulative _bucket lines plus _sum/_count).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, f := range r.fams {
		if f.help != "" {
			bw.WriteString("# HELP " + f.name + " " + f.help + "\n")
		}
		bw.WriteString("# TYPE " + f.name + " " + f.kind.String() + "\n")
		for _, s := range f.ser {
			switch f.kind {
			case kindCounter:
				writeSample(bw, f.name, s.labels, "", float64(s.ctr.Value()))
			case kindGauge:
				writeSample(bw, f.name, s.labels, "", float64(s.gauge.Value()))
			case kindGaugeFunc:
				writeSample(bw, f.name, s.labels, "", s.gfn())
			case kindHistogram:
				writeHistogram(bw, f.name, s)
			}
		}
	}
	return bw.Flush()
}

// writeSample emits `name{labels,extra} value`.
func writeSample(bw *bufio.Writer, name, labels, extra string, v float64) {
	bw.WriteString(name)
	if labels != "" || extra != "" {
		bw.WriteByte('{')
		bw.WriteString(labels)
		if labels != "" && extra != "" {
			bw.WriteByte(',')
		}
		bw.WriteString(extra)
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(formatValue(v))
	bw.WriteByte('\n')
}

// writeHistogram emits the cumulative bucket series, then sum and
// count. Bucket counts are read once so the cumulative sums and the
// final count agree even while writers are active.
func writeHistogram(bw *bufio.Writer, name string, s *series) {
	bounds, counts, sum := s.histData()
	var cum int64
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(bounds) {
			le = formatValue(bounds[i])
		}
		writeSample(bw, name+"_bucket", s.labels, `le="`+le+`"`, float64(cum))
	}
	writeSample(bw, name+"_sum", s.labels, "", sum)
	writeSample(bw, name+"_count", s.labels, "", float64(cum))
}

// BucketPoint is one histogram bucket in a JSON snapshot: the upper
// edge (+Inf rendered as null) and the cumulative count at that edge.
type BucketPoint struct {
	LE    *float64 `json:"le"` // nil = +Inf
	Count int64    `json:"count"`
}

// Point is one series in a JSON snapshot.
type Point struct {
	Name    string            `json:"name"`
	Type    string            `json:"type"`
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value"`
	Sum     float64           `json:"sum,omitempty"`
	Buckets []BucketPoint     `json:"buckets,omitempty"`
}

// Snapshot returns every series as a Point. Histogram points carry
// Value = observation count, Sum, and cumulative Buckets.
func (r *Registry) Snapshot() []Point {
	r.mu.Lock()
	defer r.mu.Unlock()
	var pts []Point
	for _, f := range r.fams {
		for _, s := range f.ser {
			p := Point{Name: f.name, Type: f.kind.String(), Labels: s.lmap}
			switch f.kind {
			case kindCounter:
				p.Value = float64(s.ctr.Value())
			case kindGauge:
				p.Value = float64(s.gauge.Value())
			case kindGaugeFunc:
				p.Value = s.gfn()
			case kindHistogram:
				bounds, counts, sum := s.histData()
				var cum int64
				for i, c := range counts {
					cum += c
					var le *float64
					if i < len(bounds) {
						v := bounds[i]
						le = &v
					}
					p.Buckets = append(p.Buckets, BucketPoint{LE: le, Count: cum})
				}
				p.Value = float64(cum)
				p.Sum = sum
			}
			pts = append(pts, p)
		}
	}
	return pts
}

// WriteJSON writes the Snapshot as a JSON document:
// {"metrics":[...]}.
func (r *Registry) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(struct {
		Metrics []Point `json:"metrics"`
	}{Metrics: r.Snapshot()})
}

// ParseJSON decodes a WriteJSON document, such as a daemon's
// /metrics?format=json response.
func ParseJSON(r io.Reader) ([]Point, error) {
	var doc struct {
		Metrics []Point `json:"metrics"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, err
	}
	return doc.Metrics, nil
}
