package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// Snapshot is a point-in-time copy of every family in a registry, in
// registration order. It is what the JSON endpoint serves and what
// Cluster.MetricsSnapshot returns; cmd/nmtop decodes it back from JSON.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// FamilySnapshot is one family's metrics.
type FamilySnapshot struct {
	Name    string           `json:"name"`
	Help    string           `json:"help,omitempty"`
	Kind    Kind             `json:"kind"`
	Metrics []MetricSnapshot `json:"metrics"`
}

// MetricSnapshot is one labelled metric. Counters and gauges carry
// Value; histograms carry Count, Sum (seconds) and the cumulative
// Buckets.
type MetricSnapshot struct {
	Labels  []Label          `json:"labels,omitempty"`
	Value   float64          `json:"value"`
	Count   uint64           `json:"count,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// BucketSnapshot is one cumulative histogram bucket: observations at or
// under LE seconds. The final bucket has LE = +Inf, encoded as the JSON
// string "+Inf" (encoding/json refuses infinite floats).
type BucketSnapshot struct {
	LE    float64 `json:"-"`
	Count uint64  `json:"count"`
}

// bucketJSON is the wire form of BucketSnapshot; le is a number or the
// string "+Inf".
type bucketJSON struct {
	LE    any    `json:"le"`
	Count uint64 `json:"count"`
}

// MarshalJSON encodes the +Inf bound as the string "+Inf".
func (b BucketSnapshot) MarshalJSON() ([]byte, error) {
	le := any(b.LE)
	if math.IsInf(b.LE, 1) {
		le = "+Inf"
	}
	return json.Marshal(bucketJSON{LE: le, Count: b.Count})
}

// UnmarshalJSON accepts a numeric or "+Inf" bound.
func (b *BucketSnapshot) UnmarshalJSON(data []byte) error {
	var w bucketJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	b.Count = w.Count
	switch v := w.LE.(type) {
	case float64:
		b.LE = v
	case string:
		b.LE = math.Inf(1)
	}
	return nil
}

// Label returns the metric's value for one label name ("" if unset).
func (m *MetricSnapshot) Label(name string) string {
	for _, l := range m.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// Quantile estimates the q-quantile (0 < q <= 1) of a histogram metric
// in seconds, interpolating linearly inside the winning bucket. It
// returns 0 with no observations; mass in the +Inf bucket reports the
// highest finite bound (the histogram cannot see further).
func (m *MetricSnapshot) Quantile(q float64) float64 {
	if len(m.Buckets) == 0 || m.Count == 0 {
		return 0
	}
	rank := q * float64(m.Count)
	lowerBound, lowerCount := 0.0, uint64(0)
	for i, b := range m.Buckets {
		if float64(b.Count) >= rank {
			if i == len(m.Buckets)-1 {
				// +Inf bucket: report the last finite edge.
				return lowerBound
			}
			span := float64(b.Count - lowerCount)
			if span <= 0 {
				return b.LE
			}
			frac := (rank - float64(lowerCount)) / span
			return lowerBound + (b.LE-lowerBound)*frac
		}
		lowerBound, lowerCount = b.LE, b.Count
	}
	return lowerBound
}

// Find returns the first metric of the named family whose label set
// includes every given label, or nil. Snapshot consumers (nmtop,
// tests) use it instead of hand-rolled loops.
func (s Snapshot) Find(family string, labels ...Label) *MetricSnapshot {
	for fi := range s.Families {
		f := &s.Families[fi]
		if f.Name != family {
			continue
		}
	next:
		for mi := range f.Metrics {
			m := &f.Metrics[mi]
			for _, want := range labels {
				if m.Label(want.Name) != want.Value {
					continue next
				}
			}
			return m
		}
	}
	return nil
}

// Family returns the named family snapshot, or nil.
func (s Snapshot) Family(name string) *FamilySnapshot {
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// Snapshot captures every family. Func instruments are invoked here, on
// the scraping goroutine — never on a hot path.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	out := Snapshot{Families: make([]FamilySnapshot, 0, len(fams))}
	for _, f := range fams {
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		ms := make([]*metric, 0, len(keys))
		for _, k := range keys {
			ms = append(ms, f.metrics[k])
		}
		f.mu.Unlock()

		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind,
			Metrics: make([]MetricSnapshot, 0, len(ms))}
		for _, m := range ms {
			fs.Metrics = append(fs.Metrics, m.snapshot())
		}
		out.Families = append(out.Families, fs)
	}
	return out
}

// snapshot copies one metric's current values.
func (m *metric) snapshot() MetricSnapshot {
	out := MetricSnapshot{Labels: m.labels}
	switch {
	case m.counter != nil:
		out.Value = float64(m.counter.Value())
	case m.counterFn != nil:
		out.Value = float64(m.counterFn())
	case m.gauge != nil:
		out.Value = float64(m.gauge.Value())
	case m.gaugeFn != nil:
		out.Value = m.gaugeFn()
	case m.hist != nil:
		h := m.hist
		out.Count = h.count.Load()
		out.Sum = float64(h.sumNS.Load()) / 1e9
		out.Value = float64(out.Count)
		out.Buckets = make([]BucketSnapshot, len(h.buckets))
		cum := uint64(0)
		for i := range h.buckets {
			cum += h.buckets[i].Load()
			le := inf
			if i < len(h.boundsNS) {
				le = float64(h.boundsNS[i]) / 1e9
			}
			out.Buckets[i] = BucketSnapshot{LE: le, Count: cum}
		}
	}
	return out
}

var inf = math.Inf(1)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): HELP/TYPE headers, one line per
// sample, histogram buckets cumulative with le labels in seconds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, f := range r.Snapshot().Families {
		if f.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, m := range f.Metrics {
			if f.Kind == KindHistogram {
				for _, bk := range m.Buckets {
					le := "+Inf"
					if bk.LE != inf {
						le = formatFloat(bk.LE)
					}
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.Name,
						labelString(m.Labels, Label{Name: "le", Value: le}), bk.Count)
				}
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.Name, labelString(m.Labels), formatFloat(m.Sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.Name, labelString(m.Labels), m.Count)
				continue
			}
			fmt.Fprintf(&b, "%s%s %s\n", f.Name, labelString(m.Labels), formatFloat(m.Value))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// labelString renders {a="b",c="d"} (empty string for no labels).
func labelString(labels []Label, extra ...Label) string {
	all := labels
	if len(extra) > 0 {
		all = append(append([]Label(nil), labels...), extra...)
	}
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeValue(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// formatFloat renders a sample value: integers without a fraction,
// everything else in compact scientific-capable form.
func formatFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
