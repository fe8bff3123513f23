// Package obs is the observability layer of the reproduction: a
// dependency-free metrics registry (atomic counters, gauges and
// fixed-bucket histograms with Prometheus-text and JSON exposition), a
// structured JSONL event emitter, and one live campaign tally that serves
// /status and draws the throttled progress line.
//
// Everything in this package is strictly passive: recording a metric or
// emitting an event never changes what the instrumented code computes, so
// campaign and simulation results are identical with observability on or
// off. All sink types are nil-safe — a nil *Registry, *Counter, *Emitter
// or *CampaignStatus accepts every call as a no-op — which lets the rest of the
// stack thread optional instrumentation without branching at call sites.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/letgo-hpc/letgo/internal/stats"
)

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func floatFrom(b uint64) float64 { return math.Float64frombits(b) }

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float-valued metric that can move in both directions.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(floatBits(v))
	}
}

// Add accumulates v (CAS loop; safe for concurrent use).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, floatBits(floatFrom(old)+v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return floatFrom(g.bits.Load())
}

// maxHistogramSamples bounds the raw observations a histogram retains for
// quantile estimates; past it only the bucket counts keep growing.
const maxHistogramSamples = 4096

// Histogram counts observations into fixed buckets and retains the first
// maxHistogramSamples raw values so snapshots can report exact quantiles
// (via stats.Quantile) for moderately sized campaigns.
type Histogram struct {
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    Gauge

	mu      sync.Mutex
	samples []float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	h.mu.Lock()
	if len(h.samples) < maxHistogramSamples {
		h.samples = append(h.samples, v)
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// metricKind discriminates the registry families.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one (family, label set) instance.
type metric struct {
	labels  []string // alternating k, v, sorted by key
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// family groups all label variants of one metric name.
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64
	metrics map[string]*metric // keyed by serialized labels
}

// Registry owns a set of named metrics. The zero value is not usable; use
// NewRegistry. All methods are safe for concurrent use, and lookups of an
// existing metric are cheap enough for per-injection (not per-instruction)
// paths.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Help attaches a help string to the named metric family, shown in the
// Prometheus exposition.
func (r *Registry) Help(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		f.help = help
	} else {
		r.families[name] = &family{name: name, help: help, metrics: make(map[string]*metric)}
	}
}

// Counter returns (creating if needed) the counter with the given name and
// label pairs ("k1", "v1", "k2", "v2", ...). A nil registry returns nil.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	m := r.lookup(name, kindCounter, nil, labels)
	if m == nil {
		return nil
	}
	return m.counter
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	m := r.lookup(name, kindGauge, nil, labels)
	if m == nil {
		return nil
	}
	return m.gauge
}

// Histogram returns (creating if needed) the named histogram. The buckets
// are the ascending upper bounds used on first creation of the family;
// later calls may pass nil.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	m := r.lookup(name, kindHistogram, buckets, labels)
	if m == nil {
		return nil
	}
	return m.hist
}

// ExpBuckets returns n ascending bucket bounds starting at start and
// multiplying by factor — the shape crash-latency and duration histograms
// want.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

func (r *Registry) lookup(name string, kind metricKind, buckets []float64, labels []string) *metric {
	if r == nil {
		return nil
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %q has an odd label list %v", name, labels))
	}
	ls := sortLabels(labels)
	key := labelKey(ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: kind, metrics: make(map[string]*metric)}
		r.families[name] = f
	}
	if f.metrics == nil {
		f.metrics = make(map[string]*metric)
	}
	if len(f.metrics) == 0 {
		// The family may have been pre-declared by Help with no kind yet.
		f.kind = kind
		if kind == kindHistogram {
			f.buckets = append([]float64(nil), buckets...)
		}
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
	}
	m, ok := f.metrics[key]
	if !ok {
		m = &metric{labels: ls}
		switch kind {
		case kindCounter:
			m.counter = &Counter{}
		case kindGauge:
			m.gauge = &Gauge{}
		case kindHistogram:
			m.hist = &Histogram{
				bounds: f.buckets,
				counts: make([]atomic.Uint64, len(f.buckets)+1),
			}
		}
		f.metrics[key] = m
	}
	return m
}

// sortLabels normalizes an alternating k/v list into key order.
func sortLabels(labels []string) []string {
	n := len(labels) / 2
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return labels[2*idx[a]] < labels[2*idx[b]] })
	out := make([]string, 0, len(labels))
	for _, i := range idx {
		out = append(out, labels[2*i], labels[2*i+1])
	}
	return out
}

func labelKey(sorted []string) string {
	return strings.Join(sorted, "\x00")
}

// promLabels renders a sorted label list as {k="v",...} ("" when empty).
func promLabels(sorted []string, extra ...string) string {
	all := append(append([]string(nil), sorted...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(all); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", all[i], all[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// labelMap converts a sorted k/v list to a map for JSON snapshots.
func labelMap(sorted []string) map[string]string {
	if len(sorted) == 0 {
		return nil
	}
	m := make(map[string]string, len(sorted)/2)
	for i := 0; i+1 < len(sorted); i += 2 {
		m[sorted[i]] = sorted[i+1]
	}
	return m
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  uint64            `json:"value"`
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// Bucket is one histogram bucket in a snapshot; Count is cumulative
// (Prometheus "le" semantics).
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// HistogramValue is one histogram in a snapshot. P50/P90/P95/P99 are
// exact quantiles over the retained raw samples (the first 4096
// observations).
type HistogramValue struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Buckets []Bucket          `json:"buckets"`
	P50     float64           `json:"p50"`
	P90     float64           `json:"p90"`
	P95     float64           `json:"p95"`
	P99     float64           `json:"p99"`
}

// Snapshot is a point-in-time copy of every metric in a registry, sorted
// by name then label signature, so its JSON form is deterministic for
// deterministic instrumented code.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters,omitempty"`
	Gauges     []GaugeValue     `json:"gauges,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// Snapshot captures the current values of all metrics.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		keys := make([]string, 0, len(f.metrics))
		for k := range f.metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			m := f.metrics[k]
			switch f.kind {
			case kindCounter:
				snap.Counters = append(snap.Counters, CounterValue{
					Name: f.name, Labels: labelMap(m.labels), Value: m.counter.Value(),
				})
			case kindGauge:
				snap.Gauges = append(snap.Gauges, GaugeValue{
					Name: f.name, Labels: labelMap(m.labels), Value: m.gauge.Value(),
				})
			case kindHistogram:
				snap.Histograms = append(snap.Histograms, m.hist.snapshot(f.name, m.labels))
			}
		}
	}
	return snap
}

func (h *Histogram) snapshot(name string, labels []string) HistogramValue {
	hv := HistogramValue{
		Name:   name,
		Labels: labelMap(labels),
		Count:  h.count.Load(),
		Sum:    h.sum.Value(),
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		hv.Buckets = append(hv.Buckets, Bucket{UpperBound: b, Count: cum})
	}
	h.mu.Lock()
	samples := append([]float64(nil), h.samples...)
	h.mu.Unlock()
	hv.P50 = stats.Quantile(samples, 0.50)
	hv.P90 = stats.Quantile(samples, 0.90)
	hv.P95 = stats.Quantile(samples, 0.95)
	hv.P99 = stats.Quantile(samples, 0.99)
	return hv
}

// quantiles returns exact p50/p95/p99 over the retained raw samples.
func (h *Histogram) quantiles() (p50, p95, p99 float64) {
	h.mu.Lock()
	samples := append([]float64(nil), h.samples...)
	h.mu.Unlock()
	return stats.Quantile(samples, 0.50), stats.Quantile(samples, 0.95), stats.Quantile(samples, 0.99)
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (text/plain; version 0.0.4): HELP/TYPE headers, one line per
// sample, histograms expanded into _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		if len(f.metrics) == 0 {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, [...]string{"counter", "gauge", "histogram"}[f.kind])
		keys := make([]string, 0, len(f.metrics))
		for k := range f.metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			m := f.metrics[k]
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, promLabels(m.labels), m.counter.Value())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, promLabels(m.labels), formatFloat(m.gauge.Value()))
			case kindHistogram:
				h := m.hist
				var cum uint64
				for i, bound := range h.bounds {
					cum += h.counts[i].Load()
					fmt.Fprintf(&b, "%s_bucket%s %d\n",
						f.name, promLabels(m.labels, "le", formatFloat(bound)), cum)
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n",
					f.name, promLabels(m.labels, "le", "+Inf"), h.count.Load())
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, promLabels(m.labels), formatFloat(h.sum.Value()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, promLabels(m.labels), h.count.Load())
				// Exact quantiles over the retained raw samples, as
				// summary-style series next to the bucket expansion.
				p50, p95, p99 := h.quantiles()
				for _, q := range [...]struct {
					q string
					v float64
				}{{"0.5", p50}, {"0.95", p95}, {"0.99", p99}} {
					fmt.Fprintf(&b, "%s%s %s\n", f.name, promLabels(m.labels, "quantile", q.q), formatFloat(q.v))
				}
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
