// Package metrics is the reproduction's unified measurement substrate: a
// dependency-free, allocation-conscious registry of counters, gauges, and
// log-linear histograms that every hot layer (framing, connections, the
// testbed server, the scan engine) emits into.
//
// The paper's value is in measurement — multiplexing timings, flow-control
// stalls, HPACK ratios, PING RTTs — yet a harness that cannot observe
// itself cannot defend its own numbers. This package closes that gap: the
// same instruments that drive the live exposition endpoint (see handler.go)
// also feed the scan engine's Stats snapshots, the census's final metrics
// table, and the persisted JSONL trailer, so there is one accounting path
// from the wire to every report.
//
// Design constraints, in order:
//
//  1. The hot path (Counter.Inc, Histogram.Observe) is a handful of atomic
//     operations and never allocates — instrumenting the per-frame path
//     must not perturb the throughput it measures.
//  2. Snapshots are plain values, so per-run and process-cumulative views
//     coexist (the scan engine keeps exact per-run stats while mirroring
//     into a process-wide registry for the debug endpoint).
//  3. No dependencies beyond the standard library and internal/stats.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. The zero value is unusable;
// construct with NewCounter or Registry.Counter.
type Counter struct {
	v atomic.Int64
}

// NewCounter returns an unregistered counter (the scan engine keeps private
// per-run instruments this way).
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous int64 value that may go up and down.
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns an unregistered gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (either sign).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metricKind discriminates registry entries.
type metricKind uint8

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// String names the kind in exposition formats.
func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// metric is one registered instrument.
type metric struct {
	name string
	help string
	kind metricKind

	counter   *Counter
	gauge     *Gauge
	gaugeFn   func() int64
	histogram *Histogram
}

// Registry holds named instruments for exposition. Instruments are
// get-or-create by full name (labels included), so independent layers can
// share one registry without coordination: the second caller of
// Counter("h2_frames_read_total{type=\"DATA\"}", ...) gets the first
// caller's counter. Lookup takes the registry lock; callers cache the
// returned instrument and pay only atomics afterwards.
//
// A nil *Registry is the "nobody is watching" registry: Counter, Gauge and
// Histogram hand out working unregistered instruments and GaugeFunc does
// nothing, so a layer with an optional registry has one construction path.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// Label formats one Prometheus-style label pair onto a metric name:
// Label("h2_frames_read_total", "type", "DATA") returns
// `h2_frames_read_total{type="DATA"}`. A name that already carries labels
// gains one more.
func Label(name, key, value string) string {
	if i := len(name) - 1; i >= 0 && name[i] == '}' {
		return fmt.Sprintf(`%s,%s=%q}`, name[:i], key, value)
	}
	return fmt.Sprintf(`%s{%s=%q}`, name, key, value)
}

// lookup returns the named metric, creating it with mk on first use. It
// panics on a kind clash: two layers disagreeing about what a name means is
// a programming error, not a runtime condition.
func (r *Registry) lookup(name, help string, kind metricKind, mk func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind && !(m.kind == kindGauge && kind == kindGaugeFunc) &&
			!(m.kind == kindGaugeFunc && kind == kindGauge) {
			panic(fmt.Sprintf("metrics: %q registered as %v, requested as %v", name, m.kind, kind))
		}
		return m
	}
	m := mk()
	m.name, m.help, m.kind = name, help, kind
	r.byName[name] = m
	return m
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return NewCounter()
	}
	return r.lookup(name, help, kindCounter, func() *metric {
		return &metric{counter: NewCounter()}
	}).counter
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return NewGauge()
	}
	return r.lookup(name, help, kindGauge, func() *metric {
		return &metric{gauge: NewGauge()}
	}).gauge
}

// GaugeFunc registers a gauge whose value is computed at snapshot time (the
// trace subsystem exports its ring counters this way). Re-registering a
// name replaces the function, so a reconnecting producer can re-point the
// gauge at its live state.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	if r == nil {
		return
	}
	m := r.lookup(name, help, kindGaugeFunc, func() *metric { return &metric{} })
	r.mu.Lock()
	m.gaugeFn = fn
	r.mu.Unlock()
}

// Histogram returns the named histogram, creating it on first use with the
// given unit and bucket count (see NewHistogram). Unit and bucket count are
// fixed by the first caller.
func (r *Registry) Histogram(name, help string, unit int64, buckets int) *Histogram {
	if r == nil {
		return NewHistogram(unit, buckets)
	}
	return r.lookup(name, help, kindHistogram, func() *metric {
		return &metric{histogram: NewHistogram(unit, buckets)}
	}).histogram
}

// MetricSnapshot is one instrument's point-in-time value, the unit of both
// the JSON exposition format and the persisted census trailer.
type MetricSnapshot struct {
	// Name is the full registered name, labels included.
	Name string `json:"name"`
	// Type is "counter", "gauge", or "histogram".
	Type string `json:"type"`
	// Help is the registration help text.
	Help string `json:"help,omitempty"`
	// Value carries counter and gauge readings.
	Value int64 `json:"value"`
	// Histogram carries histogram state; nil for scalar instruments.
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// Snapshot returns every registered instrument's current value, sorted by
// name so exposition output is deterministic. Concurrent updates may or may
// not be included; each included value is internally consistent.
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.byName))
	for _, m := range r.byName {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })

	out := make([]MetricSnapshot, 0, len(ms))
	for _, m := range ms {
		s := MetricSnapshot{Name: m.name, Type: m.kind.String(), Help: m.help}
		switch m.kind {
		case kindCounter:
			s.Value = m.counter.Value()
		case kindGauge:
			s.Value = m.gauge.Value()
		case kindGaugeFunc:
			if m.gaugeFn != nil {
				s.Value = m.gaugeFn()
			}
		case kindHistogram:
			h := m.histogram.Snapshot()
			s.Histogram = &h
			s.Value = h.Count
		}
		out = append(out, s)
	}
	return out
}

// --- runtime sampling ---

// clampFloat converts a float64 reading (e.g. a ratio scaled by 1000) into
// an int64 gauge value without overflow surprises.
func clampFloat(v float64) int64 {
	if math.IsNaN(v) {
		return 0
	}
	if v > math.MaxInt64 {
		return math.MaxInt64
	}
	if v < math.MinInt64 {
		return math.MinInt64
	}
	return int64(v)
}
