package scan

import (
	"fmt"
	"strings"
	"time"

	"h2scope/internal/metrics"
	"h2scope/internal/trace"
)

// latencyBuckets is the histogram resolution: bucket i covers target
// latencies in [2^(i-1), 2^i) milliseconds, with bucket 0 for sub-1ms.
const latencyBuckets = metrics.DefaultBuckets

// counters is the engine's live, lock-free instrumentation — a thin view
// over internal/metrics instruments. Each run owns a private, unregistered
// set (the authoritative source for its Stats snapshot: its own counts and
// its own latency range, which no delta of a shared histogram can give back),
// plus a mirror registered in Options.Metrics when that is set, feeding the
// process-cumulative debug endpoint. Bumps go through the methods below,
// which write both sets.
type counters struct {
	attempted *metrics.Counter
	succeeded *metrics.Counter
	failed    *metrics.Counter
	canceled  *metrics.Counter
	retries   *metrics.Counter
	attempts  *metrics.Counter
	inFlight  *metrics.Gauge

	failedByKind [numErrorKinds]*metrics.Counter

	traceEvents  *metrics.Counter
	traceDropped *metrics.Counter

	latency *metrics.Histogram

	// mirror, when non-nil, is a registry-backed twin receiving every bump.
	mirror *counters
}

// newCounters builds one instrument set in r; a nil r hands out unregistered
// instruments, which is a run's private set. Names are stable API (the
// README's metric catalog documents them); registries get-or-create, so
// successive runs mirroring into one registry accumulate.
func newCounters(r *metrics.Registry) *counters {
	c := &counters{
		attempted: r.Counter("h2_scan_targets_total", "targets finalized (all outcomes)"),
		succeeded: r.Counter(metrics.Label("h2_scan_outcomes_total", "outcome", "ok"), "targets by final outcome"),
		failed:    r.Counter(metrics.Label("h2_scan_outcomes_total", "outcome", "failed"), "targets by final outcome"),
		canceled:  r.Counter(metrics.Label("h2_scan_outcomes_total", "outcome", "canceled"), "targets by final outcome"),
		retries:   r.Counter("h2_scan_retries_total", "retry attempts beyond each target's first"),
		attempts:  r.Counter("h2_scan_attempts_total", "probe attempts, first tries included"),
		inFlight:  r.Gauge("h2_scan_in_flight", "probe attempts executing right now"),
		traceEvents: r.Counter("h2_scan_trace_events_total",
			"trace events emitted by per-target tracers (ring overwrites included)"),
		traceDropped: r.Counter("h2_scan_trace_dropped_total",
			"trace events lost to per-target ring overflow"),
		latency: r.Histogram("h2_scan_target_latency_ns",
			"per-target wall time (ns, bucketed per millisecond)",
			int64(time.Millisecond), latencyBuckets),
	}
	for k := range c.failedByKind {
		c.failedByKind[k] = r.Counter(
			metrics.Label("h2_scan_failures_total", "kind", ErrorKind(k).String()),
			"failed targets by classified error kind")
	}
	return c
}

// observeLatency records one completed target's elapsed time.
func (c *counters) observeLatency(d time.Duration) {
	for s := c; s != nil; s = s.mirror {
		s.latency.Observe(int64(d))
	}
}

// recordOutcome applies one finalized record to the outcome counters.
func (c *counters) recordOutcome(rec Record) {
	for s := c; s != nil; s = s.mirror {
		s.attempted.Inc()
		switch rec.Outcome {
		case OutcomeSuccess:
			s.succeeded.Inc()
		case OutcomeFailed:
			s.failed.Inc()
			if int(rec.Kind) < numErrorKinds {
				s.failedByKind[rec.Kind].Inc()
			}
		case OutcomeCanceled:
			s.canceled.Inc()
		}
	}
}

// addTrace folds a finished target tracer's ring counters in.
func (c *counters) addTrace(tr *trace.Tracer) {
	for s := c; s != nil; s = s.mirror {
		s.traceEvents.Add(int64(tr.Emitted()))
		s.traceDropped.Add(int64(tr.Dropped()))
	}
}

// addRetry counts one retry beyond a target's first attempt.
func (c *counters) addRetry() {
	for s := c; s != nil; s = s.mirror {
		s.retries.Inc()
	}
}

// beginAttempt/endAttempt bracket one probe attempt.
func (c *counters) beginAttempt() {
	for s := c; s != nil; s = s.mirror {
		s.attempts.Inc()
		s.inFlight.Add(1)
	}
}

func (c *counters) endAttempt() {
	for s := c; s != nil; s = s.mirror {
		s.inFlight.Add(-1)
	}
}

// LatencyStats summarizes the per-target latency histogram. Quantiles are
// approximate: each falls at the geometric midpoint of its power-of-two
// bucket.
type LatencyStats struct {
	Count int64         `json:"count"`
	Min   time.Duration `json:"min"`
	Mean  time.Duration `json:"mean"`
	P50   time.Duration `json:"p50"`
	P90   time.Duration `json:"p90"`
	P99   time.Duration `json:"p99"`
	Max   time.Duration `json:"max"`
}

// Stats is a point-in-time snapshot of a scan's counters. After Run returns
// it satisfies Attempted == Succeeded + Failed + Canceled.
type Stats struct {
	// Attempted counts targets the engine has finalized a record for.
	Attempted int64 `json:"attempted"`
	// Succeeded, Failed, and Canceled partition Attempted by outcome.
	Succeeded int64 `json:"succeeded"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	// Retries counts retry attempts beyond each target's first.
	Retries int64 `json:"retries"`
	// Attempts counts every probe attempt, first tries included.
	Attempts int64 `json:"attempts"`
	// InFlight is the number of attempts executing right now.
	InFlight int64 `json:"inFlight"`
	// FailedByKind histograms Failed by classified error kind.
	FailedByKind map[string]int64 `json:"failedByKind,omitempty"`
	// TraceEvents and TraceDropped aggregate the per-target tracers'
	// emit and ring-overflow counters (zero when tracing is off; drops
	// are counted here so overflow is never silent).
	TraceEvents  int64 `json:"traceEvents,omitempty"`
	TraceDropped int64 `json:"traceDropped,omitempty"`
	// Latency summarizes per-target wall time.
	Latency LatencyStats `json:"latency"`
}

// Snapshot renders the counters as a Stats value.
func (c *counters) Snapshot() Stats {
	s := Stats{
		Attempted: c.attempted.Value(),
		Succeeded: c.succeeded.Value(),
		Failed:    c.failed.Value(),
		Canceled:  c.canceled.Value(),
		Retries:   c.retries.Value(),
		Attempts:  c.attempts.Value(),
		InFlight:  c.inFlight.Value(),

		TraceEvents:  c.traceEvents.Value(),
		TraceDropped: c.traceDropped.Value(),
	}
	for k := 0; k < numErrorKinds; k++ {
		if n := c.failedByKind[k].Value(); n > 0 {
			if s.FailedByKind == nil {
				s.FailedByKind = make(map[string]int64)
			}
			s.FailedByKind[ErrorKind(k).String()] = n
		}
	}
	s.Latency = latencyStatsOf(c.latency.Snapshot())
	return s
}

// latencyStatsOf condenses a histogram snapshot into the persisted summary.
// Quantiles are clamped into [Min, Max] so the summary never contradicts
// itself.
func latencyStatsOf(h metrics.HistogramSnapshot) LatencyStats {
	if h.Count == 0 {
		return LatencyStats{}
	}
	return LatencyStats{
		Count: h.Count,
		Min:   time.Duration(h.Min),
		Mean:  time.Duration(h.Mean()),
		P50:   time.Duration(h.QuantileClamped(0.50)),
		P90:   time.Duration(h.QuantileClamped(0.90)),
		P99:   time.Duration(h.QuantileClamped(0.99)),
		Max:   time.Duration(h.Max),
	}
}

// Consistent reports whether the outcome partition adds up; it holds
// whenever no targets are mid-flight (always, after Run returns).
func (s Stats) Consistent() bool {
	return s.Attempted == s.Succeeded+s.Failed+s.Canceled
}

// String renders the snapshot as a one-line progress report.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scan: %d done (ok %d, fail %d, canceled %d)",
		s.Attempted, s.Succeeded, s.Failed, s.Canceled)
	if s.Retries > 0 {
		fmt.Fprintf(&b, ", %d retries", s.Retries)
	}
	if s.InFlight > 0 {
		fmt.Fprintf(&b, ", %d in flight", s.InFlight)
	}
	if len(s.FailedByKind) > 0 {
		kinds := make([]string, 0, len(s.FailedByKind))
		for k := 0; k < numErrorKinds; k++ {
			name := ErrorKind(k).String()
			if n, ok := s.FailedByKind[name]; ok {
				kinds = append(kinds, fmt.Sprintf("%s %d", name, n))
			}
		}
		fmt.Fprintf(&b, " [%s]", strings.Join(kinds, ", "))
	}
	if s.Latency.Count > 0 {
		fmt.Fprintf(&b, ", latency p50 %v p99 %v",
			s.Latency.P50.Round(time.Millisecond), s.Latency.P99.Round(time.Millisecond))
	}
	if s.TraceEvents > 0 {
		fmt.Fprintf(&b, ", trace %d events", s.TraceEvents)
		if s.TraceDropped > 0 {
			fmt.Fprintf(&b, " (%d dropped)", s.TraceDropped)
		}
	}
	return b.String()
}
