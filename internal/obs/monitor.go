package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"h2scope/internal/metrics"
	"h2scope/internal/trace"
)

// PhaseMetricName is the registered histogram family for phase latencies;
// one histogram per phase, labeled h2_phase_duration_seconds{phase="dial"}.
// Observed values are nanoseconds bucketed per millisecond, matching the
// scan engine's latency histogram accounting.
const PhaseMetricName = "h2_phase_duration_seconds"

// Anomaly is one trigger-worthy observation the monitor surfaced: a phase
// blowing past its own p99, or an error-class spike in the scan stream.
// External triggers (detector hits, conformance failures) construct these
// directly and hand them to a FlightRecorder.
type Anomaly struct {
	// Reason classifies the trigger ("p99-blowout:dial", "error-spike:tls",
	// "detector:rapid-reset", ...).
	Reason string `json:"reason"`
	// Target names the scanned unit, when known.
	Target string `json:"target,omitempty"`
	// Conn is the trace connection ID behind the trigger (0 if none).
	Conn uint64 `json:"conn,omitempty"`
	// Phase is the phase that blew out (empty for non-phase triggers).
	Phase string `json:"phase,omitempty"`
	// Duration is the observed value behind a blowout trigger.
	Duration time.Duration `json:"durationNs,omitempty"`
	// At is when the anomaly was noticed.
	At time.Time `json:"at"`
	// Events carries the raw trace events behind the trigger, when the
	// raising path had them in hand (the census per-target path does; live
	// watchers snapshot their own tracer instead). They ride along so an
	// OnAnomaly hook can hand them straight to FlightRecorder.Dump, and are
	// excluded from the anomaly's own JSON form.
	Events []trace.Event `json:"-"`
}

// Exemplar references the concrete target behind a slow histogram sample,
// so a dashboard p99 is one click away from its forensic trace.
type Exemplar struct {
	// Phase is the histogram the sample landed in.
	Phase string `json:"phase"`
	// Target names the scanned unit.
	Target string `json:"target,omitempty"`
	// Conn is the trace connection ID.
	Conn uint64 `json:"conn"`
	// TraceFile is the exported JSONL trace path, when the run keeps one.
	TraceFile string `json:"traceFile,omitempty"`
	// Duration is the observed phase latency.
	Duration time.Duration `json:"durationNs"`
	// At is the observation time.
	At time.Time `json:"at"`
}

// Anomaly triggers and exemplar retention. A phase observation above
// blowoutFactor × that phase's running p99 is a blowout, once the phase has
// blowoutMinSamples observations; one failure kind filling errorSpikeThreshold
// of the last errorSpikeWindow target outcomes is a spike; each phase keeps
// references to its exemplarsPerPhase slowest samples.
const (
	blowoutFactor       = 8
	blowoutMinSamples   = 32
	errorSpikeWindow    = 64
	errorSpikeThreshold = 8
	exemplarsPerPhase   = 4
)

// MonitorConfig configures a Monitor. The zero value works: histograms stay
// unregistered and anomalies go nowhere.
type MonitorConfig struct {
	// Registry, when set, registers the phase histograms
	// (h2_phase_duration_seconds{phase=...}) and the monitor's counters
	// (h2_obs_targets_total, h2_obs_anomalies_total) there.
	Registry *metrics.Registry
	// OnAnomaly, when set, receives each anomaly synchronously — the
	// flight-recorder wiring point. It must not call back into the Monitor.
	OnAnomaly func(Anomaly)
}

// Monitor consumes reconstructed spans, feeds the per-phase latency
// histograms, keeps slow-sample exemplars, and raises anomalies (p99
// blowouts, error-class spikes). All methods are safe for concurrent use.
type Monitor struct {
	cfg   MonitorConfig
	hists map[string]*metrics.Histogram

	targets   *metrics.Counter
	anomalies *metrics.Counter

	mu        sync.Mutex
	exemplars map[string][]Exemplar
	outcomes  []string // sliding window of failure kinds ("" = success)
	outNext   int
	outCount  int
}

// NewMonitor builds a monitor, registering its instruments into
// cfg.Registry when one is given.
func NewMonitor(cfg MonitorConfig) *Monitor {
	m := &Monitor{
		cfg:       cfg,
		hists:     make(map[string]*metrics.Histogram, len(Phases())),
		exemplars: make(map[string][]Exemplar),
		outcomes:  make([]string, errorSpikeWindow),
	}
	for _, p := range Phases() {
		m.hists[p] = cfg.Registry.Histogram(
			metrics.Label(PhaseMetricName, "phase", p),
			"per-phase causal span latency (nanosecond values bucketed per millisecond)",
			int64(time.Millisecond), 0)
	}
	m.targets = cfg.Registry.Counter("h2_obs_targets_total",
		"targets whose spans the observability monitor folded in")
	m.anomalies = cfg.Registry.Counter("h2_obs_anomalies_total",
		"anomalies the observability monitor raised (blowouts and error spikes)")
	return m
}

// raise counts and delivers one anomaly.
func (m *Monitor) raise(a Anomaly) {
	m.anomalies.Inc()
	reason, _, _ := strings.Cut(a.Reason, ":")
	m.cfg.Registry.Counter(metrics.Label("h2_obs_anomaly_reasons_total", "reason", reason),
		"anomalies by trigger class").Inc()
	if m.cfg.OnAnomaly != nil {
		m.cfg.OnAnomaly(a)
	}
}

// observePhase records one phase latency, maintaining exemplars and
// blowout detection. events, when non-nil, rides along on any anomaly
// raised so the flight recorder can dump the triggering stream.
func (m *Monitor) observePhase(phase, target, traceFile string, conn uint64, d time.Duration, at time.Time, events []trace.Event) {
	if d <= 0 {
		return
	}
	h := m.hists[phase]
	if h == nil {
		return
	}
	// Blowout check against the histogram state *before* this observation,
	// so one catastrophic sample cannot hide itself by dragging p99 up.
	var blowout bool
	if snap := h.Snapshot(); snap.Count >= blowoutMinSamples {
		p99 := snap.Quantile(0.99)
		blowout = p99 > 0 && d.Nanoseconds() > blowoutFactor*p99
	}
	h.Observe(d.Nanoseconds())

	m.mu.Lock()
	exs := m.exemplars[phase]
	if len(exs) < exemplarsPerPhase || d > exs[len(exs)-1].Duration {
		exs = append(exs, Exemplar{Phase: phase, Target: target, Conn: conn, TraceFile: traceFile, Duration: d, At: at})
		sort.Slice(exs, func(i, j int) bool { return exs[i].Duration > exs[j].Duration })
		if len(exs) > exemplarsPerPhase {
			exs = exs[:exemplarsPerPhase]
		}
		m.exemplars[phase] = exs
	}
	m.mu.Unlock()

	if blowout {
		m.raise(Anomaly{
			Reason:   "p99-blowout:" + phase,
			Target:   target,
			Conn:     conn,
			Phase:    phase,
			Duration: d,
			At:       at,
			Events:   events,
		})
	}
}

// ObserveConn folds one reconstructed connection span into the histograms.
func (m *Monitor) ObserveConn(target, traceFile string, c ConnPhases) {
	m.observeConn(target, traceFile, c, nil)
}

func (m *Monitor) observeConn(target, traceFile string, c ConnPhases, events []trace.Event) {
	at := c.Last
	for _, p := range []string{PhaseDial, PhaseTLS, PhasePreface, PhaseSettle, PhaseClose} {
		m.observePhase(p, target, traceFile, c.Conn, c.Phase(p), at, events)
	}
	for _, s := range c.Streams {
		m.observePhase(PhaseFirstByte, target, traceFile, c.Conn, s.FirstByte, at, events)
		m.observePhase(PhaseLastByte, target, traceFile, c.Conn, s.LastByte, at, events)
	}
}

// ObserveTarget reconstructs spans from one target's full event stream (the
// census path: called from the scan engine's per-target trace flush) and
// folds them in. Anomalies raised here carry events so the flight recorder
// can dump the triggering stream verbatim.
func (m *Monitor) ObserveTarget(target, traceFile string, events []trace.Event) {
	m.targets.Inc()
	for _, c := range BuildConns(events) {
		m.observeConn(target, traceFile, c, events)
	}
}

// RecordOutcome feeds one target's scan disposition into spike detection:
// kind is the classified failure kind, empty for success. When one kind
// fills errorSpikeThreshold slots of the window, an error-spike anomaly is
// raised and the window resets (re-arming the detector).
func (m *Monitor) RecordOutcome(target, kind string) {
	var spike bool
	m.mu.Lock()
	m.outcomes[m.outNext] = kind
	m.outNext = (m.outNext + 1) % len(m.outcomes)
	if m.outCount < len(m.outcomes) {
		m.outCount++
	}
	if kind != "" {
		n := 0
		for i := 0; i < m.outCount; i++ {
			if m.outcomes[i] == kind {
				n++
			}
		}
		if n >= errorSpikeThreshold {
			spike = true
			for i := range m.outcomes {
				m.outcomes[i] = ""
			}
			m.outNext, m.outCount = 0, 0
		}
	}
	m.mu.Unlock()
	if spike {
		m.raise(Anomaly{Reason: "error-spike:" + kind, Target: target, At: time.Now()})
	}
}

// Targets returns how many targets were folded in via ObserveTarget.
func (m *Monitor) Targets() int64 { return m.targets.Value() }

// Anomalies returns how many anomalies the monitor raised.
func (m *Monitor) Anomalies() int64 { return m.anomalies.Value() }

// PhaseSnapshot returns the named phase histogram's current state (nil for
// unknown phases).
func (m *Monitor) PhaseSnapshot(phase string) *metrics.HistogramSnapshot {
	h := m.hists[phase]
	if h == nil {
		return nil
	}
	s := h.Snapshot()
	return &s
}

// PhaseQuantiles returns the named phase's approximate p50 and p99 (clamped
// into the exact observed [min, max] range) plus its sample count.
func (m *Monitor) PhaseQuantiles(phase string) (p50, p99 time.Duration, count int64) {
	s := m.PhaseSnapshot(phase)
	if s == nil || s.Count == 0 {
		return 0, 0, 0
	}
	return time.Duration(s.QuantileClamped(0.50)), time.Duration(s.QuantileClamped(0.99)), s.Count
}

// Exemplars returns the retained slow-sample references, slowest first.
func (m *Monitor) Exemplars() []Exemplar {
	m.mu.Lock()
	var out []Exemplar
	for _, exs := range m.exemplars {
		out = append(out, exs...)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Duration != out[j].Duration {
			return out[i].Duration > out[j].Duration
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

// ProgressColumns renders the compact phase-latency columns the census
// appends to its -progress line: "dial=p50/p99 tls=p50/p99 settle=p50/p99"
// (phases with no samples render as "-").
func (m *Monitor) ProgressColumns() string {
	var b strings.Builder
	for i, p := range []string{PhaseDial, PhaseTLS, PhaseSettle} {
		if i > 0 {
			b.WriteByte(' ')
		}
		p50, p99, n := m.PhaseQuantiles(p)
		if n == 0 {
			fmt.Fprintf(&b, "%s=-", p)
			continue
		}
		fmt.Fprintf(&b, "%s=%s/%s", p, fmtDur(p50), fmtDur(p99))
	}
	return b.String()
}

// Watch attaches the monitor to a live tracer (the testbed server's bus): a
// subscription is drained in a background goroutine through a streaming
// span builder, and each connection's span is folded in as its ConnClose
// streams through. The subscription's queue health is exported as
// h2_trace_sub_*{sub="obs"} gauges when the monitor has a registry. The
// returned stop function drains what remains, folds in still-open
// connections, and detaches; it is idempotent.
func (m *Monitor) Watch(tr *trace.Tracer, target string, buffer int) (stop func()) {
	sub := tr.Subscribe(buffer)
	if sub == nil {
		return func() {}
	}
	sub.ExportMetrics(m.cfg.Registry, "obs")
	b := NewBuilder()
	b.OnConn = func(c ConnPhases) { m.ObserveConn(target, "", c) }

	var mu sync.Mutex // serializes builder access between loop and stop
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		var buf []trace.Event
		for {
			select {
			case <-sub.C():
				buf = sub.Drain(buf[:0])
				mu.Lock()
				for _, ev := range buf {
					b.Feed(ev)
				}
				mu.Unlock()
			case <-done:
				return
			}
		}
	}()

	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
			mu.Lock()
			for _, ev := range sub.Drain(nil) {
				b.Feed(ev)
			}
			// Connections that never closed still carry measured dial/TLS/
			// preface/settle phases; fold them in rather than losing them.
			for _, c := range b.Finish() {
				m.ObserveConn(target, "", c)
			}
			mu.Unlock()
			sub.Close()
		})
	}
}
