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

// exemplarsPerPhase is how many of its slowest samples each phase keeps
// references to.
const exemplarsPerPhase = 4

// Monitor consumes reconstructed spans, feeds the per-phase latency
// histograms and keeps slow-sample exemplars. All methods are safe for
// concurrent use.
type Monitor struct {
	reg   *metrics.Registry
	hists map[string]*metrics.Histogram

	targets *metrics.Counter

	mu        sync.Mutex
	exemplars map[string][]Exemplar
}

// NewMonitor builds a monitor, registering the phase histograms
// (h2_phase_duration_seconds{phase=...}) and h2_obs_targets_total into reg
// when it is non-nil.
func NewMonitor(reg *metrics.Registry) *Monitor {
	m := &Monitor{
		reg:       reg,
		hists:     make(map[string]*metrics.Histogram, len(Phases())),
		exemplars: make(map[string][]Exemplar),
	}
	for _, p := range Phases() {
		m.hists[p] = reg.Histogram(
			metrics.Label(PhaseMetricName, "phase", p),
			"per-phase causal span latency (nanosecond values bucketed per millisecond)",
			int64(time.Millisecond), 0)
	}
	m.targets = reg.Counter("h2_obs_targets_total",
		"targets whose spans the observability monitor folded in")
	return m
}

// observePhase records one phase latency, maintaining exemplars.
func (m *Monitor) observePhase(phase, target, traceFile string, conn uint64, d time.Duration, at time.Time) {
	if d <= 0 {
		return
	}
	h := m.hists[phase]
	if h == nil {
		return
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
}

// ObserveConn folds one reconstructed connection span into the histograms.
func (m *Monitor) ObserveConn(target, traceFile string, c ConnPhases) {
	at := c.Last
	for _, p := range []string{PhaseDial, PhaseTLS, PhasePreface, PhaseSettle, PhaseClose} {
		m.observePhase(p, target, traceFile, c.Conn, c.Phase(p), at)
	}
	for _, s := range c.Streams {
		m.observePhase(PhaseFirstByte, target, traceFile, c.Conn, s.FirstByte, at)
		m.observePhase(PhaseLastByte, target, traceFile, c.Conn, s.LastByte, at)
	}
}

// ObserveTarget reconstructs spans from one target's full event stream (the
// census path: called from the scan engine's per-target trace flush) and
// folds them in.
func (m *Monitor) ObserveTarget(target, traceFile string, events []trace.Event) {
	m.targets.Inc()
	for _, c := range BuildConns(events) {
		m.ObserveConn(target, traceFile, c)
	}
}

// Targets returns how many targets were folded in via ObserveTarget.
func (m *Monitor) Targets() int64 { return m.targets.Value() }

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

// watchInterval is how often Watch reads the tracer's ring. At 10 ms the
// default 8,192-slot ring holds about 819k events/s before an unread one is
// overwritten; h2server under h2c load from 8-256 workers over TCP loopback
// emits about 110-120k/s on 2 vCPU.
const watchInterval = 10 * time.Millisecond

// Watch attaches the monitor to a live tracer (the testbed server's bus): a
// background goroutine reads the ring from a Seq cursor every watchInterval
// into a streaming span builder, and each connection's span is folded in as
// its ConnClose streams through. Events the ring overwrote before a read
// reached them are counted in h2_obs_events_missed_total. The returned stop
// function reads what remains, folds in still-open connections, and
// detaches; it is idempotent.
func (m *Monitor) Watch(tr *trace.Tracer, target string) (stop func()) {
	if tr == nil {
		return func() {}
	}
	missed := m.reg.Counter("h2_obs_events_missed_total",
		"trace events the live span monitor never read: the ring overwrote them first")
	b := NewBuilder()
	b.OnConn = func(c ConnPhases) { m.ObserveConn(target, "", c) }
	var (
		buf  []trace.Event
		next uint64
	)
	read := func() {
		from := next
		buf, next = tr.Read(from, buf[:0])
		missed.Add(int64(next - from - uint64(len(buf))))
		for _, ev := range buf {
			b.Feed(ev)
		}
	}

	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(watchInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				read()
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
			read()
			// Connections that never closed still carry measured dial/TLS/
			// preface/settle phases; fold them in rather than losing them.
			for _, c := range b.Finish() {
				m.ObserveConn(target, "", c)
			}
		})
	}
}
