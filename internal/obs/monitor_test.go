package obs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/metrics"
	"h2scope/internal/trace"
)

func TestMonitorObserveTargetFeedsHistograms(t *testing.T) {
	reg := metrics.NewRegistry()
	m := NewMonitor(MonitorConfig{Registry: reg})
	m.ObserveTarget("site-000001.example", "traces/site-000001.jsonl", clientEvents())

	if m.Targets() != 1 {
		t.Errorf("Targets = %d", m.Targets())
	}
	p50, p99, n := m.PhaseQuantiles(PhaseDial)
	if n != 1 || p50 != 5*time.Millisecond || p99 != 5*time.Millisecond {
		t.Errorf("dial quantiles = %v/%v (n=%d), want 5ms/5ms (n=1)", p50, p99, n)
	}
	if _, _, n := m.PhaseQuantiles(PhaseFirstByte); n != 1 {
		t.Errorf("first-byte count = %d", n)
	}
	// The histograms land in the registry under the labeled family.
	var found bool
	for _, s := range reg.Snapshot() {
		if s.Name == metrics.Label(PhaseMetricName, "phase", PhaseDial) {
			found = true
		}
	}
	if !found {
		t.Errorf("registry missing %s", metrics.Label(PhaseMetricName, "phase", PhaseDial))
	}

	exs := m.Exemplars()
	if len(exs) == 0 {
		t.Fatal("no exemplars retained")
	}
	for _, ex := range exs {
		if ex.Target != "site-000001.example" || ex.TraceFile != "traces/site-000001.jsonl" {
			t.Errorf("exemplar missing references: %+v", ex)
		}
	}
}

func TestMonitorBlowoutAnomaly(t *testing.T) {
	var got []Anomaly
	m := NewMonitor(MonitorConfig{OnAnomaly: func(a Anomaly) { got = append(got, a) }})
	normal := ConnPhases{Conn: 1, Dial: time.Millisecond, Last: testBase}
	for i := 0; i < blowoutMinSamples; i++ {
		m.ObserveConn("steady.example", "", normal)
	}
	if len(got) != 0 {
		t.Fatalf("anomaly before blowout: %+v", got)
	}
	m.observeConn("slow.example", "", ConnPhases{Conn: 9, Dial: time.Second, Last: testBase}, clientEvents())
	if len(got) != 1 {
		t.Fatalf("anomalies = %d, want 1", len(got))
	}
	a := got[0]
	if a.Reason != "p99-blowout:dial" || a.Target != "slow.example" || a.Phase != PhaseDial ||
		a.Conn != 9 || a.Duration != time.Second || len(a.Events) == 0 {
		t.Errorf("anomaly = %+v", a)
	}
	if m.Anomalies() != 1 {
		t.Errorf("Anomalies = %d", m.Anomalies())
	}
}

func TestMonitorErrorSpike(t *testing.T) {
	var got []Anomaly
	m := NewMonitor(MonitorConfig{OnAnomaly: func(a Anomaly) { got = append(got, a) }})
	for i := 1; i < errorSpikeThreshold; i++ {
		m.RecordOutcome("a", "tls")
		m.RecordOutcome("b", "")
	}
	if len(got) != 0 {
		t.Fatalf("premature spike: %+v", got)
	}
	m.RecordOutcome("d", "tls")
	if len(got) != 1 || got[0].Reason != "error-spike:tls" || got[0].Target != "d" {
		t.Fatalf("spike anomaly = %+v", got)
	}
	// The window cleared: the detector re-arms from scratch.
	m.RecordOutcome("e", "tls")
	m.RecordOutcome("f", "tls")
	if len(got) != 1 {
		t.Errorf("spike re-fired before threshold: %d anomalies", len(got))
	}
}

func TestMonitorProgressColumns(t *testing.T) {
	m := NewMonitor(MonitorConfig{})
	if got := m.ProgressColumns(); got != "dial=- tls=- settle=-" {
		t.Errorf("empty columns = %q", got)
	}
	m.ObserveTarget("x", "", clientEvents())
	got := m.ProgressColumns()
	if !strings.Contains(got, "dial=5.0ms/5.0ms") || !strings.Contains(got, "tls=7.0ms/7.0ms") ||
		!strings.Contains(got, "settle=6.0ms/6.0ms") {
		t.Errorf("columns = %q", got)
	}
}

func TestMonitorWatchStreamsSpans(t *testing.T) {
	reg := metrics.NewRegistry()
	m := NewMonitor(MonitorConfig{Registry: reg})
	tr := trace.New(0)
	stop := m.Watch(tr, "testbed.example", 0)

	id := tr.ConnID()
	tr.ConnOpen(id, "client")
	tr.Frame(id, true, frame.Header{Type: frame.TypeSettings})
	tr.Frame(id, false, frame.Header{Type: frame.TypeSettings})
	tr.Frame(id, false, frame.Header{Type: frame.TypeHeaders, StreamID: 1})
	tr.Frame(id, true, frame.Header{Type: frame.TypeHeaders, StreamID: 1})
	tr.Frame(id, true, frame.Header{Type: frame.TypeData, StreamID: 1, Flags: frame.FlagEndStream})
	tr.ConnClose(id, "")

	// A second connection that never closes: folded in by stop's Finish.
	id2 := tr.ConnID()
	tr.ConnOpen(id2, "client2")
	tr.Frame(id2, true, frame.Header{Type: frame.TypeSettings})
	tr.Frame(id2, false, frame.Header{Type: frame.TypeSettings})

	stop()
	stop() // idempotent

	if _, _, n := m.PhaseQuantiles(PhaseSettle); n != 2 {
		t.Errorf("settle count = %d, want 2 (one per connection)", n)
	}
	// Subscription health gauges registered under sub="obs".
	var found bool
	for _, s := range reg.Snapshot() {
		if s.Name == metrics.Label("h2_trace_sub_dropped_total", "sub", "obs") {
			found = true
		}
	}
	if !found {
		t.Error("registry missing h2_trace_sub_dropped_total{sub=\"obs\"}")
	}
}

func TestMonitorWatchNilTracer(t *testing.T) {
	m := NewMonitor(MonitorConfig{})
	stop := m.Watch(nil, "x", 0)
	stop() // must not panic
}

// TestMonitorConcurrentHammer drives every monitor entry point, a live
// Watch, and flight-recorder dumps from concurrent goroutines; run under
// -race this is the span layer's thread-safety proof.
func TestMonitorConcurrentHammer(t *testing.T) {
	reg := metrics.NewRegistry()
	rec, err := NewFlightRecorder(FlightRecorderConfig{Dir: t.TempDir(), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(MonitorConfig{
		Registry: reg,
		OnAnomaly: func(a Anomaly) {
			if _, err := rec.Dump(a, a.Events); err != nil {
				t.Errorf("dump: %v", err)
			}
		},
	})
	tr := trace.New(0)
	stop := m.Watch(tr, "hammer", 0)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m.ObserveTarget("target", "", clientEvents())
				m.RecordOutcome("target", []string{"", "tls", "dial"}[i%3])
				_ = m.ProgressColumns()
				_ = m.Exemplars()
				id := tr.ConnID()
				tr.ConnOpen(id, "hammer")
				tr.Frame(id, true, frame.Header{Type: frame.TypeSettings})
				tr.Frame(id, false, frame.Header{Type: frame.TypeSettings})
				tr.ConnClose(id, "")
			}
		}(g)
	}
	wg.Wait()
	stop()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if m.Targets() != 200 {
		t.Errorf("Targets = %d, want 200", m.Targets())
	}
}
