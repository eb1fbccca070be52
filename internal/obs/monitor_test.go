package obs

import (
	"reflect"
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
	m := NewMonitor(reg)
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

func TestMonitorProgressColumns(t *testing.T) {
	m := NewMonitor(nil)
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
	m := NewMonitor(reg)
	tr := trace.New(0)
	stop := m.Watch(tr, "testbed.example")

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
	// The ring held every event, so the monitor missed none.
	var found bool
	for _, s := range reg.Snapshot() {
		if s.Name == "h2_obs_events_missed_total" {
			found = true
			if s.Value != 0 {
				t.Errorf("h2_obs_events_missed_total = %d, want 0", s.Value)
			}
		}
	}
	if !found {
		t.Error("registry missing h2_obs_events_missed_total")
	}
}

func TestMonitorWatchNilTracer(t *testing.T) {
	m := NewMonitor(nil)
	stop := m.Watch(nil, "x")
	stop() // must not panic
}

// TestMonitorConcurrentHammer drives every monitor entry point and a live
// Watch from concurrent goroutines; run under -race this is the span
// layer's thread-safety proof.
func TestMonitorConcurrentHammer(t *testing.T) {
	m := NewMonitor(metrics.NewRegistry())
	tr := trace.New(0)
	stop := m.Watch(tr, "hammer")

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m.ObserveTarget("target", "", clientEvents())
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
	if m.Targets() != 200 {
		t.Errorf("Targets = %d, want 200", m.Targets())
	}
}

// TestWatchMatchesBuildConns: the live cursor folds a tracer's events into
// the same spans as one BuildConns over the whole trace, though its reads
// cut connections mid-stream and connections close between them.
func TestWatchMatchesBuildConns(t *testing.T) {
	tr := trace.New(0)
	live := NewMonitor(metrics.NewRegistry())
	stop := live.Watch(tr, "testbed.example")

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				id := tr.ConnID()
				tr.ConnOpen(id, "client")
				tr.Frame(id, false, frame.Header{Type: frame.TypeSettings})
				tr.Frame(id, true, frame.Header{Type: frame.TypeSettings})
				tr.Frame(id, false, frame.Header{Type: frame.TypeHeaders, StreamID: 1, Flags: frame.FlagEndStream})
				time.Sleep(2 * time.Millisecond) // reads land mid-connection
				tr.Frame(id, true, frame.Header{Type: frame.TypeHeaders, StreamID: 1})
				tr.Frame(id, true, frame.Header{Type: frame.TypeData, StreamID: 1, Length: 64, Flags: frame.FlagEndStream})
				if i == 9 {
					continue // left open: folded in by stop
				}
				tr.Frame(id, true, frame.Header{Type: frame.TypeGoAway})
				tr.ConnClose(id, "eof")
			}
		}()
	}
	wg.Wait()
	stop()

	batch := NewMonitor(nil)
	for _, c := range BuildConns(tr.Snapshot()) {
		batch.ObserveConn("testbed.example", "", c)
	}
	for _, p := range Phases() {
		got, want := live.PhaseSnapshot(p), batch.PhaseSnapshot(p)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("phase %s: Watch folded %+v, BuildConns %+v", p, *got, *want)
		}
	}
	if _, _, n := live.PhaseQuantiles(PhaseFirstByte); n != 30 {
		t.Errorf("first-byte samples = %d, want one per connection (30)", n)
	}
}

// TestWatchCountsMissedEvents: events the ring overwrote before the monitor
// read them are counted, not silently lost.
func TestWatchCountsMissedEvents(t *testing.T) {
	reg := metrics.NewRegistry()
	m := NewMonitor(reg)
	tr := trace.New(8)
	stop := m.Watch(tr, "x")
	id := tr.ConnID()
	for i := 0; i < 100; i++ {
		tr.Frame(id, true, frame.Header{Type: frame.TypePing})
	}
	stop()
	// The last read alone gets the 8 the ring holds; a read mid-burst can
	// only lower the count.
	if got := reg.Counter("h2_obs_events_missed_total", "").Value(); got <= 0 || got > 100-8 {
		t.Errorf("h2_obs_events_missed_total = %d, want 1..92 of 100 events through an 8-slot ring", got)
	}
}
