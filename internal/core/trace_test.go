package core_test

import (
	"context"
	"net"
	"testing"
	"time"

	"h2scope/internal/core"
	"h2scope/internal/frame"
	"h2scope/internal/netsim"
	"h2scope/internal/server"
	"h2scope/internal/trace"
)

// newTracedProber is newProber with a tracer attached to the battery.
func newTracedProber(t *testing.T, p server.Profile) (*core.Prober, *trace.Tracer) {
	t.Helper()
	srv := server.New(p, server.DefaultSite("testbed.example"))
	l := netsim.NewListener("trace-" + p.Name)
	go func() {
		_ = srv.Serve(l)
	}()
	t.Cleanup(func() { srv.Shutdown(time.Second) })
	cfg := core.DefaultConfig("testbed.example")
	cfg.Timeout = 5 * time.Second
	cfg.QuietWindow = 20 * time.Millisecond
	cfg.Tracer = trace.New(0)
	return core.NewProber(core.DialerFunc(func() (net.Conn, error) { return l.Dial() }), cfg), cfg.Tracer
}

// TestMultiplexingProbeTrace runs the multiplexing probe with a tracer
// attached and checks the recorded frame timeline: the received DATA events
// must carry the "multiplexing" phase annotation and must interleave across
// at least two concurrent streams.
func TestMultiplexingProbeTrace(t *testing.T) {
	prober, tr := newTracedProber(t, server.ApacheProfile())
	res, err := prober.ProbeMultiplexing(context.Background(), 4)
	if err != nil {
		t.Fatalf("ProbeMultiplexing: %v", err)
	}
	if !res.Interleaved {
		t.Fatal("testbed server did not multiplex")
	}

	// The probe's DATA timeline, in arrival order.
	var data []trace.Event
	for _, ev := range tr.Snapshot() {
		if ev.Kind == trace.KindFrameRecv && ev.FrameType == frame.TypeData {
			data = append(data, ev)
		}
	}
	if len(data) == 0 {
		t.Fatal("trace recorded no received DATA frames")
	}
	streams := make(map[uint32]bool)
	for _, ev := range data {
		if ev.Phase != "multiplexing" {
			t.Fatalf("DATA event on stream %d has phase %q, want \"multiplexing\"", ev.StreamID, ev.Phase)
		}
		streams[ev.StreamID] = true
	}
	if len(streams) < 2 {
		t.Fatalf("DATA events cover %d stream(s), want >= 2", len(streams))
	}
	// Collapse the arrival order into runs of equal stream IDs: sequential
	// delivery yields exactly one run per stream, so extra runs mean some
	// stream's DATA arrived between another's first and last frames.
	var runs []uint32
	for _, ev := range data {
		if len(runs) == 0 || runs[len(runs)-1] != ev.StreamID {
			runs = append(runs, ev.StreamID)
		}
	}
	if len(runs) <= len(streams) {
		t.Fatalf("DATA frames not interleaved across streams; run order: %v", runs)
	}
	if tr.Dropped() != 0 {
		t.Errorf("tracer dropped %d events with default capacity", tr.Dropped())
	}
}

// TestBatteryTraceBalanced runs the battery under a tracer and checks the
// bracketing h2trace attributes frames by: every phase-start (and dial region)
// has its phase-end, and every frame arrives while the phase it is tagged with
// is open. A discarded closer, a probe without a phase, or `defer p.phase("x")`
// without the trailing () fails here.
func TestBatteryTraceBalanced(t *testing.T) {
	p, tr := newTracedProber(t, server.H2OProfile())
	if _, err := p.RunContext(context.Background()); err != nil {
		t.Fatalf("battery: %v", err)
	}
	open := map[string]int{} // phase or region name -> starts minus ends so far
	for _, ev := range tr.Snapshot() {
		switch {
		case ev.Kind == trace.KindPhaseStart:
			open[ev.Phase]++
		case ev.Kind == trace.KindPhaseEnd:
			open[ev.Phase]--
		case ev.Kind.IsFrame() && open[ev.Phase] != 1:
			t.Fatalf("event %d: %v frame tagged %q while that phase is not open", ev.Seq, ev.FrameType, ev.Phase)
		}
	}
	for name, n := range open {
		if n != 0 {
			t.Errorf("phase %q: %+d start(s) without an end", name, n)
		}
	}
}
