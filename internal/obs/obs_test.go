package obs

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/trace"
)

var testBase = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

// at returns testBase + ms milliseconds.
func at(ms int) time.Time { return testBase.Add(time.Duration(ms) * time.Millisecond) }

// clientEvents is a synthetic client-side probe trace with known phase
// durations: dial 5ms, tls 7ms (pre-conn region), preface 2ms, settle 6ms,
// stream 1 first-byte 8ms last-byte 18ms, close 5ms.
func clientEvents() []trace.Event {
	return []trace.Event{
		{Kind: trace.KindPhaseStart, Conn: 1, Phase: "dial", At: at(0)},
		{Kind: trace.KindPhaseEnd, Conn: 1, Phase: "dial", At: at(5)},
		// TLS handshake happens in the dialer before the connection has an
		// identity: conn 0, attributed to the next ConnOpen.
		{Kind: trace.KindPhaseStart, Conn: 0, Phase: "tls", At: at(5)},
		{Kind: trace.KindPhaseEnd, Conn: 0, Phase: "tls", At: at(12)},
		{Kind: trace.KindConnOpen, Conn: 1, Detail: "site-000001.example:443", At: at(12)},
		// A probe-phase marker (tracer-global, conn 0) must be ignored.
		{Kind: trace.KindPhaseStart, Conn: 0, Phase: "settings", At: at(13)},
		{Kind: trace.KindFrameSent, Conn: 1, FrameType: frame.TypeSettings, At: at(14)},
		{Kind: trace.KindFrameRecv, Conn: 1, FrameType: frame.TypeSettings, At: at(20)},
		// SETTINGS ACKs must not disturb the settle anchors.
		{Kind: trace.KindFrameSent, Conn: 1, FrameType: frame.TypeSettings, Flags: frame.FlagAck, At: at(21)},
		{Kind: trace.KindFrameSent, Conn: 1, StreamID: 1, FrameType: frame.TypeHeaders, At: at(22)},
		{Kind: trace.KindFrameRecv, Conn: 1, StreamID: 1, FrameType: frame.TypeHeaders, At: at(30)},
		{Kind: trace.KindFrameRecv, Conn: 1, StreamID: 1, FrameType: frame.TypeData, At: at(35)},
		{Kind: trace.KindFrameRecv, Conn: 1, StreamID: 1, FrameType: frame.TypeData, Flags: frame.FlagEndStream, At: at(40)},
		{Kind: trace.KindFrameSent, Conn: 1, FrameType: frame.TypeGoAway, At: at(45)},
		{Kind: trace.KindConnClose, Conn: 1, At: at(50)},
	}
}

func TestBuildConnsClientTrace(t *testing.T) {
	conns := BuildConns(clientEvents())
	if len(conns) != 1 {
		t.Fatalf("BuildConns: %d conns, want 1", len(conns))
	}
	c := conns[0]
	if c.Conn != 1 || !c.Opened || !c.Closed {
		t.Fatalf("lifecycle: conn=%d opened=%v closed=%v", c.Conn, c.Opened, c.Closed)
	}
	if c.Detail != "site-000001.example:443" {
		t.Errorf("Detail = %q", c.Detail)
	}
	want := map[string]time.Duration{
		PhaseDial:    5 * time.Millisecond,
		PhaseTLS:     7 * time.Millisecond,
		PhasePreface: 2 * time.Millisecond,
		PhaseSettle:  6 * time.Millisecond,
		PhaseClose:   5 * time.Millisecond,
	}
	for p, d := range want {
		if got := c.Phase(p); got != d {
			t.Errorf("phase %s = %v, want %v", p, got, d)
		}
	}
	if len(c.Streams) != 1 {
		t.Fatalf("streams: %d, want 1", len(c.Streams))
	}
	s := c.Streams[0]
	if s.StreamID != 1 || s.FirstByte != 8*time.Millisecond || s.LastByte != 18*time.Millisecond {
		t.Errorf("stream span = %+v", s)
	}
	if got := c.Duration(); got != 50*time.Millisecond {
		t.Errorf("Duration = %v, want 50ms", got)
	}
}

func TestBuildConnsServerTrace(t *testing.T) {
	// Server direction: the request HEADERS is received, the response is
	// sent. No dial/TLS regions; preface anchors at ConnOpen.
	events := []trace.Event{
		{Kind: trace.KindConnOpen, Conn: 7, Detail: "127.0.0.1:55555", At: at(0)},
		{Kind: trace.KindFrameRecv, Conn: 7, FrameType: frame.TypeSettings, At: at(1)},
		{Kind: trace.KindFrameSent, Conn: 7, FrameType: frame.TypeSettings, At: at(3)},
		{Kind: trace.KindFrameRecv, Conn: 7, StreamID: 1, FrameType: frame.TypeHeaders, At: at(5)},
		{Kind: trace.KindFrameSent, Conn: 7, StreamID: 1, FrameType: frame.TypeHeaders, At: at(9)},
		{Kind: trace.KindFrameSent, Conn: 7, StreamID: 1, FrameType: frame.TypeData, Flags: frame.FlagEndStream, At: at(11)},
		{Kind: trace.KindConnClose, Conn: 7, At: at(12)},
	}
	conns := BuildConns(events)
	if len(conns) != 1 {
		t.Fatalf("BuildConns: %d conns, want 1", len(conns))
	}
	c := conns[0]
	if c.Preface != 3*time.Millisecond {
		t.Errorf("preface = %v, want 3ms", c.Preface)
	}
	// The peer's SETTINGS arrived before ours went out: settle is not a
	// positive interval, so it stays unobserved.
	if c.Settle != 0 {
		t.Errorf("settle = %v, want 0", c.Settle)
	}
	if len(c.Streams) != 1 {
		t.Fatalf("streams: %d, want 1", len(c.Streams))
	}
	s := c.Streams[0]
	if s.FirstByte != 4*time.Millisecond || s.LastByte != 6*time.Millisecond {
		t.Errorf("stream span = %+v", s)
	}
	// No GOAWAY: close falls back to last frame → ConnClose.
	if c.Close != 1*time.Millisecond {
		t.Errorf("close = %v, want 1ms", c.Close)
	}
}

func TestBuilderStreamingMatchesBatch(t *testing.T) {
	events := clientEvents()
	// Second connection that never closes, to exercise Finish; it carries
	// an error, a reset stream and a tallies-only stream so the per-stream
	// and per-conn tallies go through both paths too.
	events = append(events,
		trace.Event{Kind: trace.KindConnOpen, Conn: 2, At: at(60)},
		trace.Event{Kind: trace.KindFrameSent, Conn: 2, FrameType: frame.TypeSettings, At: at(61)},
		trace.Event{Kind: trace.KindFrameSent, Conn: 2, StreamID: 1, FrameType: frame.TypeHeaders, At: at(62)},
		trace.Event{Kind: trace.KindFrameSent, Conn: 2, StreamID: 1, FrameType: frame.TypeData, Length: 9, At: at(63)},
		trace.Event{Kind: trace.KindFrameRecv, Conn: 2, StreamID: 1, FrameType: frame.TypeRSTStream, At: at(64)},
		trace.Event{Kind: trace.KindFrameSent, Conn: 2, StreamID: 3, FrameType: frame.TypePriority, At: at(65)},
		trace.Event{Kind: trace.KindError, Conn: 2, Detail: "boom", At: at(66)},
	)
	batch := BuildConns(events)

	b := NewBuilder()
	var streamed []ConnPhases
	b.OnConn = func(c ConnPhases) { streamed = append(streamed, c) }
	for _, ev := range events {
		b.Feed(ev)
	}
	streamed = append(streamed, b.Finish()...)

	if !reflect.DeepEqual(batch, streamed) {
		t.Errorf("streaming != batch\nbatch:    %+v\nstreamed: %+v", batch, streamed)
	}
	c := batch[1]
	if c.FramesSent != 4 || c.FramesRecv != 1 || c.BytesSent != 9 || c.Errors != 1 {
		t.Errorf("conn 2 tallies = %d/%d frames, %dB sent, %d errors; want 4/1, 9, 1",
			c.FramesSent, c.FramesRecv, c.BytesSent, c.Errors)
	}
	if len(c.Streams) != 2 || !c.Streams[0].Reset || c.Streams[0].BytesSent != 9 || c.Streams[1].FramesSent != 1 {
		t.Errorf("conn 2 streams = %+v", c.Streams)
	}
}

// TestBuilderStreamTallies is the multiplexing case: two interleaved
// request/response streams under one probe phase, each with its own frame
// and byte tallies, END_STREAM, and ordered first/last-byte landmarks.
func TestBuilderStreamTallies(t *testing.T) {
	tr := trace.New(256)
	conn := tr.ConnID()
	tr.ConnOpen(conn, "testbed.example")
	end := tr.Phase("multiplexing")
	tr.ConnPhase(conn, "multiplexing")
	tr.Frame(conn, true, frame.Header{Type: frame.TypeHeaders, StreamID: 1, Flags: frame.FlagEndStream | frame.FlagEndHeaders})
	tr.Frame(conn, true, frame.Header{Type: frame.TypeHeaders, StreamID: 3, Flags: frame.FlagEndStream | frame.FlagEndHeaders})
	tr.Frame(conn, false, frame.Header{Type: frame.TypeHeaders, StreamID: 1, Flags: frame.FlagEndHeaders, Length: 20})
	tr.Frame(conn, false, frame.Header{Type: frame.TypeHeaders, StreamID: 3, Flags: frame.FlagEndHeaders, Length: 20})
	tr.Frame(conn, false, frame.Header{Type: frame.TypeData, StreamID: 1, Length: 100})
	tr.Frame(conn, false, frame.Header{Type: frame.TypeData, StreamID: 3, Length: 200})
	tr.Frame(conn, false, frame.Header{Type: frame.TypeData, StreamID: 1, Length: 50, Flags: frame.FlagEndStream})
	tr.Frame(conn, false, frame.Header{Type: frame.TypeData, StreamID: 3, Length: 50, Flags: frame.FlagEndStream})
	end()
	tr.ConnClose(conn, "")

	conns := BuildConns(tr.Snapshot())
	if len(conns) != 1 {
		t.Fatalf("got %d conns, want 1", len(conns))
	}
	c := conns[0]
	if !c.Opened || !c.Closed || c.Detail != "testbed.example" {
		t.Fatalf("conn lifecycle: opened=%v closed=%v detail=%q", c.Opened, c.Closed, c.Detail)
	}
	if c.FramesSent != 2 || c.FramesRecv != 6 || c.BytesRecv != 400 {
		t.Fatalf("conn tallies = %d sent / %d recv / %dB, want 2/6/400", c.FramesSent, c.FramesRecv, c.BytesRecv)
	}
	if len(c.Streams) != 2 {
		t.Fatalf("got %d streams, want 2", len(c.Streams))
	}
	for i, want := range []struct {
		id    uint32
		bytes int64
	}{{1, 150}, {3, 250}} {
		s := c.Streams[i]
		if s.StreamID != want.id || s.Phase != "multiplexing" || !s.EndStream || s.Reset {
			t.Errorf("stream %d = %+v", want.id, s)
		}
		if s.FramesSent != 1 || s.FramesRecv != 3 || s.BytesRecv != want.bytes {
			t.Errorf("stream %d tallies = %d/%d frames, %dB recv; want 1/3, %d",
				want.id, s.FramesSent, s.FramesRecv, s.BytesRecv, want.bytes)
		}
		if s.Request.IsZero() || s.FirstByte <= 0 || s.LastByte < s.FirstByte {
			t.Errorf("stream %d landmarks: request=%v first=%v last=%v", want.id, s.Request, s.FirstByte, s.LastByte)
		}
	}
}

func TestBuilderSkipsStreamsWithoutRequestLandmark(t *testing.T) {
	// DATA on a stream whose HEADERS predates the ring window, and a
	// PRIORITY-only tree node: each is a tallies-only row with no latency,
	// and the monitor observes nothing for it.
	events := []trace.Event{
		{Kind: trace.KindConnOpen, Conn: 1, At: at(0)},
		{Kind: trace.KindFrameRecv, Conn: 1, StreamID: 5, FrameType: frame.TypeData, Length: 77, Flags: frame.FlagEndStream, At: at(1)},
		{Kind: trace.KindFrameSent, Conn: 1, StreamID: 7, FrameType: frame.TypePriority, At: at(1)},
		{Kind: trace.KindConnClose, Conn: 1, At: at(2)},
	}
	conns := BuildConns(events)
	if len(conns) != 1 || len(conns[0].Streams) != 2 {
		t.Fatalf("got %+v, want one conn with two tallies-only streams", conns)
	}
	for _, s := range conns[0].Streams {
		if !s.Request.IsZero() || s.FirstByte != 0 || s.LastByte != 0 || s.EndStream {
			t.Errorf("stream %d has a landmark without a request: %+v", s.StreamID, s)
		}
	}
	if s := conns[0].Streams[0]; s.FramesRecv != 1 || s.BytesRecv != 77 {
		t.Errorf("stream 5 tallies = %+v, want 1 frame / 77B recv", s)
	}

	var sb strings.Builder
	RenderConns(&sb, conns)
	if want := "frames=0/1 data=0/77B first-byte=- last-byte=-\n"; !strings.Contains(sb.String(), want) {
		t.Errorf("render output missing %q:\n%s", want, sb.String())
	}

	m := NewMonitor(MonitorConfig{})
	m.ObserveTarget("ring-wrapped.example", "", events)
	for _, p := range []string{PhaseFirstByte, PhaseLastByte} {
		if _, _, n := m.PhaseQuantiles(p); n != 0 {
			t.Errorf("monitor observed %d %s samples for streams with no request", n, p)
		}
	}
}

// TestBuilderClockStartsAtHeaders pins the rule the two former folds
// disagreed on: a PRIORITY sent 20 ms ahead of a stream's HEADERS is
// tallied but does not start the stream's clock.
func TestBuilderClockStartsAtHeaders(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindConnOpen, Conn: 1, At: at(0)},
		{Kind: trace.KindFrameSent, Conn: 1, StreamID: 3, FrameType: frame.TypePriority, At: at(3)},
		{Kind: trace.KindFrameSent, Conn: 1, StreamID: 3, FrameType: frame.TypeHeaders, At: at(23)},
		{Kind: trace.KindFrameRecv, Conn: 1, StreamID: 3, FrameType: frame.TypeHeaders, At: at(27)},
		{Kind: trace.KindFrameRecv, Conn: 1, StreamID: 3, FrameType: frame.TypeData, Flags: frame.FlagEndStream, At: at(29)},
	}
	s := BuildConns(events)[0].Streams[0]
	if !s.Request.Equal(at(23)) || s.FirstByte != 4*time.Millisecond || s.LastByte != 6*time.Millisecond {
		t.Errorf("stream 3 = %+v, want request at +23ms, first-byte 4ms, last-byte 6ms", s)
	}
	if s.FramesSent != 2 || s.FramesRecv != 2 {
		t.Errorf("stream 3 frames = %d/%d, want 2/2 (PRIORITY tallied)", s.FramesSent, s.FramesRecv)
	}
}

func TestBuilderReusableAfterFinish(t *testing.T) {
	b := NewBuilder()
	for _, ev := range clientEvents() {
		b.Feed(ev)
	}
	if got := len(b.Finish()); got != 1 {
		t.Fatalf("first Finish: %d conns", got)
	}
	if got := len(b.Finish()); got != 0 {
		t.Fatalf("second Finish: %d conns, want 0", got)
	}
	for _, ev := range clientEvents() {
		b.Feed(ev)
	}
	if got := len(b.Finish()); got != 1 {
		t.Fatalf("reuse Finish: %d conns", got)
	}
}

func TestRenderConns(t *testing.T) {
	var sb strings.Builder
	RenderConns(&sb, BuildConns(clientEvents()))
	out := sb.String()
	for _, want := range []string{
		"conn 1  open=yes close=yes  site-000001.example:443  total=50.0ms  frames=4/4 data=0/0B\n",
		"  dial=5.0ms tls=7.0ms preface=2.0ms settle=6.0ms close=5.0ms\n",
		"  stream 1    -                      +22.0ms    frames=1/3 data=0/0B first-byte=8.0ms last-byte=18.0ms END_STREAM\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}
