package server_test

import (
	"crypto/tls"
	"io"
	"net"
	"testing"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/h2conn"
	"h2scope/internal/hpack"
	"h2scope/internal/metrics"
	"h2scope/internal/netsim"
	"h2scope/internal/server"
	"h2scope/internal/tlsutil"
)

// rawConn dials the server and returns a raw framer after sending the
// preface, bypassing h2conn's conveniences.
func rawConn(t *testing.T, l *netsim.Listener) (*frame.Framer, net.Conn) {
	t.Helper()
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = nc.Close()
	})
	if _, err := io.WriteString(nc, frame.ClientPreface); err != nil {
		t.Fatal(err)
	}
	fr := frame.NewFramer(nc, nc)
	if err := fr.WriteSettings(); err != nil {
		t.Fatal(err)
	}
	return fr, nc
}

func startRaw(t *testing.T, p server.Profile) *netsim.Listener {
	t.Helper()
	srv := server.New(p, server.DefaultSite("raw.example"))
	l := netsim.NewListener("raw")
	go func() {
		_ = srv.Serve(l)
	}()
	t.Cleanup(srv.Close)
	return l
}

// waitFrameType reads until a frame of the wanted type or EOF/error. The
// returned frame is detached with CopyPayload: callers keep it across
// further reads on the same framer.
func waitFrameType(t *testing.T, fr *frame.Framer, want frame.Type) frame.Frame {
	t.Helper()
	for i := 0; i < 64; i++ {
		f, err := fr.ReadFrame()
		if err != nil {
			t.Fatalf("waiting for %v: %v", want, err)
		}
		if f.Header().Type == want {
			return frame.CopyPayload(f)
		}
	}
	t.Fatalf("no %v frame", want)
	return nil
}

func TestBadPrefaceClosesConnection(t *testing.T) {
	l := startRaw(t, server.NginxProfile())
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = nc.Close()
	}()
	if _, err := io.WriteString(nc, "GET / HTTP/1.1\r\nHost: x\r\n\r\n padding-to-24"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := nc.Read(buf); err == nil {
		// Server may send nothing; any read must eventually error out.
		if _, err := io.ReadAll(nc); err != nil && err != io.EOF {
			t.Fatalf("unexpected error: %v", err)
		}
	}
}

func TestMalformedHPACKDrawsCompressionError(t *testing.T) {
	l := startRaw(t, server.ApacheProfile())
	fr, _ := rawConn(t, l)
	// An indexed-field reference to index 200 with an empty dynamic table.
	if err := fr.WriteHeaders(frame.HeadersParams{
		StreamID:   1,
		Fragment:   []byte{0x80 | 0x7f, 0x79}, // index 127+121 = 248
		EndStream:  true,
		EndHeaders: true,
	}); err != nil {
		t.Fatal(err)
	}
	ga := waitFrameType(t, fr, frame.TypeGoAway).(*frame.GoAwayFrame)
	if ga.Code != frame.ErrCodeCompression {
		t.Errorf("GOAWAY code = %v, want COMPRESSION_ERROR", ga.Code)
	}
}

func TestInvalidEnablePushSettingDrawsGoAway(t *testing.T) {
	l := startRaw(t, server.H2OProfile())
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = nc.Close()
	}()
	if _, err := io.WriteString(nc, frame.ClientPreface); err != nil {
		t.Fatal(err)
	}
	fr := frame.NewFramer(nc, nc)
	if err := fr.WriteSettings(frame.Setting{ID: frame.SettingEnablePush, Val: 2}); err != nil {
		t.Fatal(err)
	}
	ga := waitFrameType(t, fr, frame.TypeGoAway).(*frame.GoAwayFrame)
	if ga.Code != frame.ErrCodeProtocol {
		t.Errorf("GOAWAY code = %v, want PROTOCOL_ERROR", ga.Code)
	}
}

func TestEvenStreamIDFromClientDrawsGoAway(t *testing.T) {
	l := startRaw(t, server.NginxProfile())
	fr, _ := rawConn(t, l)
	enc := hpack.NewEncoder(hpack.PolicyIndexAll)
	block := enc.AppendBlock(nil, []hpack.HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "raw.example"},
		{Name: ":path", Value: "/"},
	})
	if err := fr.WriteHeaders(frame.HeadersParams{
		StreamID: 2, Fragment: block, EndStream: true, EndHeaders: true,
	}); err != nil {
		t.Fatal(err)
	}
	ga := waitFrameType(t, fr, frame.TypeGoAway).(*frame.GoAwayFrame)
	if ga.Code != frame.ErrCodeProtocol {
		t.Errorf("GOAWAY code = %v, want PROTOCOL_ERROR", ga.Code)
	}
}

func TestRequestHeadersAcrossContinuation(t *testing.T) {
	l := startRaw(t, server.NginxProfile())
	fr, _ := rawConn(t, l)
	enc := hpack.NewEncoder(hpack.PolicyIndexAll)
	block := enc.AppendBlock(nil, []hpack.HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "raw.example"},
		{Name: ":path", Value: "/about.html"},
		{Name: "user-agent", Value: "continuation-test/1.0"},
	})
	half := len(block) / 2
	if err := fr.WriteHeaders(frame.HeadersParams{
		StreamID: 1, Fragment: block[:half], EndStream: true, EndHeaders: false,
	}); err != nil {
		t.Fatal(err)
	}
	if err := fr.WriteContinuation(1, true, block[half:]); err != nil {
		t.Fatal(err)
	}
	hf := waitFrameType(t, fr, frame.TypeHeaders).(*frame.HeadersFrame)
	dec := hpack.NewDecoder(hpack.DefaultDynamicTableSize)
	fields, err := dec.DecodeFull(hf.Fragment)
	if err != nil {
		t.Fatal(err)
	}
	status := ""
	for _, f := range fields {
		if f.Name == ":status" {
			status = f.Value
		}
	}
	if status != "200" {
		t.Errorf("status = %q, want 200 (fields %v)", status, fields)
	}
}

func TestInterleavedFrameDuringContinuationDrawsGoAway(t *testing.T) {
	l := startRaw(t, server.NginxProfile())
	fr, _ := rawConn(t, l)
	enc := hpack.NewEncoder(hpack.PolicyIndexAll)
	block := enc.AppendBlock(nil, []hpack.HeaderField{{Name: ":method", Value: "GET"}})
	if err := fr.WriteHeaders(frame.HeadersParams{
		StreamID: 1, Fragment: block, EndStream: true, EndHeaders: false,
	}); err != nil {
		t.Fatal(err)
	}
	// A PING in the middle of a header block is a connection error
	// (RFC 7540 section 6.10).
	if err := fr.WritePing(false, [8]byte{}); err != nil {
		t.Fatal(err)
	}
	ga := waitFrameType(t, fr, frame.TypeGoAway).(*frame.GoAwayFrame)
	if ga.Code != frame.ErrCodeProtocol {
		t.Errorf("GOAWAY code = %v, want PROTOCOL_ERROR", ga.Code)
	}
}

func TestClientDataOverflowingConnWindowDrawsFlowControlError(t *testing.T) {
	l := startRaw(t, server.ApacheProfile())
	fr, _ := rawConn(t, l)
	enc := hpack.NewEncoder(hpack.PolicyIndexAll)
	block := enc.AppendBlock(nil, []hpack.HeaderField{
		{Name: ":method", Value: "POST"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "raw.example"},
		{Name: ":path", Value: "/"},
	})
	if err := fr.WriteHeaders(frame.HeadersParams{
		StreamID: 1, Fragment: block, EndHeaders: true,
	}); err != nil {
		t.Fatal(err)
	}
	// Flood past the server's 65,535-octet connection receive window.
	chunk := make([]byte, 16384)
	var sawGoAway bool
	for i := 0; i < 8 && !sawGoAway; i++ {
		if err := fr.WriteData(1, false, chunk); err != nil {
			break // server likely tore the connection down already
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		f, err := fr.ReadFrame()
		if err != nil {
			break
		}
		if ga, ok := f.(*frame.GoAwayFrame); ok {
			if ga.Code != frame.ErrCodeFlowControl {
				t.Errorf("GOAWAY code = %v, want FLOW_CONTROL_ERROR", ga.Code)
			}
			sawGoAway = true
			break
		}
	}
	if !sawGoAway {
		t.Fatal("no GOAWAY after flooding the connection window")
	}
}

func TestAbruptClientCloseDoesNotWedgeServer(t *testing.T) {
	srv := server.New(server.H2OProfile(), server.DefaultSite("raw.example"))
	l := netsim.NewListener("abrupt")
	go func() {
		_ = srv.Serve(l)
	}()
	// Open and abandon a handful of mid-request connections.
	for i := 0; i < 5; i++ {
		nc, err := l.Dial()
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.WriteString(nc, frame.ClientPreface)
		_ = nc.Close()
	}
	// The server must still accept and serve new connections.
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := h2conn.Dial(nc, h2conn.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.FetchBody(h2conn.Request{Authority: "raw.example", Path: "/"}, 5*time.Second)
	if err != nil {
		t.Fatalf("FetchBody after abrupt closes: %v", err)
	}
	if resp.Status() != "200" {
		t.Errorf("status = %q", resp.Status())
	}
	_ = c.Close()
	srv.Close() // must return promptly with no wedged goroutines
}

func TestPingFloodStaysResponsive(t *testing.T) {
	l := startRaw(t, server.NginxProfile())
	fr, _ := rawConn(t, l)
	const pings = 500
	go func() {
		for i := 0; i < pings; i++ {
			var data [8]byte
			data[0], data[1] = byte(i>>8), byte(i)
			if err := fr.WritePing(false, data); err != nil {
				return
			}
		}
	}()
	acks := 0
	deadline := time.Now().Add(5 * time.Second)
	for acks < pings && time.Now().Before(deadline) {
		f, err := fr.ReadFrame()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if pf, ok := f.(*frame.PingFrame); ok && pf.IsAck() {
			acks++
		}
	}
	if acks != pings {
		t.Fatalf("acks = %d, want %d", acks, pings)
	}
}

func TestHeaderTableSizeShrinkEmitsTableSizeUpdate(t *testing.T) {
	// A client shrinking SETTINGS_HEADER_TABLE_SIZE must see the server's
	// next header block start with a dynamic table size update.
	l := startRaw(t, server.H2OProfile())
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = nc.Close()
	}()
	if _, err := io.WriteString(nc, frame.ClientPreface); err != nil {
		t.Fatal(err)
	}
	fr := frame.NewFramer(nc, nc)
	if err := fr.WriteSettings(frame.Setting{ID: frame.SettingHeaderTableSize, Val: 0}); err != nil {
		t.Fatal(err)
	}
	enc := hpack.NewEncoder(hpack.PolicyIndexAll)
	block := enc.AppendBlock(nil, []hpack.HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "raw.example"},
		{Name: ":path", Value: "/about.html"},
	})
	if err := fr.WriteHeaders(frame.HeadersParams{
		StreamID: 1, Fragment: block, EndStream: true, EndHeaders: true,
	}); err != nil {
		t.Fatal(err)
	}
	hf := waitFrameType(t, fr, frame.TypeHeaders).(*frame.HeadersFrame)
	if len(hf.Fragment) == 0 || hf.Fragment[0]&0xe0 != 0x20 {
		t.Errorf("header block starts with 0x%x, want a table size update (0x20)", hf.Fragment[0])
	}
	dec := hpack.NewDecoder(0)
	if _, err := dec.DecodeFull(hf.Fragment); err != nil {
		t.Errorf("decode with 0-byte table: %v", err)
	}
}

func TestTLSEndToEndOverTCP(t *testing.T) {
	// Full-stack: real TCP socket, TLS with ALPN, the HTTP/2 server, and
	// the probing client.
	cert, err := tlsutil.SelfSignedCert("tls.example", "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	tcpL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no TCP loopback available: %v", err)
	}
	srv := server.New(server.ApacheProfile(), server.DefaultSite("tls.example"))
	tlsL := tls.NewListener(tcpL, tlsutil.ServerConfig(cert, true))
	go func() {
		_ = srv.Serve(tlsL)
	}()
	t.Cleanup(srv.Close)

	nc, err := net.Dial("tcp", tcpL.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	proto, tc, err := tlsutil.NegotiateALPN(nc, "tls.example")
	if err != nil {
		t.Fatalf("ALPN: %v", err)
	}
	if proto != tlsutil.ProtoH2 {
		t.Fatalf("negotiated %q, want h2", proto)
	}
	c, err := h2conn.Dial(tc, h2conn.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = c.Close()
	}()
	resp, err := c.FetchBody(h2conn.Request{Authority: "tls.example", Path: "/"}, 5*time.Second)
	if err != nil {
		t.Fatalf("FetchBody over TLS: %v", err)
	}
	if resp.Status() != "200" {
		t.Errorf("status = %q", resp.Status())
	}
}

func TestGracefulShutdownSendsGoAwayNoError(t *testing.T) {
	srv := server.New(server.H2OProfile(), server.DefaultSite("bye.example"))
	l := netsim.NewListener("shutdown")
	go func() {
		_ = srv.Serve(l)
	}()
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := h2conn.Dial(nc, h2conn.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	// An active request proves the connection is live first.
	if _, err := c.FetchBody(h2conn.Request{Authority: "bye.example", Path: "/about.html"}, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		srv.Shutdown(2 * time.Second)
		close(done)
	}()
	goAway, err := c.Wait(0, 5*time.Second, func(e h2conn.Event) bool { return e.Type == frame.TypeGoAway })
	if err != nil {
		t.Fatalf("no GOAWAY during shutdown: %v", err)
	}
	if goAway.ErrCode != frame.ErrCodeNo {
		t.Errorf("GOAWAY code = %v, want NO_ERROR", goAway.ErrCode)
	}
	if len(goAway.DebugData) == 0 {
		t.Error("GOAWAY missing shutdown notice")
	}
	_ = c.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return")
	}
}

func TestShutdownForcesLingeringConnections(t *testing.T) {
	srv := server.New(server.NginxProfile(), server.DefaultSite("linger.example"))
	l := netsim.NewListener("linger")
	go func() {
		_ = srv.Serve(l)
	}()
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	// A client that never closes: Shutdown must force it after the grace
	// period and still return.
	c, err := h2conn.Dial(nc, h2conn.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	start := time.Now()
	srv.Shutdown(100 * time.Millisecond)
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Shutdown took %v", elapsed)
	}
}

// TestShutdownRacingAccept hammers the window between Accept returning a
// connection and the handler registering it: Shutdown must either sweep the
// connection or reject it, never strand it (which would hang wg.Wait
// forever) and never race wg.Add against wg.Wait.
func TestShutdownRacingAccept(t *testing.T) {
	for i := 0; i < 25; i++ {
		srv := server.New(server.NginxProfile(), server.DefaultSite("race.example"))
		l := netsim.NewListener("race")
		go func() {
			_ = srv.Serve(l)
		}()
		nc, err := l.Dial()
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.Shutdown(10 * time.Millisecond)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d: Shutdown stranded a connection", i)
		}
		_ = nc.Close()
	}
}

// --- window-stall accounting (h2_window_stalls_total) ---

// startInstrumented is startRaw with a metrics registry attached.
func startInstrumented(t *testing.T, p server.Profile) (*netsim.Listener, *metrics.Registry) {
	t.Helper()
	r := metrics.NewRegistry()
	srv := server.New(p, server.DefaultSite("raw.example"))
	srv.Metrics = server.NewMetrics(r)
	l := netsim.NewListener("raw-metrics")
	go func() {
		_ = srv.Serve(l)
	}()
	t.Cleanup(srv.Close)
	return l, r
}

func metricValue(t *testing.T, r *metrics.Registry, name string) int64 {
	t.Helper()
	for _, m := range r.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %q not registered", name)
	return 0
}

// waitMetricValue polls until the named counter reaches want: the server
// notes a stall on its own goroutine just after writing the last permitted
// DATA frame, so the client can observe the bytes a moment before the bump.
func waitMetricValue(t *testing.T, r *metrics.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got := metricValue(t, r, name); got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", name, metricValue(t, r, name), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// frameReader pumps frames off fr on its own goroutine so tests can apply
// timeouts (netsim conns have no read deadlines). Frames cross a goroutine
// boundary and outlive the next ReadFrame, so each is detached from the
// framer's recycled buffers with CopyPayload before it enters the channel.
func frameReader(fr *frame.Framer) <-chan frame.Frame {
	ch := make(chan frame.Frame, 64)
	go func() {
		defer close(ch)
		for {
			f, err := fr.ReadFrame()
			if err != nil {
				return
			}
			ch <- frame.CopyPayload(f)
		}
	}()
	return ch
}

// nextData returns the next DATA frame from ch, or nil if none arrives
// within timeout.
func nextData(t *testing.T, ch <-chan frame.Frame, timeout time.Duration) *frame.DataFrame {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case f, ok := <-ch:
			if !ok {
				t.Fatal("connection closed while waiting for DATA")
			}
			if df, ok := f.(*frame.DataFrame); ok {
				return df
			}
		case <-deadline:
			return nil
		}
	}
}

func writeGet(t *testing.T, fr *frame.Framer, streamID uint32, path string) {
	t.Helper()
	enc := hpack.NewEncoder(hpack.PolicyIndexAll)
	block := enc.AppendBlock(nil, []hpack.HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "raw.example"},
		{Name: ":path", Value: path},
	})
	if err := fr.WriteHeaders(frame.HeadersParams{
		StreamID: streamID, Fragment: block, EndStream: true, EndHeaders: true,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestConnWindowStallExactAccounting pins the connection-level send window to
// the RFC value: with the default 65,535-octet connection window and a stream
// window too large to bind, the server must transmit exactly 65,535 octets of
// a 65,536-octet resource before stalling — an off-by-one in either direction
// fails the byte count — then count the stall once and resume on a connection
// WINDOW_UPDATE.
func TestConnWindowStallExactAccounting(t *testing.T) {
	l, r := startInstrumented(t, server.ApacheProfile())
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = nc.Close()
	})
	if _, err := io.WriteString(nc, frame.ClientPreface); err != nil {
		t.Fatal(err)
	}
	fr := frame.NewFramer(nc, nc)
	// A huge stream window keeps the connection window the binding constraint.
	if err := fr.WriteSettings(frame.Setting{ID: frame.SettingInitialWindowSize, Val: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	writeGet(t, fr, 1, "/drain/64k")

	ch := frameReader(fr)
	stallConn := metrics.Label("h2_window_stalls_total", "scope", "conn")
	stallStream := metrics.Label("h2_window_stalls_total", "scope", "stream")
	var got int64
	for got < 65535 {
		df := nextData(t, ch, 2*time.Second)
		if df == nil {
			t.Fatalf("server stalled after %d octets, want exactly 65535 before WINDOW_UPDATE", got)
		}
		got += int64(df.FlowControlLen())
		if df.StreamEnded() {
			t.Fatalf("END_STREAM after %d octets with the connection window still charged", got)
		}
	}
	if got != 65535 {
		t.Fatalf("server sent %d octets on a 65535-octet connection window", got)
	}
	if df := nextData(t, ch, 150*time.Millisecond); df != nil {
		t.Fatalf("server sent %d octets past an exhausted connection window", df.FlowControlLen())
	}
	waitMetricValue(t, r, stallConn, 1)
	if got := metricValue(t, r, stallStream); got != 0 {
		t.Fatalf("stream stalls = %d, want 0 (the stream window never binds)", got)
	}

	if err := fr.WriteWindowUpdate(0, 1024); err != nil {
		t.Fatal(err)
	}
	df := nextData(t, ch, 2*time.Second)
	if df == nil {
		t.Fatal("no DATA after the connection WINDOW_UPDATE reopened the window")
	}
	if df.FlowControlLen() != 1 || !df.StreamEnded() {
		t.Fatalf("final frame carries %d octets (END_STREAM=%v), want the 1 remaining octet with END_STREAM",
			df.FlowControlLen(), df.StreamEnded())
	}
	if got := metricValue(t, r, stallConn); got != 1 {
		t.Fatalf("conn stalls = %d after resume, want 1 (a blocked period counts once, not per flush pass)", got)
	}
}

// TestStreamWindowStallTransitionCounting drives a stream window to zero
// twice and checks each blocked period counts exactly one stream stall while
// the connection window (never exhausted) counts none.
func TestStreamWindowStallTransitionCounting(t *testing.T) {
	l, r := startInstrumented(t, server.ApacheProfile())
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = nc.Close()
	})
	if _, err := io.WriteString(nc, frame.ClientPreface); err != nil {
		t.Fatal(err)
	}
	fr := frame.NewFramer(nc, nc)
	if err := fr.WriteSettings(frame.Setting{ID: frame.SettingInitialWindowSize, Val: 1000}); err != nil {
		t.Fatal(err)
	}
	writeGet(t, fr, 1, "/drain/16k")

	ch := frameReader(fr)
	stallConn := metrics.Label("h2_window_stalls_total", "scope", "conn")
	stallStream := metrics.Label("h2_window_stalls_total", "scope", "stream")
	readExactly := func(want int64) {
		t.Helper()
		var got int64
		for got < want {
			df := nextData(t, ch, 2*time.Second)
			if df == nil {
				t.Fatalf("server stalled after %d octets, want %d", got, want)
			}
			got += int64(df.FlowControlLen())
		}
		if got != want {
			t.Fatalf("server sent %d octets on a %d-octet stream window", got, want)
		}
	}

	readExactly(1000)
	waitMetricValue(t, r, stallStream, 1)
	if err := fr.WriteWindowUpdate(1, 500); err != nil {
		t.Fatal(err)
	}
	readExactly(500)
	waitMetricValue(t, r, stallStream, 2)
	if got := metricValue(t, r, stallConn); got != 0 {
		t.Fatalf("conn stalls = %d, want 0 (the connection window never binds)", got)
	}
}

// TestTeardownSettlesActiveStreamGauges pins the teardown accounting: a
// client that opens streams and then drops the connection mid-response must
// not leak h2_server_active_streams or h2_server_active_conns — streams that
// never reach closeStream are settled when the connection dies.
func TestTeardownSettlesActiveStreamGauges(t *testing.T) {
	l, r := startInstrumented(t, server.ApacheProfile())
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(nc, frame.ClientPreface); err != nil {
		t.Fatal(err)
	}
	fr := frame.NewFramer(nc, nc)
	// A tiny stream window keeps both responses open (stalled) when the
	// connection is abandoned.
	if err := fr.WriteSettings(frame.Setting{ID: frame.SettingInitialWindowSize, Val: 1}); err != nil {
		t.Fatal(err)
	}
	writeGet(t, fr, 1, "/drain/16k")
	writeGet(t, fr, 3, "/drain/16k")

	ch := frameReader(fr)
	if nextData(t, ch, 2*time.Second) == nil {
		t.Fatal("no DATA before teardown: streams never opened")
	}
	waitMetricValue(t, r, "h2_server_active_streams", 2)
	if err := nc.Close(); err != nil {
		t.Fatal(err)
	}
	waitMetricValue(t, r, "h2_server_active_conns", 0)
	waitMetricValue(t, r, "h2_server_active_streams", 0)
	if opened := metricValue(t, r, "h2_server_streams_opened_total"); opened != 2 {
		t.Errorf("h2_server_streams_opened_total = %d, want 2", opened)
	}
	// Both abandoned streams must still contribute duration observations.
	for _, m := range r.Snapshot() {
		if m.Name == "h2_server_stream_duration_ns" && m.Histogram != nil {
			if m.Histogram.Count != 2 {
				t.Errorf("stream duration observations = %d, want 2", m.Histogram.Count)
			}
			return
		}
	}
	t.Error("h2_server_stream_duration_ns histogram not registered")
}
