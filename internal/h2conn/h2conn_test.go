package h2conn_test

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/h2conn"
	"h2scope/internal/hpack"
	"h2scope/internal/netsim"
	"h2scope/internal/server"
)

// fakeServer gives tests frame-level control over the server side of a
// connection: it consumes the preface and exposes a framer plus the decoded
// client requests.
type fakeServer struct {
	t  *testing.T
	nc *netsim.Conn
	fr *frame.Framer
	// enc encodes response headers.
	enc *hpack.Encoder
	dec *hpack.Decoder
}

func dialFake(t *testing.T, opts h2conn.Options) (*h2conn.Conn, *fakeServer) {
	t.Helper()
	clientNC, serverNC := netsim.Pipe()
	c, err := h2conn.Dial(clientNC, opts)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() {
		_ = c.Close()
	})
	fs := &fakeServer{
		t:   t,
		nc:  serverNC,
		fr:  frame.NewFramer(serverNC, serverNC),
		enc: hpack.NewEncoder(hpack.PolicyIndexAll),
		dec: hpack.NewDecoder(hpack.DefaultDynamicTableSize),
	}
	t.Cleanup(func() {
		_ = serverNC.Close()
	})
	buf := make([]byte, len(frame.ClientPreface))
	if _, err := io.ReadFull(serverNC, buf); err != nil {
		t.Fatalf("reading preface: %v", err)
	}
	if string(buf) != frame.ClientPreface {
		t.Fatalf("preface = %q", buf)
	}
	return c, fs
}

// dialServer serves site from a real testbed server (H2O profile) over an
// in-memory listener and returns a connection to it.
func dialServer(t *testing.T, site *server.Site, opts h2conn.Options) *h2conn.Conn {
	t.Helper()
	srv := server.New(server.H2OProfile(), site)
	l := netsim.NewListener(site.Domain)
	go func() {
		_ = srv.Serve(l)
	}()
	t.Cleanup(srv.Close)
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := h2conn.Dial(nc, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// expectFrame reads frames until one of the wanted type arrives. The frame
// is detached with CopyPayload so callers may keep it across further reads.
func (fs *fakeServer) expectFrame(want frame.Type) frame.Frame {
	fs.t.Helper()
	for i := 0; i < 32; i++ {
		f, err := fs.fr.ReadFrame()
		if err != nil {
			fs.t.Fatalf("ReadFrame: %v", err)
		}
		if f.Header().Type == want {
			return frame.CopyPayload(f)
		}
	}
	fs.t.Fatalf("no %v frame in 32 reads", want)
	return nil
}

func TestDialSendsPrefaceAndSettings(t *testing.T) {
	_, fs := dialFake(t, h2conn.Options{
		Settings: []frame.Setting{{ID: frame.SettingInitialWindowSize, Val: 123}},
	})
	sf, ok := fs.expectFrame(frame.TypeSettings).(*frame.SettingsFrame)
	if !ok || sf.IsAck() {
		t.Fatalf("first frame = %+v", sf)
	}
	if v, found := sf.Value(frame.SettingInitialWindowSize); !found || v != 123 {
		t.Errorf("INITIAL_WINDOW_SIZE = %d,%v", v, found)
	}
}

func TestAutoSettingsAck(t *testing.T) {
	_, fs := dialFake(t, h2conn.Options{AutoSettingsAck: true})
	fs.expectFrame(frame.TypeSettings) // client settings
	if err := fs.fr.WriteSettings(); err != nil {
		t.Fatal(err)
	}
	ack := fs.expectFrame(frame.TypeSettings).(*frame.SettingsFrame)
	if !ack.IsAck() {
		t.Fatal("client did not ACK server SETTINGS")
	}
}

func TestAutoPingAck(t *testing.T) {
	_, fs := dialFake(t, h2conn.Options{AutoPingAck: true})
	fs.expectFrame(frame.TypeSettings)
	data := [8]byte{9, 8, 7, 6, 5, 4, 3, 2}
	if err := fs.fr.WritePing(false, data); err != nil {
		t.Fatal(err)
	}
	ack := fs.expectFrame(frame.TypePing).(*frame.PingFrame)
	if !ack.IsAck() || ack.Data != data {
		t.Fatalf("ack = %+v", ack)
	}
}

func TestOpenStreamEncodesRequest(t *testing.T) {
	c, fs := dialFake(t, h2conn.Options{})
	fs.expectFrame(frame.TypeSettings)
	id, err := c.OpenStream(h2conn.Request{
		Authority: "test.example",
		Path:      "/x",
		Extra:     []hpack.HeaderField{{Name: "x-probe", Value: "1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("first stream id = %d, want 1", id)
	}
	hf := fs.expectFrame(frame.TypeHeaders).(*frame.HeadersFrame)
	if !hf.StreamEnded() || !hf.HeadersEnded() {
		t.Error("missing END_STREAM/END_HEADERS")
	}
	fields, err := fs.dec.DecodeFull(hf.Fragment)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, f := range fields {
		got[f.Name] = f.Value
	}
	if got[":method"] != "GET" || got[":path"] != "/x" || got[":authority"] != "test.example" ||
		got[":scheme"] != "https" || got["x-probe"] != "1" {
		t.Errorf("decoded request = %v", got)
	}

	// Stream IDs advance by 2.
	id2, err := c.OpenStream(h2conn.Request{Authority: "test.example"})
	if err != nil {
		t.Fatal(err)
	}
	if id2 != 3 {
		t.Errorf("second stream id = %d, want 3", id2)
	}
}

func TestEventLogAndHeaderDecoding(t *testing.T) {
	c, fs := dialFake(t, h2conn.Options{})
	fs.expectFrame(frame.TypeSettings)
	id, err := c.OpenStream(h2conn.Request{Authority: "a", Path: "/"})
	if err != nil {
		t.Fatal(err)
	}
	fs.expectFrame(frame.TypeHeaders)

	block := fs.enc.AppendBlock(nil, []hpack.HeaderField{
		{Name: ":status", Value: "200"},
		{Name: "server", Value: "fake/1"},
	})
	if err := fs.fr.WriteHeaders(frame.HeadersParams{
		StreamID: id, Fragment: block, EndHeaders: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := fs.fr.WriteData(id, true, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	resp := h2conn.NewResponse(id)
	if _, err := c.Wait(0, 2*time.Second, func(e h2conn.Event) bool {
		resp.Add(e)
		return resp.Done()
	}); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if resp.Status() != "200" || resp.Header("server") != "fake/1" {
		t.Errorf("resp headers = %v", resp.Headers)
	}
	if string(resp.Body) != "hello" {
		t.Errorf("body = %q", resp.Body)
	}
	if resp.HeaderBlockLen != len(block) {
		t.Errorf("HeaderBlockLen = %d, want %d", resp.HeaderBlockLen, len(block))
	}
	if !resp.EndStream || resp.FirstDataSeq < 0 || resp.LastDataSeq < resp.FirstDataSeq {
		t.Errorf("resp = %+v", resp)
	}
}

func TestContinuationReassembly(t *testing.T) {
	c, fs := dialFake(t, h2conn.Options{})
	fs.expectFrame(frame.TypeSettings)
	id, err := c.OpenStream(h2conn.Request{Authority: "a"})
	if err != nil {
		t.Fatal(err)
	}
	fs.expectFrame(frame.TypeHeaders)

	block := fs.enc.AppendBlock(nil, []hpack.HeaderField{
		{Name: ":status", Value: "200"},
		{Name: "x-long", Value: "a-header-value-split-across-frames"},
	})
	half := len(block) / 2
	if err := fs.fr.WriteHeaders(frame.HeadersParams{
		StreamID: id, Fragment: block[:half], EndHeaders: false, EndStream: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := fs.fr.WriteContinuation(id, true, block[half:]); err != nil {
		t.Fatal(err)
	}
	resp := h2conn.NewResponse(id)
	if _, err := c.Wait(0, 2*time.Second, func(e h2conn.Event) bool {
		resp.Add(e)
		return resp.HeadersSeq >= 0
	}); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if resp.Header("x-long") != "a-header-value-split-across-frames" {
		t.Errorf("headers = %v", resp.Headers)
	}
	if resp.HeaderBlockLen != len(block) {
		t.Errorf("HeaderBlockLen = %d, want %d", resp.HeaderBlockLen, len(block))
	}
}

func TestPingMeasuresRTT(t *testing.T) {
	c, fs := dialFake(t, h2conn.Options{})
	fs.expectFrame(frame.TypeSettings)
	go func() {
		f := fs.expectFrame(frame.TypePing).(*frame.PingFrame)
		time.Sleep(10 * time.Millisecond)
		_ = fs.fr.WritePing(true, f.Data)
	}()
	rtt, err := c.Ping([8]byte{1}, 2*time.Second)
	if err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if rtt < 10*time.Millisecond {
		t.Errorf("rtt = %v, want >= 10ms", rtt)
	}
}

func TestWaitForTimeout(t *testing.T) {
	c, _ := dialFake(t, h2conn.Options{})
	start := time.Now()
	_, err := c.Wait(0, 50*time.Millisecond, func(h2conn.Event) bool { return false })
	if !errors.Is(err, h2conn.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) < 50*time.Millisecond {
		t.Error("returned before timeout")
	}
}

func TestWaitForConnClosed(t *testing.T) {
	c, fs := dialFake(t, h2conn.Options{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		_ = fs.nc.Close()
	}()
	_, err := c.Wait(0, 2*time.Second, func(h2conn.Event) bool { return false })
	if !errors.Is(err, h2conn.ErrConnClosed) {
		t.Fatalf("err = %v, want ErrConnClosed", err)
	}
	if c.ReadErr() == nil {
		t.Error("ReadErr() = nil after close")
	}
}

// TestGoAwayEventCarriesDebugData reads the GOAWAY event only after a later,
// equally long frame has been read over the same framer buffer: the debug
// data must be the event's own copy. (The retain analyzer reports the three
// aliasing stores this test and the next two catch; they stay as its runtime
// counterpart.)
func TestGoAwayEventCarriesDebugData(t *testing.T) {
	c, fs := dialFake(t, h2conn.Options{})
	fs.expectFrame(frame.TypeSettings)
	if err := fs.fr.WriteGoAway(7, frame.ErrCodeProtocol, []byte("zero increment")); err != nil {
		t.Fatal(err)
	}
	if err := fs.fr.WriteData(1, false, bytes.Repeat([]byte{'#'}, 8+len("zero increment"))); err != nil {
		t.Fatal(err)
	}
	var goAway *h2conn.Event
	if _, err := c.Wait(0, 2*time.Second, func(e h2conn.Event) bool {
		if e.Type == frame.TypeGoAway {
			goAway = &e
		}
		return e.Type == frame.TypeData
	}); err != nil {
		t.Fatal(err)
	}
	if goAway == nil {
		t.Fatal("no GOAWAY event recorded")
	}
	if goAway.ErrCode != frame.ErrCodeProtocol || string(goAway.DebugData) != "zero increment" ||
		goAway.LastStreamID != 7 {
		t.Errorf("GOAWAY event = %+v", *goAway)
	}
}

// TestSettingsEventSurvivesLaterSettings: the framer parses every SETTINGS
// frame into one scratch slice, so the first event must hold its own copy.
func TestSettingsEventSurvivesLaterSettings(t *testing.T) {
	c, fs := dialFake(t, h2conn.Options{})
	fs.expectFrame(frame.TypeSettings)
	first := frame.Setting{ID: frame.SettingMaxConcurrentStreams, Val: 100}
	for _, s := range []frame.Setting{first, {ID: frame.SettingInitialWindowSize, Val: 1}} {
		if err := fs.fr.WriteSettings(s); err != nil {
			t.Fatal(err)
		}
	}
	var events []h2conn.Event
	if _, err := c.Wait(0, 2*time.Second, func(e h2conn.Event) bool {
		events = append(events, e)
		return len(events) == 2
	}); err != nil {
		t.Fatal(err)
	}
	if got := events[0].Settings; len(got) != 1 || got[0] != first {
		t.Errorf("first SETTINGS event reads %v after the second arrived, want [%v]", got, first)
	}
}

// TestFetchBodyAcrossRecycledReads fetches a 96 KiB object whose DATA frames
// all differ (period-26 filler against a 16 KiB frame size) and compares it
// byte for byte: FetchBody assembles the body after the last frame has been
// read, so an Event.Data aliasing the framer's buffer would repeat the last
// frame's bytes.
func TestFetchBodyAcrossRecycledReads(t *testing.T) {
	site := server.DefaultSite("alias.example")
	c := dialServer(t, site, h2conn.DefaultOptions())
	resp, err := c.FetchBody(h2conn.Request{Authority: "alias.example", Path: "/large/1"}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := site.Lookup("/large/1")
	if len(resp.DataFrameSizes) < 3 {
		t.Fatalf("body arrived in %d DATA frame(s), want >= 3", len(resp.DataFrameSizes))
	}
	if !bytes.Equal(resp.Body, want.Body) {
		t.Errorf("fetched body (%d bytes in frames %v) differs from the served object (%d bytes)",
			len(resp.Body), resp.DataFrameSizes, len(want.Body))
	}
}

func TestAutoWindowUpdateRefillsAfterData(t *testing.T) {
	c, fs := dialFake(t, h2conn.Options{
		AutoStreamWindow: 4096,
		AutoConnWindow:   8192,
	})
	fs.expectFrame(frame.TypeSettings)
	id, err := c.OpenStream(h2conn.Request{Authority: "a"})
	if err != nil {
		t.Fatal(err)
	}
	fs.expectFrame(frame.TypeHeaders)
	if err := fs.fr.WriteData(id, false, []byte("xxxx")); err != nil {
		t.Fatal(err)
	}
	// Auto flow control replenishes exactly the consumed octets.
	var gotStream, gotConn bool
	for i := 0; i < 4 && !(gotStream && gotConn); i++ {
		wu := fs.expectFrame(frame.TypeWindowUpdate).(*frame.WindowUpdateFrame)
		switch wu.Header().StreamID {
		case id:
			gotStream = wu.Increment == 4
		case 0:
			gotConn = wu.Increment == 4
		}
	}
	if !gotStream || !gotConn {
		t.Errorf("window updates: stream=%v conn=%v", gotStream, gotConn)
	}
}

func TestWaitSettings(t *testing.T) {
	c, fs := dialFake(t, h2conn.Options{})
	fs.expectFrame(frame.TypeSettings)
	if err := fs.fr.WriteSettings(frame.Setting{ID: frame.SettingMaxConcurrentStreams, Val: 77}); err != nil {
		t.Fatal(err)
	}
	ev, err := c.WaitSettings(2 * time.Second)
	if err != nil {
		t.Fatalf("WaitSettings: %v", err)
	}
	if len(ev.Settings) != 1 || ev.Settings[0].Val != 77 {
		t.Errorf("settings = %v", ev.Settings)
	}
}

func TestPushPromiseWithContinuation(t *testing.T) {
	c, fs := dialFake(t, h2conn.Options{})
	fs.expectFrame(frame.TypeSettings)
	if _, err := c.OpenStream(h2conn.Request{Authority: "a", Path: "/"}); err != nil {
		t.Fatal(err)
	}
	fs.expectFrame(frame.TypeHeaders)

	block := fs.enc.AppendBlock(nil, []hpack.HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":path", Value: "/pushed-resource-with-a-long-path.css"},
	})
	half := len(block) / 2
	if err := fs.fr.WritePushPromise(1, 2, false, block[:half]); err != nil {
		t.Fatal(err)
	}
	if err := fs.fr.WriteContinuation(1, true, block[half:]); err != nil {
		t.Fatal(err)
	}
	e, err := c.Wait(0, 2*time.Second, func(e h2conn.Event) bool {
		return e.Type == frame.TypePushPromise
	})
	if err != nil {
		t.Fatalf("no PUSH_PROMISE event: %v", err)
	}
	if e.PromiseID != 2 {
		t.Errorf("PromiseID = %d, want 2", e.PromiseID)
	}
	found := false
	for _, hf := range e.Headers {
		if hf.Name == ":path" && strings.Contains(hf.Value, "long-path") {
			found = true
		}
	}
	if !found {
		t.Errorf("reassembled push headers = %v", e.Headers)
	}
}

func TestWaitQuietReturnsAfterIdle(t *testing.T) {
	c, fs := dialFake(t, h2conn.Options{})
	fs.expectFrame(frame.TypeSettings)
	go func() {
		for i := 0; i < 3; i++ {
			_ = fs.fr.WritePing(true, [8]byte{byte(i)})
			time.Sleep(5 * time.Millisecond)
		}
	}()
	events := 0
	c.WaitQuiet(0, 40*time.Millisecond, 2*time.Second, func(h2conn.Event) { events++ })
	if events < 3 {
		t.Errorf("events = %d, want >= 3", events)
	}
}

func TestCloseIsIdempotentAndUnblocksWaiters(t *testing.T) {
	c, _ := dialFake(t, h2conn.Options{})
	done := make(chan error, 1)
	go func() {
		_, err := c.Wait(0, 5*time.Second, func(h2conn.Event) bool { return false })
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, h2conn.ErrConnClosed) {
			t.Fatalf("waiter got %v, want ErrConnClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not unblocked by Close")
	}
}

// TestEventLogCapBoundsRetention sends past the log's 32,768-event cap: the
// older half goes, Seq stays absolute, and a waiter that was parked at event
// 0 while the trim happened resumes at the oldest event still retained.
func TestEventLogCapBoundsRetention(t *testing.T) {
	const (
		pings       = 33000
		oldestAfter = 32768 - 32768/2 + 1 // the trim runs once, at event 32,768
	)
	c, fs := dialFake(t, h2conn.Options{})
	fs.expectFrame(frame.TypeSettings)
	atZero, release := make(chan struct{}), make(chan struct{})
	parked := make(chan []int, 1)
	go func() {
		var seqs []int
		_, _ = c.Wait(0, 10*time.Second, func(e h2conn.Event) bool {
			if e.Seq == 0 {
				close(atZero)
				<-release
			}
			seqs = append(seqs, e.Seq)
			return e.Seq == pings-1
		})
		parked <- seqs
	}()
	for i := 0; i < pings; i++ {
		if err := fs.fr.WritePing(true, [8]byte{}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-atZero // the waiter holds event 0 alone; the rest arrive behind its back
		}
	}
	if _, err := c.Wait(0, 10*time.Second, func(e h2conn.Event) bool { return e.Seq == pings-1 }); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	events := c.Events()
	if len(events) != pings-oldestAfter || events[0].Seq != oldestAfter {
		t.Errorf("retained %d events from Seq %d, want %d from %d", len(events), events[0].Seq, pings-oldestAfter, oldestAfter)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("non-contiguous Seq after trim: %d then %d", events[i-1].Seq, events[i].Seq)
		}
	}

	close(release)
	seqs := <-parked
	resumed := 0
	for i := 1; i < len(seqs); i++ {
		switch {
		case seqs[i] == seqs[i-1]+1:
		case resumed == 0 && seqs[i] == oldestAfter:
			resumed = i
		default:
			t.Fatalf("parked waiter saw Seq %d after %d", seqs[i], seqs[i-1])
		}
	}
	if resumed == 0 || seqs[len(seqs)-1] != pings-1 {
		t.Errorf("parked waiter saw %d events ending at Seq %d and never resumed at Seq %d",
			len(seqs), seqs[len(seqs)-1], oldestAfter)
	}
}

// TestWaitShowsEachEventOnceInOrder sends four bursts, each only after the
// waiter has been shown the whole burst before it, so the wait goes through
// at least four wakes: every event reaches match exactly once, in Seq order.
func TestWaitShowsEachEventOnceInOrder(t *testing.T) {
	const bursts, perBurst = 4, 5
	c, fs := dialFake(t, h2conn.Options{})
	fs.expectFrame(frame.TypeSettings)
	shown := make(chan struct{}, bursts*perBurst)
	go func() {
		for b := 0; b < bursts; b++ {
			for i := 0; i < perBurst; i++ {
				if err := fs.fr.WritePing(true, [8]byte{}); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < perBurst; i++ {
				<-shown
			}
		}
	}()
	var seqs []int
	if _, err := c.Wait(0, 2*time.Second, func(e h2conn.Event) bool {
		seqs = append(seqs, e.Seq)
		shown <- struct{}{}
		return len(seqs) == bursts*perBurst
	}); err != nil {
		t.Fatalf("Wait: %v (saw %v)", err, seqs)
	}
	for i, seq := range seqs {
		if seq != i {
			t.Fatalf("match saw Seqs %v, want 0..%d once each in order", seqs, bursts*perBurst-1)
		}
	}
}

// TestWaitFromPosition: a wait from a mark sees only what arrived since.
func TestWaitFromPosition(t *testing.T) {
	c, fs := dialFake(t, h2conn.Options{})
	fs.expectFrame(frame.TypeSettings)
	send := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := fs.fr.WritePing(true, [8]byte{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	send(5)
	if _, err := c.Wait(0, 2*time.Second, func(e h2conn.Event) bool { return e.Seq == 4 }); err != nil {
		t.Fatal(err)
	}
	mark := c.Mark()
	if mark != 5 {
		t.Fatalf("Mark() = %d after five events, want 5", mark)
	}
	send(3)
	var seqs []int
	if _, err := c.Wait(mark, 2*time.Second, func(e h2conn.Event) bool {
		seqs = append(seqs, e.Seq)
		return e.Seq == 7
	}); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 || seqs[0] != 5 {
		t.Errorf("wait from %d saw Seqs %v, want [5 6 7]", mark, seqs)
	}
}

// TestFetchBodyKeepsPartialResponse: when the wait ends in a timeout or a
// closed connection, what match folded from the events before is intact —
// FetchBody returns the part of the response that had arrived.
func TestFetchBodyKeepsPartialResponse(t *testing.T) {
	for _, tt := range []struct {
		name      string
		closeConn bool
		want      error
	}{
		{"timeout", false, h2conn.ErrTimeout},
		{"closed", true, h2conn.ErrConnClosed},
	} {
		t.Run(tt.name, func(t *testing.T) {
			c, fs := dialFake(t, h2conn.Options{})
			fs.expectFrame(frame.TypeSettings)
			go func() {
				id := fs.expectFrame(frame.TypeHeaders).Header().StreamID
				block := fs.enc.AppendBlock(nil, []hpack.HeaderField{{Name: ":status", Value: "200"}})
				_ = fs.fr.WriteHeaders(frame.HeadersParams{StreamID: id, Fragment: block, EndHeaders: true})
				_ = fs.fr.WriteData(id, false, []byte("part"))
				if tt.closeConn {
					_ = fs.nc.Close()
				}
			}()
			resp, err := c.FetchBody(h2conn.Request{Authority: "a"}, 100*time.Millisecond)
			if !errors.Is(err, tt.want) {
				t.Fatalf("err = %v, want %v", err, tt.want)
			}
			if resp.Status() != "200" || string(resp.Body) != "part" || resp.Done() {
				t.Errorf("partial response = %+v", resp)
			}
		})
	}
}

// TestTwoWaitersOneConn runs two waits over one log at once (for -race):
// each is shown every event.
func TestTwoWaitersOneConn(t *testing.T) {
	const pings = 500
	c, fs := dialFake(t, h2conn.Options{})
	fs.expectFrame(frame.TypeSettings)
	counts := make(chan int, 2)
	for w := 0; w < 2; w++ {
		go func() {
			n := 0
			_, _ = c.Wait(0, 5*time.Second, func(e h2conn.Event) bool {
				n++
				return e.Seq == pings-1
			})
			counts <- n
		}()
	}
	for i := 0; i < pings; i++ {
		if err := fs.fr.WritePing(true, [8]byte{}); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 2; w++ {
		if n := <-counts; n != pings {
			t.Errorf("a waiter was shown %d of %d events", n, pings)
		}
	}
}

func TestLongLivedConnectionSurvivesManyRequests(t *testing.T) {
	// Regression: blind fixed-increment auto WINDOW_UPDATEs used to
	// overflow the server's connection window after ~2,000 requests and
	// draw GOAWAY(FLOW_CONTROL_ERROR). Replenish-consumed semantics must
	// keep one connection serviceable indefinitely.
	c := dialServer(t, server.DefaultSite("long.example"), h2conn.DefaultOptions())
	n := 3000
	if testing.Short() {
		n = 300
	}
	for i := 0; i < n; i++ {
		resp, err := c.FetchBody(h2conn.Request{Authority: "long.example", Path: "/about.html"}, 5*time.Second)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.Status() != "200" {
			t.Fatalf("request %d: status %q", i, resp.Status())
		}
	}
}

// TestOnlyStreamFramesEnd pins the one "stream ended" rule: bit 0x1 is
// END_STREAM on DATA and HEADERS only — on SETTINGS and PING it is ACK — and
// RST_STREAM ends a stream whatever its flags.
func TestOnlyStreamFramesEnd(t *testing.T) {
	for _, tc := range []struct {
		typ  frame.Type
		ends bool
	}{
		{frame.TypeData, true},
		{frame.TypeHeaders, true},
		{frame.TypeSettings, false},
		{frame.TypePing, false},
		{frame.TypePushPromise, false},
		{frame.TypeWindowUpdate, false},
	} {
		e := h2conn.Event{Type: tc.typ, Flags: 0x1, StreamID: 1}
		if e.StreamEnded() != tc.ends || e.Ends() != tc.ends {
			t.Errorf("%v with flag 0x1: StreamEnded %v, Ends %v; want %v", tc.typ, e.StreamEnded(), e.Ends(), tc.ends)
		}
	}
	if rst := (h2conn.Event{Type: frame.TypeRSTStream, StreamID: 1}); rst.StreamEnded() || !rst.Ends() {
		t.Error("RST_STREAM: want Ends and not StreamEnded")
	}
	// A PING ACK is not the end of the stream a fold is waiting on.
	r := h2conn.NewResponse(0)
	r.Add(h2conn.Event{Type: frame.TypePing, Flags: frame.FlagAck})
	r.Add(h2conn.Event{Type: frame.TypeSettings, Flags: frame.FlagAck})
	if r.Done() {
		t.Error("a PING or SETTINGS ACK on stream 0 ended the stream-0 response view")
	}
}
