package server

import (
	"bytes"
	"testing"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/h2conn"
	"h2scope/internal/hpack"
	"h2scope/internal/netsim"
)

const streamTestTimeout = 5 * time.Second

// dialServed serves one in-memory connection through ServeConn and returns
// the h2conn client on the other end, its SETTINGS already in.
func dialServed(t *testing.T, srv *Server, opts h2conn.Options) *h2conn.Conn {
	t.Helper()
	clientNC, serverNC := netsim.Pipe()
	go func() { _ = srv.ServeConn(serverNC) }()
	t.Cleanup(srv.Close)
	c, err := h2conn.Dial(clientNC, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if _, err := c.WaitSettings(streamTestTimeout); err != nil {
		t.Fatal(err)
	}
	return c
}

// trailerBlock is "x-trailer: v" as a literal that is never indexed, so it
// leaves the server's HPACK table as it found it whoever encoded it.
var trailerBlock = []byte{0x10, 9, 'x', '-', 't', 'r', 'a', 'i', 'l', 'e', 'r', 1, 'v'}

// TestTrailersDoNotReplaceTheRequest sends a POST with a body and a trailer
// block that ends the stream (RFC 7540 section 8.1). The response is the
// requested object's, and a page with a push manifest is not what answers.
func TestTrailersDoNotReplaceTheRequest(t *testing.T) {
	site := DefaultSite("trailers.example")
	want, _ := site.Lookup("/about.html")
	for _, p := range TestbedProfiles() {
		t.Run(p.Family, func(t *testing.T) {
			c := dialServed(t, New(p, site), h2conn.DefaultOptions())
			from := c.Mark()
			id, err := c.OpenStreamBody(h2conn.Request{Method: "POST", Authority: site.Domain, Path: "/about.html"})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.WriteData(id, false, []byte("form=1")); err != nil {
				t.Fatal(err)
			}
			if err := c.WriteHeadersRaw(id, trailerBlock, true, true); err != nil {
				t.Fatal(err)
			}
			resp := h2conn.NewResponse(id)
			promised := 0
			if _, err := c.Wait(from, streamTestTimeout, func(e h2conn.Event) bool {
				if e.Type == frame.TypePushPromise {
					promised++
				}
				resp.Add(e)
				return resp.Done()
			}); err != nil {
				t.Fatalf("waiting for the response: %v", err)
			}
			if resp.Status() != "200" || !bytes.Equal(resp.Body, want.Body) || promised != 0 {
				t.Errorf("status %q, %d body bytes, %d PUSH_PROMISE; want 200, the %d bytes of /about.html, none",
					resp.Status(), len(resp.Body), promised, len(want.Body))
			}
		})
	}
}

// TestDiscardedHeaderBlocksKeepHPACKInStep sends a header block whose stream
// the server turns away — refused over SETTINGS_MAX_CONCURRENT_STREAMS or
// depending on itself — and then a
// request the client encodes against the table that block built. Every block
// is decoded (RFC 7540 section 4.3), so the request is answered.
func TestDiscardedHeaderBlocksKeepHPACKInStep(t *testing.T) {
	site := DefaultSite("hpack.example")
	want, _ := site.Lookup("/about.html")
	probe := h2conn.Request{
		Authority: site.Domain,
		Path:      "/about.html",
		Extra:     []hpack.HeaderField{{Name: "x-discarded", Value: "a value only the discarded block carried"}},
	}
	// fetchAfter checks that probe, encoded against the table the turned-away
	// block left, is answered.
	fetchAfter := func(t *testing.T, c *h2conn.Conn) {
		t.Helper()
		resp, err := c.FetchBody(probe, streamTestTimeout)
		if err != nil || resp.Status() != "200" || !bytes.Equal(resp.Body, want.Body) {
			var goaway string
			for _, e := range c.Events() {
				if e.Type == frame.TypeGoAway {
					goaway = e.ErrCode.String() + " " + string(e.DebugData)
				}
			}
			t.Fatalf("request after the discarded block: %v, status %q, %d body bytes, GOAWAY %q", err, statusOf(resp), bodyLen(resp), goaway)
		}
	}
	// refuseOne holds one stream open (a POST whose body never ends) and
	// sends probe on the next, which the server refuses; then it frees the
	// slot.
	refuseOne := func(t *testing.T, c *h2conn.Conn) {
		t.Helper()
		holder, err := c.OpenStreamBody(h2conn.Request{Method: "POST", Authority: site.Domain, Path: "/"})
		if err != nil {
			t.Fatal(err)
		}
		from := c.Mark()
		id, err := c.OpenStream(probe)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := c.Wait(from, streamTestTimeout, func(e h2conn.Event) bool {
			return e.StreamID == id && e.Ends()
		})
		if err != nil || ev.Type != frame.TypeRSTStream || ev.ErrCode != frame.ErrCodeRefusedStream {
			t.Fatalf("stream %d past the limit: %v, %v; want RST_STREAM(REFUSED_STREAM)", id, ev.Type, err)
		}
		if err := c.WriteRSTStream(holder, frame.ErrCodeCancel); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("refused-over-max-concurrent-streams", func(t *testing.T) {
		p := NginxProfile()
		p.MaxConcurrentStreams = 1
		c := dialServed(t, New(p, site), h2conn.DefaultOptions())
		refuseOne(t, c)
		fetchAfter(t, c)
	})
	for _, p := range []Profile{NginxProfile(), LiteSpeedProfile()} {
		t.Run("self-dependent-"+p.Family, func(t *testing.T) {
			c := dialServed(t, New(p, site), h2conn.DefaultOptions())
			id := c.NextStreamID()
			req := probe
			req.Priority = frame.PriorityParam{StreamDep: id, Weight: 15}
			if err := c.OpenStreamID(id, req); err != nil {
				t.Fatal(err)
			}
			fetchAfter(t, c)
		})
	}
}

// TestResetStreamSendsNothingMore resets a response in flight from the
// server side — a self-dependent PRIORITY on nginx, a zero stream
// WINDOW_UPDATE on litespeed — and then opens both windows: a stream the
// server reset is closed (RFC 7540 section 5.4.2), so no DATA follows its
// RST_STREAM.
func TestResetStreamSendsNothingMore(t *testing.T) {
	for _, tc := range []struct {
		p       Profile
		provoke func(c *h2conn.Conn, id uint32) error
	}{
		{NginxProfile(), func(c *h2conn.Conn, id uint32) error {
			return c.WritePriority(id, frame.PriorityParam{StreamDep: id, Weight: 15})
		}},
		{LiteSpeedProfile(), func(c *h2conn.Conn, id uint32) error { return c.WriteWindowUpdate(id, 0) }},
	} {
		t.Run(tc.p.Family, func(t *testing.T) {
			// No automatic window refills: the 65,535-octet windows stop the
			// 96 KiB body part way.
			c := dialServed(t, New(tc.p, DefaultSite("reset.example")), h2conn.Options{AutoAck: true})
			id, err := c.OpenStream(h2conn.Request{Authority: "reset.example", Path: "/large/1"})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Wait(0, streamTestTimeout, func(e h2conn.Event) bool {
				return e.StreamID == id && e.Type == frame.TypeData
			}); err != nil {
				t.Fatal(err)
			}
			from := c.Mark()
			if err := tc.provoke(c, id); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Wait(from, streamTestTimeout, func(e h2conn.Event) bool {
				return e.StreamID == id && e.Type == frame.TypeRSTStream
			}); err != nil {
				t.Fatalf("no RST_STREAM: %v", err)
			}
			from = c.Mark()
			for _, sid := range []uint32{0, id} {
				if err := c.WriteWindowUpdate(sid, 1<<20); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.Ping([8]byte{1}, streamTestTimeout); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Ping([8]byte{2}, streamTestTimeout); err != nil {
				t.Fatal(err)
			}
			_, _ = c.Wait(from, 0, func(e h2conn.Event) bool {
				if e.StreamID == id && e.Type == frame.TypeData {
					t.Errorf("DATA (%d octets) on stream %d after the server reset it", e.DataLen, id)
				}
				return false
			})
		})
	}
}

func statusOf(r *h2conn.Response) string {
	if r == nil {
		return ""
	}
	return r.Status()
}

func bodyLen(r *h2conn.Response) int {
	if r == nil {
		return 0
	}
	return len(r.Body)
}

// TestStreamLookupSharesRecentSlots opens streams whose IDs share a slot of
// conn.recent and checks that each is still found, through the slot or the
// map, until it closes, and that a closed stream is found nowhere.
func TestStreamLookupSharesRecentSlots(t *testing.T) {
	c := newConn(New(NghttpdProfile(), DefaultSite("testbed.example")), &replayConn{})
	// 1, 2*recentStreams+1 and the push stream 2*recentStreams share slot 0;
	// the slots come into use with the recentFrom-th open stream.
	ids := []uint32{1, 3, 5, 7, 9, 11, 2*recentStreams + 1, 2 * recentStreams}
	for i, id := range ids {
		if got, want := c.recent != nil, i >= recentFrom; got != want {
			t.Fatalf("with %d streams open, slots in use: %v, want %v", i, got, want)
		}
		c.openStream(id)
	}
	if len(ids) < recentFrom || c.recent == nil {
		t.Fatalf("slots not in use with %d streams open", len(ids))
	}
	find := func(open ...uint32) {
		t.Helper()
		for _, id := range ids {
			st, ok := c.stream(id)
			want := false
			for _, o := range open {
				want = want || o == id
			}
			if ok != want || ok && st.id != id {
				t.Errorf("stream(%d) = %v, %v; want open %v", id, st, ok, want)
			}
		}
	}
	find(ids...)
	c.closeStream(2 * recentStreams) // the slot's holder
	find(1, 3, 5, 7, 9, 11, 2*recentStreams+1)
	c.closeStream(1) // in the map only
	find(3, 5, 7, 9, 11, 2*recentStreams+1)
	for _, id := range ids[1:7] {
		c.closeStream(id)
	}
	find()
	for i, st := range c.recent {
		if st != nil {
			t.Errorf("recent[%d] holds stream %d after every stream closed", i, st.id)
		}
	}
}

// TestFpIsAnOrdinaryPath: /fp is routed like any other path. A site's own
// object there is served byte for byte, and a site without one answers /fp
// with the same 404 as any unknown path.
func TestFpIsAnOrdinaryPath(t *testing.T) {
	site := NewSite("fp.example").AddObject("/fp", 300)
	want, _ := site.Lookup("/fp")
	c := dialServed(t, New(NghttpdProfile(), site), h2conn.DefaultOptions())
	resp, err := c.FetchBody(h2conn.Request{Authority: "fp.example", Path: "/fp"}, streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status() != "200" || !bytes.Equal(resp.Body, want.Body) {
		t.Errorf("site object /fp: status %q, %d octets; want 200 and its %d octets", resp.Status(), len(resp.Body), len(want.Body))
	}

	c = dialServed(t, New(NghttpdProfile(), DefaultSite("fp.example")), h2conn.DefaultOptions())
	var got [2]*h2conn.Response
	for i, path := range []string{"/fp", "/no-such-object"} {
		if got[i], err = c.FetchBody(h2conn.Request{Authority: "fp.example", Path: path}, streamTestTimeout); err != nil {
			t.Fatal(err)
		}
	}
	if got[0].Status() != "404" || !bytes.Equal(got[0].Body, got[1].Body) {
		t.Errorf("DefaultSite /fp: status %q, body %q; want the unknown path's 404, body %q", got[0].Status(), got[0].Body, got[1].Body)
	}
}
