package server_test

import (
	"strconv"
	"testing"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/h2conn"
	"h2scope/internal/netsim"
	"h2scope/internal/server"
)

const testTimeout = 5 * time.Second

// start launches a server for profile over an in-memory listener and
// returns a dialer. Cleanup is registered on t.
func start(t *testing.T, p server.Profile) func(opts h2conn.Options) *h2conn.Conn {
	t.Helper()
	srv := server.New(p, server.DefaultSite("test.example"))
	l := netsim.NewListener(p.Name)
	go func() {
		_ = srv.Serve(l)
	}()
	t.Cleanup(srv.Close)
	return func(opts h2conn.Options) *h2conn.Conn {
		t.Helper()
		nc, err := l.Dial()
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c, err := h2conn.Dial(nc, opts)
		if err != nil {
			t.Fatalf("h2 dial: %v", err)
		}
		t.Cleanup(func() {
			_ = c.Close()
		})
		return c
	}
}

// awaitResponses folds the connection's events into one Response per stream
// and returns them, in the order given, once every stream has ended.
func awaitResponses(t *testing.T, c *h2conn.Conn, ids ...uint32) []*h2conn.Response {
	t.Helper()
	resps := make([]*h2conn.Response, len(ids))
	for i, id := range ids {
		resps[i] = h2conn.NewResponse(id)
	}
	if _, err := c.Wait(0, testTimeout, func(e h2conn.Event) bool {
		done := true
		for _, r := range resps {
			r.Add(e)
			done = done && r.Done()
		}
		return done
	}); err != nil {
		t.Fatalf("waiting for streams %v to end: %v", ids, err)
	}
	return resps
}

func TestBasicGETAllProfiles(t *testing.T) {
	for _, p := range server.TestbedProfiles() {
		p := p
		t.Run(p.Family, func(t *testing.T) {
			t.Parallel()
			c := start(t, p)(h2conn.DefaultOptions())
			if _, err := c.WaitSettings(testTimeout); err != nil {
				t.Fatalf("WaitSettings: %v", err)
			}
			resp, err := c.FetchBody(h2conn.Request{Authority: "test.example", Path: "/"}, testTimeout)
			if err != nil {
				t.Fatalf("FetchBody: %v", err)
			}
			if resp.Status() != "200" {
				t.Errorf("status = %q, want 200", resp.Status())
			}
			if got := resp.Header("server"); got != p.Name {
				t.Errorf("server header = %q, want %q", got, p.Name)
			}
			if len(resp.Body) == 0 || !resp.EndStream {
				t.Errorf("body len=%d endStream=%v", len(resp.Body), resp.EndStream)
			}
		})
	}
}

func Test404(t *testing.T) {
	c := start(t, server.NginxProfile())(h2conn.DefaultOptions())
	resp, err := c.FetchBody(h2conn.Request{Authority: "test.example", Path: "/missing"}, testTimeout)
	if err != nil {
		t.Fatalf("FetchBody: %v", err)
	}
	if resp.Status() != "404" {
		t.Errorf("status = %q, want 404", resp.Status())
	}
}

func TestSettingsAdvertised(t *testing.T) {
	p := server.H2OProfile()
	c := start(t, p)(h2conn.DefaultOptions())
	ev, err := c.WaitSettings(testTimeout)
	if err != nil {
		t.Fatalf("WaitSettings: %v", err)
	}
	got := map[frame.SettingID]uint32{}
	for _, s := range ev.Settings {
		got[s.ID] = s.Val
	}
	if got[frame.SettingMaxConcurrentStreams] != p.MaxConcurrentStreams {
		t.Errorf("MAX_CONCURRENT_STREAMS = %d, want %d",
			got[frame.SettingMaxConcurrentStreams], p.MaxConcurrentStreams)
	}
	if got[frame.SettingInitialWindowSize] != p.InitialWindowSize {
		t.Errorf("INITIAL_WINDOW_SIZE = %d, want %d",
			got[frame.SettingInitialWindowSize], p.InitialWindowSize)
	}
}

func TestNginxAdvertisesZeroWindowThenBoost(t *testing.T) {
	// Table V observation: Nginx advertises SETTINGS_INITIAL_WINDOW_SIZE 0
	// and immediately reopens windows with WINDOW_UPDATE frames.
	c := start(t, server.NginxProfile())(h2conn.DefaultOptions())
	var sawSettings, sawBoost bool
	if _, err := c.Wait(0, testTimeout, func(e h2conn.Event) bool {
		if e.Type == frame.TypeSettings && !e.IsAck() {
			sawSettings = true
			for _, s := range e.Settings {
				if s.ID == frame.SettingInitialWindowSize && s.Val != 0 {
					t.Errorf("INITIAL_WINDOW_SIZE = %d, want 0", s.Val)
				}
			}
		}
		if e.Type == frame.TypeWindowUpdate && e.StreamID == 0 {
			sawBoost = true
		}
		return sawSettings && sawBoost
	}); err != nil {
		t.Fatalf("Wait: %v (settings %v, boost %v)", err, sawSettings, sawBoost)
	}
}

func TestMultiplexingInterleavesLargeObjects(t *testing.T) {
	// Section III-A.1: N concurrent downloads of large objects must yield
	// interleaved DATA frames on every testbed profile.
	for _, p := range server.TestbedProfiles() {
		p := p
		t.Run(p.Family, func(t *testing.T) {
			t.Parallel()
			c := start(t, p)(h2conn.DefaultOptions())
			if _, err := c.WaitSettings(testTimeout); err != nil {
				t.Fatal(err)
			}
			id1, err := c.OpenStream(h2conn.Request{Authority: "test.example", Path: "/large/1"})
			if err != nil {
				t.Fatal(err)
			}
			id2, err := c.OpenStream(h2conn.Request{Authority: "test.example", Path: "/large/2"})
			if err != nil {
				t.Fatal(err)
			}
			resps := awaitResponses(t, c, id1, id2)
			r1, r2 := resps[0], resps[1]
			if len(r1.Body) != 96*1024 || len(r2.Body) != 96*1024 {
				t.Fatalf("body lengths %d/%d, want 98304", len(r1.Body), len(r2.Body))
			}
			// Interleaved: stream 1's last DATA arrives after stream 2's
			// first, and vice versa.
			if !(r1.LastDataSeq > r2.FirstDataSeq && r2.LastDataSeq > r1.FirstDataSeq) {
				t.Errorf("responses not interleaved: s1=[%d..%d] s2=[%d..%d]",
					r1.FirstDataSeq, r1.LastDataSeq, r2.FirstDataSeq, r2.LastDataSeq)
			}
		})
	}
}

func TestFlowControlOneByteWindow(t *testing.T) {
	// Section III-B.1: with SETTINGS_INITIAL_WINDOW_SIZE=1 the first DATA
	// frame must carry exactly one byte.
	opts := h2conn.Options{
		Settings:        []frame.Setting{{ID: frame.SettingInitialWindowSize, Val: 1}},
		AutoSettingsAck: true,
		AutoPingAck:     true,
	}
	c := start(t, server.ApacheProfile())(opts)
	if _, err := c.WaitSettings(testTimeout); err != nil {
		t.Fatal(err)
	}
	id, err := c.OpenStream(h2conn.Request{Authority: "test.example", Path: "/static/app.js"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := c.Wait(0, testTimeout, func(e h2conn.Event) bool {
		return e.Type == frame.TypeData && e.StreamID == id
	})
	if err != nil {
		t.Fatalf("waiting for DATA: %v", err)
	}
	if len(data.Data) != 1 {
		t.Fatalf("first DATA frame carries %d bytes, want 1", len(data.Data))
	}
}

func TestZeroInitialWindowHeadersBehavior(t *testing.T) {
	// Section III-B.2: at SETTINGS_INITIAL_WINDOW_SIZE=0 a compliant server
	// returns HEADERS without DATA; LiteSpeed withholds even HEADERS.
	opts := h2conn.Options{
		Settings:        []frame.Setting{{ID: frame.SettingInitialWindowSize, Val: 0}},
		AutoSettingsAck: true,
	}
	t.Run("compliant", func(t *testing.T) {
		c := start(t, server.NginxProfile())(opts)
		if _, err := c.WaitSettings(testTimeout); err != nil {
			t.Fatal(err)
		}
		id, err := c.OpenStream(h2conn.Request{Authority: "test.example", Path: "/static/app.js"})
		if err != nil {
			t.Fatal(err)
		}
		gotHeaders := false
		c.WaitQuiet(0, 50*time.Millisecond, time.Second, func(e h2conn.Event) {
			if e.Type == frame.TypeHeaders && e.StreamID == id {
				gotHeaders = true
			}
			if e.Type == frame.TypeData && e.StreamID == id && len(e.Data) > 0 {
				t.Error("server sent DATA despite zero window")
			}
		})
		if !gotHeaders {
			t.Fatal("no HEADERS at zero window")
		}
	})
	t.Run("litespeed withholds headers", func(t *testing.T) {
		c := start(t, server.LiteSpeedProfile())(opts)
		if _, err := c.WaitSettings(testTimeout); err != nil {
			t.Fatal(err)
		}
		id, err := c.OpenStream(h2conn.Request{Authority: "test.example", Path: "/static/app.js"})
		if err != nil {
			t.Fatal(err)
		}
		c.WaitQuiet(0, 50*time.Millisecond, time.Second, func(e h2conn.Event) {
			if e.Type == frame.TypeHeaders && e.StreamID == id {
				t.Error("LiteSpeed profile sent HEADERS under zero window")
			}
		})
	})
}

func TestZeroWindowUpdateReactions(t *testing.T) {
	// Section III-B.3 / Table III rows 6-7.
	tests := []struct {
		profile    server.Profile
		streamWant frame.Type // expected frame type in reaction, or 0 for ignore
		connWant   frame.Type
	}{
		{server.NginxProfile(), 0, 0},
		{server.LiteSpeedProfile(), frame.TypeRSTStream, frame.TypeGoAway},
		{server.H2OProfile(), frame.TypeRSTStream, frame.TypeGoAway},
		{server.NghttpdProfile(), frame.TypeGoAway, frame.TypeGoAway},
		{server.TengineProfile(), 0, 0},
		{server.ApacheProfile(), frame.TypeGoAway, frame.TypeGoAway},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.profile.Family+"/stream", func(t *testing.T) {
			t.Parallel()
			dial := start(t, tt.profile)
			c := dial(h2conn.DefaultOptions())
			if _, err := c.WaitSettings(testTimeout); err != nil {
				t.Fatal(err)
			}
			id, err := c.OpenStream(h2conn.Request{Authority: "test.example", Path: "/"})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.WriteWindowUpdate(id, 0); err != nil {
				t.Fatal(err)
			}
			checkReaction(t, c, tt.streamWant, id)
		})
		t.Run(tt.profile.Family+"/conn", func(t *testing.T) {
			t.Parallel()
			dial := start(t, tt.profile)
			c := dial(h2conn.DefaultOptions())
			if _, err := c.WaitSettings(testTimeout); err != nil {
				t.Fatal(err)
			}
			if err := c.WriteWindowUpdate(0, 0); err != nil {
				t.Fatal(err)
			}
			checkReaction(t, c, tt.connWant, 0)
		})
	}
}

// checkReaction verifies the server reacted with the wanted frame type on
// the given stream (0 scans GOAWAY), or stayed silent for want == 0.
func checkReaction(t *testing.T, c *h2conn.Conn, want frame.Type, streamID uint32) {
	t.Helper()
	if want == 0 {
		c.WaitQuiet(0, 50*time.Millisecond, time.Second, func(e h2conn.Event) {
			if e.Type == frame.TypeRSTStream || e.Type == frame.TypeGoAway {
				t.Errorf("expected silence, saw %v", e.Type)
			}
		})
		return
	}
	_, err := c.Wait(0, testTimeout, func(e h2conn.Event) bool {
		return e.Type == want && (want == frame.TypeGoAway || e.StreamID == streamID)
	})
	if err != nil {
		t.Fatalf("waiting for %v: %v (events: %+v)", want, err, summarize(c.Events()))
	}
}

func summarize(events []h2conn.Event) []string {
	out := make([]string, 0, len(events))
	for _, e := range events {
		out = append(out, e.Type.String())
	}
	return out
}

func TestLargeWindowUpdateReactions(t *testing.T) {
	// Section III-B.4: overflowing the connection window draws GOAWAY; a
	// stream window draws RST_STREAM — on every testbed profile.
	for _, p := range server.TestbedProfiles() {
		p := p
		t.Run(p.Family+"/conn", func(t *testing.T) {
			t.Parallel()
			c := start(t, p)(h2conn.DefaultOptions())
			if _, err := c.WaitSettings(testTimeout); err != nil {
				t.Fatal(err)
			}
			if err := c.WriteWindowUpdate(0, frame.MaxWindowSize); err != nil {
				t.Fatal(err)
			}
			if err := c.WriteWindowUpdate(0, frame.MaxWindowSize); err != nil {
				t.Fatal(err)
			}
			checkReaction(t, c, frame.TypeGoAway, 0)
		})
		t.Run(p.Family+"/stream", func(t *testing.T) {
			t.Parallel()
			// No automatic window refills: the stream must stay open and
			// flow-blocked while the oversized updates arrive.
			c := start(t, p)(h2conn.Options{AutoSettingsAck: true, AutoPingAck: true})
			if _, err := c.WaitSettings(testTimeout); err != nil {
				t.Fatal(err)
			}
			id, err := c.OpenStream(h2conn.Request{Authority: "test.example", Path: "/large/1"})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.WriteWindowUpdate(id, frame.MaxWindowSize); err != nil {
				t.Fatal(err)
			}
			if err := c.WriteWindowUpdate(id, frame.MaxWindowSize); err != nil {
				t.Fatal(err)
			}
			checkReaction(t, c, frame.TypeRSTStream, id)
		})
	}
}

func TestSelfDependencyReactions(t *testing.T) {
	// Section III-C.2 / Table III row 12.
	tests := []struct {
		profile server.Profile
		want    frame.Type
	}{
		{server.NginxProfile(), frame.TypeRSTStream},
		{server.LiteSpeedProfile(), 0},
		{server.H2OProfile(), frame.TypeGoAway},
		{server.NghttpdProfile(), frame.TypeGoAway},
		{server.TengineProfile(), frame.TypeRSTStream},
		{server.ApacheProfile(), frame.TypeGoAway},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.profile.Family, func(t *testing.T) {
			t.Parallel()
			c := start(t, tt.profile)(h2conn.DefaultOptions())
			if _, err := c.WaitSettings(testTimeout); err != nil {
				t.Fatal(err)
			}
			id := c.NextStreamID()
			if err := c.WritePriority(id, frame.PriorityParam{StreamDep: id, Weight: 15}); err != nil {
				t.Fatal(err)
			}
			checkReaction(t, c, tt.want, id)
		})
	}
}

func TestMaxConcurrentStreamsEnforcement(t *testing.T) {
	// Section V-A: with MAX_CONCURRENT_STREAMS=0 every request is refused;
	// with 1, the second concurrent request is refused.
	p := server.NginxProfile()
	p.MaxConcurrentStreams = 0
	t.Run("zero", func(t *testing.T) {
		c := start(t, p)(h2conn.DefaultOptions())
		if _, err := c.WaitSettings(testTimeout); err != nil {
			t.Fatal(err)
		}
		id, err := c.OpenStream(h2conn.Request{Authority: "test.example", Path: "/"})
		if err != nil {
			t.Fatal(err)
		}
		rst, err := c.Wait(0, testTimeout, func(e h2conn.Event) bool {
			return e.Type == frame.TypeRSTStream && e.StreamID == id
		})
		if err != nil {
			t.Fatalf("no RST_STREAM: %v", err)
		}
		if rst.ErrCode != frame.ErrCodeRefusedStream {
			t.Errorf("reset = %v, want REFUSED_STREAM", rst.ErrCode)
		}
	})

	p1 := server.NginxProfile()
	p1.MaxConcurrentStreams = 1
	t.Run("one", func(t *testing.T) {
		// No window replenishment: the 96 KiB object outgrows the 65,535-octet
		// initial window, so the first stream is still open however late the
		// second request arrives.
		opts := h2conn.DefaultOptions()
		opts.AutoStreamWindow, opts.AutoConnWindow = 0, 0
		c := start(t, p1)(opts)
		if _, err := c.WaitSettings(testTimeout); err != nil {
			t.Fatal(err)
		}
		// First request: a large object that stays open while the second
		// request arrives.
		id1, err := c.OpenStream(h2conn.Request{Authority: "test.example", Path: "/large/1"})
		if err != nil {
			t.Fatal(err)
		}
		id2, err := c.OpenStream(h2conn.Request{Authority: "test.example", Path: "/large/2"})
		if err != nil {
			t.Fatal(err)
		}
		rst, err := c.Wait(0, testTimeout, func(e h2conn.Event) bool {
			return e.Type == frame.TypeRSTStream && e.StreamID == id2
		})
		if err != nil {
			t.Fatalf("no RST_STREAM on second stream: %v", err)
		}
		if rst.ErrCode != frame.ErrCodeRefusedStream {
			t.Errorf("second stream reset = %v, want REFUSED_STREAM", rst.ErrCode)
		}
		_ = id1
	})
}

func TestServerPush(t *testing.T) {
	site := server.DefaultSite("push.example")
	site.SetPush("/", "/static/style.css", "/static/app.js")
	for _, tt := range []struct {
		profile  server.Profile
		wantPush bool
	}{
		{server.H2OProfile(), true},
		{server.NghttpdProfile(), true},
		{server.ApacheProfile(), true},
		{server.NginxProfile(), false},
		{server.LiteSpeedProfile(), false},
		{server.TengineProfile(), false},
	} {
		tt := tt
		t.Run(tt.profile.Family, func(t *testing.T) {
			t.Parallel()
			srv := server.New(tt.profile, site)
			l := netsim.NewListener(tt.profile.Name)
			go func() {
				_ = srv.Serve(l)
			}()
			t.Cleanup(srv.Close)
			nc, err := l.Dial()
			if err != nil {
				t.Fatal(err)
			}
			c, err := h2conn.Dial(nc, h2conn.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				_ = c.Close()
			})
			if _, err := c.WaitSettings(testTimeout); err != nil {
				t.Fatal(err)
			}
			if _, err := c.OpenStream(h2conn.Request{Authority: "push.example", Path: "/"}); err != nil {
				t.Fatal(err)
			}
			if !tt.wantPush {
				c.WaitQuiet(0, 50*time.Millisecond, time.Second, func(e h2conn.Event) {
					if e.Type == frame.TypePushPromise {
						t.Error("non-push profile sent PUSH_PROMISE")
					}
				})
				return
			}
			// Pushed responses arrive on the promised even streams, with
			// bodies.
			pushed := make(map[uint32]*h2conn.Response)
			if _, err := c.Wait(0, testTimeout, func(e h2conn.Event) bool {
				if e.Type == frame.TypePushPromise {
					pushed[e.PromiseID] = h2conn.NewResponse(e.PromiseID)
				}
				done := 0
				for _, r := range pushed {
					if r.Add(e); r.EndStream {
						done++
					}
				}
				return done >= 2
			}); err != nil {
				t.Fatalf("push incomplete: %v (%v)", err, summarize(c.Events()))
			}
			for pid, resp := range pushed {
				if pid%2 != 0 || len(resp.Body) == 0 {
					t.Errorf("pushed stream %d has %d body bytes", pid, len(resp.Body))
				}
			}
		})
	}
}

func TestPushDisabledByClientSetting(t *testing.T) {
	site := server.DefaultSite("push.example")
	site.SetPush("/", "/static/style.css")
	srv := server.New(server.H2OProfile(), site)
	l := netsim.NewListener("push-off")
	go func() {
		_ = srv.Serve(l)
	}()
	t.Cleanup(srv.Close)
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	opts := h2conn.DefaultOptions()
	opts.Settings = []frame.Setting{{ID: frame.SettingEnablePush, Val: 0}}
	c, err := h2conn.Dial(nc, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = c.Close()
	})
	if _, err := c.WaitSettings(testTimeout); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchBody(h2conn.Request{Authority: "push.example", Path: "/"}, testTimeout); err != nil {
		t.Fatal(err)
	}
	for _, e := range c.Events() {
		if e.Type == frame.TypePushPromise {
			t.Fatal("server pushed despite SETTINGS_ENABLE_PUSH=0")
		}
	}
}

func TestPingAck(t *testing.T) {
	c := start(t, server.NginxProfile())(h2conn.DefaultOptions())
	if _, err := c.WaitSettings(testTimeout); err != nil {
		t.Fatal(err)
	}
	rtt, err := c.Ping([8]byte{1, 2, 3, 4, 5, 6, 7, 8}, testTimeout)
	if err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if rtt <= 0 {
		t.Errorf("rtt = %v, want > 0", rtt)
	}
}

// TestStreamErrorResetReachesTheWire: a frame-level stream error (a 4-octet
// PRIORITY payload, RFC 7540 section 6.3) is answered with RST_STREAM at
// once. The serve loop's next act is a blocking read, so a reset left in the
// write buffer would wait for whatever the client happens to send next.
func TestStreamErrorResetReachesTheWire(t *testing.T) {
	c := start(t, server.NginxProfile())(h2conn.DefaultOptions())
	if _, err := c.WaitSettings(testTimeout); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteRawFrame(frame.TypePriority, 0, 5, []byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	checkReaction(t, c, frame.TypeRSTStream, 5)
}

func TestHPACKRatioDiffersByPolicy(t *testing.T) {
	// Section III-E / Figs. 4-5: repeated identical requests yield
	// shrinking response header blocks on indexing servers and constant
	// blocks on Nginx-style servers.
	ratio := func(t *testing.T, p server.Profile) float64 {
		t.Helper()
		c := start(t, p)(h2conn.DefaultOptions())
		if _, err := c.WaitSettings(testTimeout); err != nil {
			t.Fatal(err)
		}
		const reqCount = 5
		var total, first int
		for i := 0; i < reqCount; i++ {
			resp, err := c.FetchBody(h2conn.Request{Authority: "test.example", Path: "/about.html"}, testTimeout)
			if err != nil {
				t.Fatal(err)
			}
			if resp.HeaderBlockLen == 0 {
				t.Fatal("no header block length recorded")
			}
			if i == 0 {
				first = resp.HeaderBlockLen
			}
			total += resp.HeaderBlockLen
		}
		return float64(total) / float64(first*reqCount)
	}
	nginx := ratio(t, server.NginxProfile())
	h2o := ratio(t, server.H2OProfile())
	if nginx < 0.99 {
		t.Errorf("nginx ratio = %.3f, want ~1 (no response indexing)", nginx)
	}
	if h2o > 0.5 {
		t.Errorf("h2o ratio = %.3f, want < 0.5 (aggressive indexing)", h2o)
	}
}

func TestPrioritySchedulingOrdersResponses(t *testing.T) {
	// A compressed version of the paper's Algorithm 1 against the priority
	// profile: drain nothing, but give one stream a dependency on another
	// and check the parent's DATA completes first.
	c := start(t, server.H2OProfile())(h2conn.DefaultOptions())
	if _, err := c.WaitSettings(testTimeout); err != nil {
		t.Fatal(err)
	}
	parent := c.NextStreamID()
	child := c.NextStreamID()
	if err := c.OpenStreamID(parent, h2conn.Request{
		Authority: "test.example", Path: "/large/1",
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.OpenStreamID(child, h2conn.Request{
		Authority: "test.example", Path: "/large/2",
		Priority: frame.PriorityParam{StreamDep: parent, Weight: 15},
	}); err != nil {
		t.Fatal(err)
	}
	resps := awaitResponses(t, c, parent, child)
	rp, rc := resps[0], resps[1]
	if rp.LastDataSeq > rc.FirstDataSeq {
		t.Errorf("parent finished at %d after child started at %d; priority ignored",
			rp.LastDataSeq, rc.FirstDataSeq)
	}
}

func TestRoundRobinIgnoresPriority(t *testing.T) {
	c := start(t, server.NginxProfile())(h2conn.DefaultOptions())
	if _, err := c.WaitSettings(testTimeout); err != nil {
		t.Fatal(err)
	}
	parent := c.NextStreamID()
	child := c.NextStreamID()
	if err := c.OpenStreamID(parent, h2conn.Request{Authority: "test.example", Path: "/large/1"}); err != nil {
		t.Fatal(err)
	}
	if err := c.OpenStreamID(child, h2conn.Request{
		Authority: "test.example", Path: "/large/2",
		Priority: frame.PriorityParam{StreamDep: parent, Weight: 15},
	}); err != nil {
		t.Fatal(err)
	}
	resps := awaitResponses(t, c, parent, child)
	rp, rc := resps[0], resps[1]
	// Round-robin: the child's DATA starts before the parent finishes.
	if rc.FirstDataSeq > rp.LastDataSeq {
		t.Errorf("child started at %d after parent finished at %d; looks priority-scheduled",
			rc.FirstDataSeq, rp.LastDataSeq)
	}
}

func TestOmitSettingsServerSendsEmptySettings(t *testing.T) {
	// The "NULL" rows of Tables V-VII: an empty SETTINGS frame.
	p := server.NginxProfile()
	p.OmitSettings = true
	p.ConnWindowBoost = 0
	p.StreamWindowBoost = 0
	c := start(t, p)(h2conn.DefaultOptions())
	ev, err := c.WaitSettings(testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Settings) != 0 {
		t.Errorf("settings = %v, want empty frame", ev.Settings)
	}
	// The server must still serve normally.
	resp, err := c.FetchBody(h2conn.Request{Authority: "test.example", Path: "/"}, testTimeout)
	if err != nil || resp.Status() != "200" {
		t.Fatalf("fetch after NULL settings: %v / %q", err, resp.Status())
	}
}

func TestWindowUpdateOnIdleStreamIgnored(t *testing.T) {
	c := start(t, server.ApacheProfile())(h2conn.DefaultOptions())
	if _, err := c.WaitSettings(testTimeout); err != nil {
		t.Fatal(err)
	}
	// Stream 99 was never opened; a WINDOW_UPDATE for it must not kill
	// the connection.
	if err := c.WriteWindowUpdate(99, 1000); err != nil {
		t.Fatal(err)
	}
	resp, err := c.FetchBody(h2conn.Request{Authority: "test.example", Path: "/"}, testTimeout)
	if err != nil || resp.Status() != "200" {
		t.Fatalf("connection unusable after idle-stream update: %v", err)
	}
}

func TestPushedStreamsRespectFlowControl(t *testing.T) {
	// Pushed DATA is flow-controlled like any other: with a tiny stream
	// window, promised streams stall after the window is consumed.
	site := server.DefaultSite("pushfc.example")
	site.SetPush("/", "/static/hero.jpg") // 48 KiB
	srv := server.New(server.H2OProfile(), site)
	l := netsim.NewListener("pushfc")
	go func() {
		_ = srv.Serve(l)
	}()
	t.Cleanup(srv.Close)
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	opts := h2conn.Options{
		Settings:        []frame.Setting{{ID: frame.SettingInitialWindowSize, Val: 16}},
		AutoSettingsAck: true,
		AutoPingAck:     true,
	}
	c, err := h2conn.Dial(nc, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if _, err := c.WaitSettings(testTimeout); err != nil {
		t.Fatal(err)
	}
	if _, err := c.OpenStream(h2conn.Request{Authority: "pushfc.example", Path: "/"}); err != nil {
		t.Fatal(err)
	}
	var promised []*h2conn.Response
	c.WaitQuiet(0, 50*time.Millisecond, 2*time.Second, func(e h2conn.Event) {
		if e.Type == frame.TypePushPromise {
			promised = append(promised, h2conn.NewResponse(e.PromiseID))
		}
		for _, r := range promised {
			r.Add(e)
		}
	})
	if len(promised) != 1 {
		t.Fatalf("%d promises, want 1", len(promised))
	}
	pushResp := promised[0]
	if len(pushResp.Body) > 16 {
		t.Errorf("pushed stream sent %d bytes against a 16-byte window", len(pushResp.Body))
	}
	if pushResp.EndStream {
		t.Error("pushed stream completed despite the stalled window")
	}
}

func TestPushedStreamDependsOnRequestStream(t *testing.T) {
	// RFC 7540 section 5.3.5: pushed streams depend on the associated
	// stream, so under priority scheduling the page's DATA completes
	// before the pushed object's.
	site := server.NewSite("pushprio.example")
	site.AddObject("/", 64*1024)
	site.AddObject("/pushed", 64*1024)
	site.SetPush("/", "/pushed")
	srv := server.New(server.H2OProfile(), site)
	l := netsim.NewListener("pushprio")
	go func() {
		_ = srv.Serve(l)
	}()
	t.Cleanup(srv.Close)
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := h2conn.Dial(nc, h2conn.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if _, err := c.WaitSettings(testTimeout); err != nil {
		t.Fatal(err)
	}
	id, err := c.OpenStream(h2conn.Request{Authority: "pushprio.example", Path: "/"})
	if err != nil {
		t.Fatal(err)
	}
	resps := awaitResponses(t, c, id, 2)
	page, pushed := resps[0], resps[1]
	if page.LastDataSeq > pushed.FirstDataSeq {
		t.Errorf("pushed stream started (seq %d) before page finished (seq %d)",
			pushed.FirstDataSeq, page.LastDataSeq)
	}
}

func TestSequentialModeServesInArrivalOrder(t *testing.T) {
	p := server.NginxProfile()
	p.Scheduling = server.SchedSequential
	c := start(t, p)(h2conn.DefaultOptions())
	if _, err := c.WaitSettings(testTimeout); err != nil {
		t.Fatal(err)
	}
	var ids []uint32
	for i := 1; i <= 3; i++ {
		id, err := c.OpenStream(h2conn.Request{Authority: "test.example", Path: "/large/" + strconv.Itoa(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	prevLast := -1
	for _, r := range awaitResponses(t, c, ids...) {
		if r.FirstDataSeq < prevLast {
			t.Errorf("stream %d started at %d before predecessor finished at %d", r.StreamID, r.FirstDataSeq, prevLast)
		}
		prevLast = r.LastDataSeq
	}
}

func TestWeightedFairShareBetweenSiblings(t *testing.T) {
	// RFC 7540 §5.3.2: siblings share capacity proportionally to weight.
	// Two 96 KiB downloads with effective weights 128 and 32 should see
	// DATA delivered roughly 4:1 while both are active.
	c := start(t, server.H2OProfile())(h2conn.DefaultOptions())
	if _, err := c.WaitSettings(testTimeout); err != nil {
		t.Fatal(err)
	}
	heavy := c.NextStreamID()
	light := c.NextStreamID()
	if err := c.OpenStreamID(heavy, h2conn.Request{
		Authority: "test.example", Path: "/large/1",
		Priority: frame.PriorityParam{StreamDep: 0, Weight: 127}, // effective 128
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.OpenStreamID(light, h2conn.Request{
		Authority: "test.example", Path: "/large/2",
		Priority: frame.PriorityParam{StreamDep: 0, Weight: 31}, // effective 32
	}); err != nil {
		t.Fatal(err)
	}
	// Count bytes delivered to each stream until the heavy one finishes
	// (after that the light stream has the link to itself).
	heavyBytes, lightBytes := 0, 0
	if _, err := c.Wait(0, testTimeout, func(e h2conn.Event) bool {
		if e.Type != frame.TypeData {
			return false
		}
		switch e.StreamID {
		case heavy:
			heavyBytes += len(e.Data)
		case light:
			lightBytes += len(e.Data)
		}
		return e.StreamID == heavy && e.StreamEnded()
	}); err != nil {
		t.Fatal(err)
	}
	if lightBytes == 0 {
		t.Fatal("light stream starved entirely: weighted sharing absent")
	}
	ratio := float64(heavyBytes) / float64(lightBytes)
	if ratio < 2.5 || ratio > 6 {
		t.Errorf("byte ratio while both active = %.2f (heavy %d / light %d), want ~4",
			ratio, heavyBytes, lightBytes)
	}
}
