package core_test

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"h2scope/internal/core"
	"h2scope/internal/http1"
	"h2scope/internal/netsim"
	"h2scope/internal/server"
	"h2scope/internal/trace"
)

// newProber starts a profile server over an in-memory listener and returns
// a prober aimed at it.
func newProber(t *testing.T, p server.Profile) *core.Prober {
	t.Helper()
	srv := server.New(p, server.DefaultSite("testbed.example"))
	l := netsim.NewListener(p.Name)
	go func() {
		_ = srv.Serve(l)
	}()
	// Shutdown, not Close: Close waits for as long as a connection a probe
	// leaked stays open, and the leak check's message is lost to the timeout.
	t.Cleanup(func() { srv.Shutdown(time.Second) })
	cfg := core.DefaultConfig("testbed.example")
	cfg.Timeout = 5 * time.Second
	cfg.QuietWindow = 20 * time.Millisecond
	// Every test that probes through here ends on the leak check: the
	// transports of connections the server hung up on (the GOAWAY
	// reactions) must be closed like any other.
	dialer := &netsim.CountingDialer{DialFunc: l.Dial}
	t.Cleanup(func() {
		if opened, closed := dialer.Counts(); opened != closed {
			t.Errorf("probes opened %d connections and closed %d", opened, closed)
		}
	})
	return core.NewProber(dialer, cfg)
}

// tableIIIExpectation is one column of the paper's Table III.
type tableIIIExpectation struct {
	profile           server.Profile
	flowOnHeaders     bool
	zeroWUStream      core.Observation
	zeroWUConn        core.Observation
	push              bool
	priorityPass      bool
	selfDep           core.Observation
	headerCompression string
}

func tableIII() []tableIIIExpectation {
	return []tableIIIExpectation{
		{
			profile:           server.NginxProfile(),
			zeroWUStream:      core.ObserveIgnore,
			zeroWUConn:        core.ObserveIgnore,
			selfDep:           core.ObserveRSTStream,
			headerCompression: "support*",
		},
		{
			profile:           server.LiteSpeedProfile(),
			flowOnHeaders:     true,
			zeroWUStream:      core.ObserveRSTStream,
			zeroWUConn:        core.ObserveGoAway,
			selfDep:           core.ObserveIgnore,
			headerCompression: "support",
		},
		{
			profile:           server.H2OProfile(),
			zeroWUStream:      core.ObserveRSTStream,
			zeroWUConn:        core.ObserveGoAway,
			push:              true,
			priorityPass:      true,
			selfDep:           core.ObserveGoAway,
			headerCompression: "support",
		},
		{
			profile:           server.NghttpdProfile(),
			zeroWUStream:      core.ObserveGoAway,
			zeroWUConn:        core.ObserveGoAway,
			push:              true,
			priorityPass:      true,
			selfDep:           core.ObserveGoAway,
			headerCompression: "support",
		},
		{
			profile:           server.TengineProfile(),
			zeroWUStream:      core.ObserveIgnore,
			zeroWUConn:        core.ObserveIgnore,
			selfDep:           core.ObserveRSTStream,
			headerCompression: "support*",
		},
		{
			profile:           server.ApacheProfile(),
			zeroWUStream:      core.ObserveGoAway,
			zeroWUConn:        core.ObserveGoAway,
			push:              true,
			priorityPass:      true,
			selfDep:           core.ObserveGoAway,
			headerCompression: "support",
		},
	}
}

// TestTableIIIMatrix is the paper's Table III, re-measured: the full probe
// battery against all six testbed profiles, asserting every divergent cell.
func TestTableIIIMatrix(t *testing.T) {
	for _, exp := range tableIII() {
		exp := exp
		t.Run(exp.profile.Family, func(t *testing.T) {
			t.Parallel()
			r, err := newProber(t, exp.profile).Run()
			checkTableIII(t, exp, r, err)
		})
	}
}

// TestTableIIIHoldsOverASlowPath re-measures Table III over a 150 ms round
// trip, longer than the 100 ms reaction window: every reaction comes back
// after the window, and only the PING fence behind each provocation keeps a
// late RST_STREAM or GOAWAY — or a late HEADERS — from reading as ignored.
func TestTableIIIHoldsOverASlowPath(t *testing.T) {
	const owd = 75 * time.Millisecond
	for _, exp := range tableIII() {
		exp := exp
		t.Run(exp.profile.Family, func(t *testing.T) {
			t.Parallel()
			srv := server.New(exp.profile, server.DefaultSite("testbed.example"))
			l := netsim.NewListener("slow-" + exp.profile.Name)
			go func() { _ = srv.Serve(l) }()
			t.Cleanup(func() { srv.Shutdown(time.Second) })
			cfg := core.DefaultConfig("testbed.example")
			cfg.QuietWindow = 10 * time.Millisecond
			p := core.NewProber(core.DialerFunc(func() (net.Conn, error) { return l.DialLatency(owd, owd) }), cfg)
			r, err := p.Run()
			checkTableIII(t, exp, r, err)
		})
	}
}

// checkTableIII asserts every cell of one measured Table III column.
func checkTableIII(t *testing.T, exp tableIIIExpectation, r *core.Report, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(r.Errors) > 0 {
		t.Fatalf("probe errors: %v", r.Errors)
	}
	if !r.SupportsMultiplexing() {
		t.Error("Request Multiplexing = no support, want support")
	}
	if !r.FlowControlOnData() {
		t.Errorf("Flow Control on DATA = no (class %v), want yes", r.FlowData.Class)
	}
	if got := r.FlowControlOnHeaders(); got != exp.flowOnHeaders {
		t.Errorf("Flow Control on HEADERS = %v, want %v", got, exp.flowOnHeaders)
	}
	if r.ZeroWU.Stream != exp.zeroWUStream {
		t.Errorf("Zero WU stream = %v, want %v", r.ZeroWU.Stream, exp.zeroWUStream)
	}
	if r.ZeroWU.Conn != exp.zeroWUConn {
		t.Errorf("Zero WU conn = %v, want %v", r.ZeroWU.Conn, exp.zeroWUConn)
	}
	if r.LargeWU.Conn != core.ObserveGoAway {
		t.Errorf("Large WU conn = %v, want GOAWAY", r.LargeWU.Conn)
	}
	if r.LargeWU.Stream != core.ObserveRSTStream {
		t.Errorf("Large WU stream = %v, want RST_STREAM", r.LargeWU.Stream)
	}
	if got := r.Push.Supported; got != exp.push {
		t.Errorf("Server Push = %v, want %v", got, exp.push)
	}
	if got := r.Priority.Pass; got != exp.priorityPass {
		t.Errorf("Priority (Algorithm 1) = %v, want %v (last=%v first=%v completed=%d)",
			got, exp.priorityPass, r.Priority.LastRuleOK, r.Priority.FirstRuleOK, r.Priority.Completed)
	}
	if r.SelfDep.Reaction != exp.selfDep {
		t.Errorf("Self-dependent stream = %v, want %v", r.SelfDep.Reaction, exp.selfDep)
	}
	if got := r.HeaderCompressionVerdict(); got != exp.headerCompression {
		t.Errorf("Header Compression = %q (ratio %.3f), want %q", got, r.HPACK.Ratio, exp.headerCompression)
	}
	if !r.Ping.Supported {
		t.Error("HTTP/2 PING = no support, want support")
	}
	if row := r.TableIIIRow(); len(row) != len(core.TableIIIRowNames) {
		t.Errorf("TableIIIRow has %d cells, want %d", len(row), len(core.TableIIIRowNames))
	}
}

func TestSettingsProbeReadsAdvertisement(t *testing.T) {
	p := server.H2OProfile()
	prober := newProber(t, p)
	res, err := prober.ProbeSettings(context.Background())
	if err != nil {
		t.Fatalf("ProbeSettings: %v", err)
	}
	if !res.GotHeaders {
		t.Error("GotHeaders = false")
	}
	if res.ServerHeader != p.Name {
		t.Errorf("ServerHeader = %q, want %q", res.ServerHeader, p.Name)
	}
	if v, ok := res.Value(4); !ok || v != p.InitialWindowSize { // SETTINGS_INITIAL_WINDOW_SIZE
		t.Errorf("INITIAL_WINDOW_SIZE = %d,%v, want %d,true", v, ok, p.InitialWindowSize)
	}
}

func TestPriorityProbeDetailsOnPriorityServer(t *testing.T) {
	prober := newProber(t, server.NghttpdProfile())
	res, err := prober.ProbePriority(context.Background())
	if err != nil {
		t.Fatalf("ProbePriority: %v", err)
	}
	if res.DrainStreams < 1 {
		t.Errorf("DrainStreams = %d, want >= 1", res.DrainStreams)
	}
	if res.Completed != 6 {
		t.Errorf("Completed = %d, want 6", res.Completed)
	}
	if !res.LastRuleOK || !res.FirstRuleOK || !res.Pass {
		t.Errorf("rules: last=%v first=%v pass=%v, want all true", res.LastRuleOK, res.FirstRuleOK, res.Pass)
	}
	if !res.HeadersWhileBlocked {
		t.Error("HeadersWhileBlocked = false, want true for a compliant server")
	}
}

func TestPriorityProbeLiteSpeedWithholdsHeaders(t *testing.T) {
	prober := newProber(t, server.LiteSpeedProfile())
	res, err := prober.ProbePriority(context.Background())
	if err != nil {
		t.Fatalf("ProbePriority: %v", err)
	}
	if res.HeadersWhileBlocked {
		t.Error("HeadersWhileBlocked = true, want false (flow control applied to HEADERS)")
	}
	if res.Pass {
		t.Error("Pass = true, want false for round-robin scheduling")
	}
}

func TestZeroWindowUpdateDebugData(t *testing.T) {
	p := server.ApacheProfile()
	p.ZeroWindowDebugData = true
	prober := newProber(t, p)
	res, err := prober.ProbeZeroWindowUpdate(context.Background())
	if err != nil {
		t.Fatalf("ProbeZeroWindowUpdate: %v", err)
	}
	if res.Conn != core.ObserveGoAway {
		t.Fatalf("Conn = %v, want GOAWAY", res.Conn)
	}
	if res.ConnDebugData == "" {
		t.Error("ConnDebugData empty, want explanatory text")
	}
}

func TestTinyWindowClasses(t *testing.T) {
	silent := server.LiteSpeedProfile()
	silent.TinyWindow = server.TinyWindowSilent
	zero := server.NginxProfile()
	zero.TinyWindow = server.TinyWindowZeroData
	tests := []struct {
		name    string
		profile server.Profile
		want    core.TinyWindowClass
	}{
		{"comply", server.ApacheProfile(), core.TinyWindowOneByte},
		{"zero-data", zero, core.TinyWindowZeroLen},
		{"silent", silent, core.TinyWindowNothing},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			prober := newProber(t, tt.profile)
			res, err := prober.ProbeFlowControlData(context.Background(), 1)
			if err != nil {
				t.Fatalf("ProbeFlowControlData: %v", err)
			}
			if res.Class != tt.want {
				t.Errorf("Class = %v, want %v", res.Class, tt.want)
			}
		})
	}
}

func TestHPACKProbeRatios(t *testing.T) {
	nginx := newProber(t, server.NginxProfile())
	rn, err := nginx.ProbeHPACK(context.Background())
	if err != nil {
		t.Fatalf("ProbeHPACK(nginx): %v", err)
	}
	if rn.Ratio < 0.99 {
		t.Errorf("nginx ratio = %.3f, want ~1", rn.Ratio)
	}
	gse := newProber(t, server.H2OProfile())
	rg, err := gse.ProbeHPACK(context.Background())
	if err != nil {
		t.Fatalf("ProbeHPACK(h2o): %v", err)
	}
	if rg.Ratio > 0.5 {
		t.Errorf("h2o ratio = %.3f, want < 0.5", rg.Ratio)
	}
	if len(rg.BlockSizes) != rg.Requests {
		t.Errorf("BlockSizes len = %d, want %d", len(rg.BlockSizes), rg.Requests)
	}
}

func TestPingProbeCollectsRTTs(t *testing.T) {
	prober := newProber(t, server.NginxProfile())
	res, err := prober.ProbePing(context.Background())
	if err != nil {
		t.Fatalf("ProbePing: %v", err)
	}
	if !res.Supported || len(res.RTTs) == 0 {
		t.Fatalf("Supported=%v RTTs=%v", res.Supported, res.RTTs)
	}
	if res.Min() <= 0 {
		t.Errorf("Min() = %v, want > 0", res.Min())
	}
}

func TestSchedulingModePartialCompliance(t *testing.T) {
	// The population's dominant partially-compliant behavior: last-DATA
	// order obeys the tree while first-DATA order does not.
	lastOnly := server.H2OProfile()
	lastOnly.Scheduling = server.SchedPriorityLastOnly
	prober := newProber(t, lastOnly)
	res, err := prober.ProbePriority(context.Background())
	if err != nil {
		t.Fatalf("ProbePriority: %v", err)
	}
	if !res.LastRuleOK {
		t.Error("LastRuleOK = false, want true")
	}
	if res.FirstRuleOK {
		t.Error("FirstRuleOK = true, want false for eager-first scheduling")
	}
	if res.Pass {
		t.Error("Pass = true, want false")
	}
}

func TestProbeExtensionsCompliantServer(t *testing.T) {
	prober := newProber(t, server.ApacheProfile())
	res, err := prober.ProbeExtensions(context.Background())
	if err != nil {
		t.Fatalf("ProbeExtensions: %v", err)
	}
	if !res.SettingsAcked {
		t.Error("SettingsAcked = false")
	}
	if !res.UnknownSettingIgnored {
		t.Error("UnknownSettingIgnored = false")
	}
	if !res.UnknownFrameIgnored {
		t.Error("UnknownFrameIgnored = false")
	}
	if !res.PingAckPrioritized {
		t.Error("PingAckPrioritized = false")
	}
}

func TestProbeExtensionsPingDisabled(t *testing.T) {
	p := server.NginxProfile()
	p.AnswerPing = false
	prober := newProber(t, p)
	res, err := prober.ProbeExtensions(context.Background())
	if err != nil {
		t.Fatalf("ProbeExtensions: %v", err)
	}
	if res.PingAckPrioritized {
		t.Error("PingAckPrioritized = true for a server that never ACKs PING")
	}
}

func TestProbeH2CUpgrade(t *testing.T) {
	// An HTTP/1.1 front end with h2c support accepts the upgrade and
	// serves HTTP/2 on the same connection; one without it refuses.
	site := server.DefaultSite("h2c.example")
	h2srv := server.New(server.NginxProfile(), site)
	withH2C := &http1.Handler{Site: site, ServerName: "front/1.0", H2C: h2srv}
	withoutH2C := &http1.Handler{Site: site, ServerName: "front/1.0"}

	start := func(h *http1.Handler) *netsim.Listener {
		l := netsim.NewListener("h2c-probe")
		go func() {
			for {
				nc, err := l.Accept()
				if err != nil {
					return
				}
				go func() { _ = h.ServeConn(nc) }()
			}
		}()
		t.Cleanup(func() {
			_ = l.Close()
		})
		return l
	}
	cfg := core.DefaultConfig("h2c.example")
	cfg.QuietWindow = 10 * time.Millisecond
	cfg.Tracer = trace.New(0)

	l := start(withH2C)
	p := core.NewProber(core.DialerFunc(func() (net.Conn, error) { return l.Dial() }), cfg)
	res, err := p.ProbeH2CUpgrade(context.Background())
	if err != nil {
		t.Fatalf("ProbeH2CUpgrade: %v", err)
	}
	if !res.UpgradeAccepted || !res.H2Works {
		t.Errorf("with h2c: %+v, want accepted and working", res)
	}

	l2 := start(withoutH2C)
	p2 := core.NewProber(core.DialerFunc(func() (net.Conn, error) { return l2.Dial() }), cfg)
	res2, err := p2.ProbeH2CUpgrade(context.Background())
	if err != nil {
		t.Fatalf("ProbeH2CUpgrade: %v", err)
	}
	if res2.UpgradeAccepted {
		t.Errorf("without h2c: %+v, want refused", res2)
	}
	// Neither leg is traced, so the trace is the two probes' phase brackets.
	if evs := cfg.Tracer.Snapshot(); len(evs) != 4 || evs[2].Kind != trace.KindPhaseStart || evs[3].Kind != trace.KindPhaseEnd {
		t.Errorf("trace of two h2c probes = %v, want two start/end pairs", evs)
	}
}

func TestMultiplexingProbeDetectsSequentialServer(t *testing.T) {
	// The probe's negative case: a server that serves one whole response
	// at a time shows no interleaving.
	p := server.NginxProfile()
	p.Scheduling = server.SchedSequential
	prober := newProber(t, p)
	res, err := prober.ProbeMultiplexing(context.Background(), 4)
	if err != nil {
		t.Fatalf("ProbeMultiplexing: %v", err)
	}
	if res.Interleaved {
		t.Error("Interleaved = true for a sequential server")
	}
	if res.Completed != 4 {
		t.Errorf("Completed = %d, want 4", res.Completed)
	}
}

func TestRunAgainstDeadTargetFails(t *testing.T) {
	cfg := core.DefaultConfig("dead.example")
	cfg.Timeout = 200 * time.Millisecond
	cfg.QuietWindow = 10 * time.Millisecond
	prober := core.NewProber(core.DialerFunc(func() (net.Conn, error) {
		return nil, net.ErrClosed
	}), cfg)
	r, err := prober.Run()
	if err == nil {
		t.Fatal("Run against dead target succeeded")
	}
	if r == nil || len(r.Errors) == 0 {
		t.Fatal("no partial report or errors recorded")
	}
}

func TestRunAgainstSilentTargetFails(t *testing.T) {
	// A listener that accepts and never speaks: ProbeSettings must time
	// out rather than hang.
	l := netsim.NewListener("silent")
	go func() {
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			_ = nc // accepted, never answered
		}
	}()
	t.Cleanup(func() { _ = l.Close() })
	cfg := core.DefaultConfig("silent.example")
	cfg.Timeout = 200 * time.Millisecond
	cfg.QuietWindow = 10 * time.Millisecond
	prober := core.NewProber(core.DialerFunc(func() (net.Conn, error) { return l.Dial() }), cfg)
	start := time.Now()
	if _, err := prober.Run(); err == nil {
		t.Fatal("Run against silent target succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Run hung for %v", elapsed)
	}
}

func TestTableIIIRowHandlesPartialReport(t *testing.T) {
	r := &core.Report{Authority: "partial.example"}
	row := r.TableIIIRow()
	if len(row) != len(core.TableIIIRowNames) {
		t.Fatalf("row cells = %d, want %d", len(row), len(core.TableIIIRowNames))
	}
	for i, cell := range row {
		if cell == "" {
			t.Errorf("cell %d empty", i)
		}
	}
	if r.PriorityVerdict() != "fail" || r.PushVerdict() != "no" ||
		r.HeaderCompressionVerdict() != "unknown" || r.PingVerdict() != "no support" {
		t.Error("nil-safe verdicts wrong")
	}
}

func TestProbeMultiplexingNeedsTwoObjects(t *testing.T) {
	cfg := core.DefaultConfig("x")
	cfg.LargePaths = []string{"/only-one"}
	prober := core.NewProber(core.DialerFunc(func() (net.Conn, error) {
		return nil, net.ErrClosed
	}), cfg)
	if _, err := prober.ProbeMultiplexing(context.Background(), 4); err == nil {
		t.Fatal("multiplexing probe with one object succeeded")
	}
}

func TestMultiplexingProbeHonorsAdvertisedStreamLimit(t *testing.T) {
	// Section III-A.1: N stays below SETTINGS_MAX_CONCURRENT_STREAMS, so a
	// low advertised limit must not draw REFUSED_STREAM resets.
	p := server.ApacheProfile()
	p.MaxConcurrentStreams = 2
	prober := newProber(t, p)
	res, err := prober.ProbeMultiplexing(context.Background(), 4)
	if err != nil {
		t.Fatalf("ProbeMultiplexing: %v", err)
	}
	if res.Streams != 2 {
		t.Errorf("Streams = %d, want clamped to 2", res.Streams)
	}
	if !res.Interleaved {
		t.Error("Interleaved = false with two concurrent streams")
	}
	if res.Completed != 2 {
		t.Errorf("Completed = %d, want 2 (no refused streams)", res.Completed)
	}
}

// deadlineRecorder wraps a net.Conn and records every SetDeadline call, so
// tests can verify a context deadline reaches the transport.
type deadlineRecorder struct {
	net.Conn
	mu        sync.Mutex
	deadlines []time.Time
}

func (d *deadlineRecorder) SetDeadline(t time.Time) error {
	d.mu.Lock()
	d.deadlines = append(d.deadlines, t)
	d.mu.Unlock()
	return d.Conn.SetDeadline(t)
}

func (d *deadlineRecorder) recorded() []time.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]time.Time(nil), d.deadlines...)
}

func TestProbeAppliesContextDeadlineToTransport(t *testing.T) {
	srv := server.New(server.NginxProfile(), server.DefaultSite("testbed.example"))
	l := netsim.NewListener("deadline")
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { srv.Shutdown(time.Second) })

	rec := &deadlineRecorder{}
	cfg := core.DefaultConfig("testbed.example")
	cfg.Timeout = 2 * time.Second
	cfg.QuietWindow = 10 * time.Millisecond
	prober := core.NewProber(core.DialerFunc(func() (net.Conn, error) {
		nc, err := l.Dial()
		if err != nil {
			return nil, err
		}
		rec.Conn = nc
		return rec, nil
	}), cfg)

	want := time.Now().Add(time.Minute)
	ctx, cancel := context.WithDeadline(context.Background(), want)
	defer cancel()
	applied := func() (n int) {
		for _, d := range rec.recorded() {
			if d.Equal(want) {
				n++
			}
		}
		return n
	}
	if _, err := prober.ProbeSettings(ctx); err != nil {
		t.Fatalf("ProbeSettings: %v", err)
	}
	viaConnect := applied()
	if viaConnect == 0 {
		t.Fatalf("context deadline %v never applied to the transport (saw %v)", want, rec.recorded())
	}
	// The h2c probe dials for itself, past Prober.connect; an h2-only
	// target refuses the upgrade, which is a result and not an error.
	if _, err := prober.ProbeH2CUpgrade(ctx); err != nil {
		t.Fatalf("ProbeH2CUpgrade: %v", err)
	}
	if applied() == viaConnect {
		t.Fatalf("ProbeH2CUpgrade never applied the context deadline %v (saw %v)", want, rec.recorded())
	}
}

func TestProbeCanceledContextFailsWithoutDialing(t *testing.T) {
	dials := 0
	cfg := core.DefaultConfig("testbed.example")
	prober := core.NewProber(core.DialerFunc(func() (net.Conn, error) {
		dials++
		return nil, net.ErrClosed
	}), cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := prober.ProbeSettings(ctx); err == nil {
		t.Fatal("ProbeSettings with canceled context succeeded")
	}
	if _, err := prober.ProbeH2CUpgrade(ctx); err == nil {
		t.Fatal("ProbeH2CUpgrade with canceled context succeeded")
	}
	if dials != 0 {
		t.Fatalf("canceled context still dialed %d time(s)", dials)
	}
}
