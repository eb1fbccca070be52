package core_test

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"h2scope/internal/core"
	"h2scope/internal/netsim"
	"h2scope/internal/server"
)

// raceEnabled is set under -race, whose runtime drops a share of
// sync.Pool puts: allocation gates skip then.
var raceEnabled bool

// peakDialer is the counting dialer that also remembers the most connections
// it has had open at once.
type peakDialer struct {
	netsim.CountingDialer
	mu   sync.Mutex
	peak int64
}

func (d *peakDialer) Dial() (net.Conn, error) {
	nc, err := d.CountingDialer.Dial()
	if err == nil {
		opened, closed := d.Counts()
		d.mu.Lock()
		d.peak = max(d.peak, opened-closed)
		d.mu.Unlock()
	}
	return nc, err
}

// battery aims a prober with the given quiet window (a reaction window five
// times as long) and per-wait timeout at a profile, ending on the leak check.
func battery(t *testing.T, p server.Profile, quiet, timeout time.Duration) (*core.Prober, *peakDialer) {
	t.Helper()
	srv := server.New(p, server.DefaultSite("testbed.example"))
	l := netsim.NewListener("battery-" + p.Name)
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { srv.Shutdown(time.Second) })
	d := &peakDialer{CountingDialer: netsim.CountingDialer{DialFunc: l.Dial}}
	t.Cleanup(func() {
		if opened, closed := d.Counts(); opened != closed {
			t.Errorf("battery opened %d connections and closed %d", opened, closed)
		}
	})
	cfg := core.DefaultConfig("testbed.example")
	cfg.QuietWindow = quiet
	cfg.Timeout = timeout
	return core.NewProber(d, cfg), d
}

// TestBatteryLastsAsLongAsItsSlowestProbe: Nginx ignores a zero
// WINDOW_UPDATE at both levels, so each level waits out a whole reaction
// window. Run in turn that is more than two reaction windows; run at once it
// is one.
func TestBatteryLastsAsLongAsItsSlowestProbe(t *testing.T) {
	const window = 500 * time.Millisecond
	prober, d := battery(t, server.NginxProfile(), window/5, 5*time.Second)
	start := time.Now()
	r, err := prober.Run()
	wall := time.Since(start)
	if err != nil || len(r.Errors) > 0 {
		t.Fatalf("Run: %v, errors %v", err, r.Errors)
	}
	if r.ZeroWU.Stream != core.ObserveIgnore || r.ZeroWU.Conn != core.ObserveIgnore {
		t.Fatalf("zero WINDOW_UPDATE = %v/%v, want ignore at both levels", r.ZeroWU.Stream, r.ZeroWU.Conn)
	}
	if wall < window {
		t.Errorf("battery took %v, less than the %v reaction window an ignored provocation waits out", wall, window)
	}
	if wall >= 2*window {
		t.Errorf("battery took %v: its probes waited in turn, not at once (reaction window %v)", wall, window)
	}
	// The settings probe alone runs first; the other ten dial at once, the
	// two zero WINDOW_UPDATE levels, which wait a window, among them.
	if d.peak < 4 {
		t.Errorf("at most %d probe connection(s) were open at once, want >= 4", d.peak)
	}
}

// TestBatteryErrorsFollowStepOrder: a server that allows one stream leaves
// the multiplexing and priority probes not measurable; both fail as soon as
// SETTINGS arrive, in either order, and the report lists them in battery order.
func TestBatteryErrorsFollowStepOrder(t *testing.T) {
	p := server.ApacheProfile()
	p.MaxConcurrentStreams = 1
	for i := 0; i < 3; i++ {
		r, err := newProber(t, p).Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if len(r.Errors) != 2 || !strings.HasPrefix(r.Errors[0], "multiplexing: ") || !strings.HasPrefix(r.Errors[1], "priority: ") {
			t.Fatalf("errors = %q, want multiplexing then priority", r.Errors)
		}
	}
}

// TestBatteryCanceledMidwayReturnsWhatItMeasured: a cancel that lands while
// the probes wait returns the partial report with the context's error once the
// probes in flight finish — a reaction window, not a battery — and every
// connection they opened is closed.
func TestBatteryCanceledMidwayReturnsWhatItMeasured(t *testing.T) {
	const window = 500 * time.Millisecond
	prober, _ := battery(t, server.NginxProfile(), window/5, 5*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(window/5, cancel)
	start := time.Now()
	r, err := prober.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	if wall := time.Since(start); wall >= 2*window {
		t.Errorf("canceled battery took %v (reaction window %v)", wall, window)
	}
	if r.Settings == nil || r.HPACK == nil || len(r.Errors) == 0 || r.Errors[len(r.Errors)-1] != "battery: context canceled" {
		t.Errorf("partial report: settings %v, hpack %v, errors %q; want both kept and the cancel last",
			r.Settings != nil, r.HPACK != nil, r.Errors)
	}
}

// TestBatteryAgainstAPeerThatNeverAnswersPing: the fence behind an ignored
// provocation never comes back, so each such wait lasts the reaction window
// plus one Timeout — less than the ping probe's own three unanswered pings,
// which run beside it. The verdicts are Nginx's, PING aside.
func TestBatteryAgainstAPeerThatNeverAnswersPing(t *testing.T) {
	const timeout, window = 300 * time.Millisecond, 100 * time.Millisecond
	p := server.NginxProfile()
	p.AnswerPing = false
	prober, _ := battery(t, p, window/5, timeout)
	start := time.Now()
	r, err := prober.Run()
	wall := time.Since(start)
	if err != nil || len(r.Errors) > 0 {
		t.Fatalf("Run: %v, errors %v", err, r.Errors)
	}
	if r.Ping.Supported {
		t.Error("HTTP/2 PING = support from a peer that never answers it")
	}
	if r.ZeroWU.Stream != core.ObserveIgnore || r.ZeroWU.Conn != core.ObserveIgnore || r.SelfDep.Reaction != core.ObserveRSTStream ||
		r.LargeWU.Stream != core.ObserveRSTStream || r.LargeWU.Conn != core.ObserveGoAway || r.FlowControlOnHeaders() {
		t.Errorf("zero WU %v/%v, large WU %v/%v, self-dependency %v, flow control on HEADERS %v; want Nginx's column",
			r.ZeroWU.Stream, r.ZeroWU.Conn, r.LargeWU.Stream, r.LargeWU.Conn, r.SelfDep.Reaction, r.FlowControlOnHeaders())
	}
	if limit := 3*timeout + 4*window; wall >= limit {
		t.Errorf("battery took %v, want under %v: the unanswered fences add to the battery instead of overlapping the ping probe", wall, limit)
	}
}

// TestBatteryKeepsNoBodyBytes: no probe reads a DATA payload byte, so a
// battery copies none. The multiplexing and priority probes alone download
// over 1 MiB of object bodies; what a whole battery allocates, the server
// side included, stays under that, and every Table III cell is the paper's.
func TestBatteryKeepsNoBodyBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops a share of sync.Pool puts on purpose")
	}
	// One battery first, unmeasured: the process's first one also fills
	// the pipe chunk pools and the package-level tables.
	if _, err := newProber(t, server.H2OProfile()).Run(); err != nil {
		t.Fatal(err)
	}
	for _, exp := range tableIII() {
		t.Run(exp.profile.Family, func(t *testing.T) {
			prober := newProber(t, exp.profile)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r, err := prober.Run()
			runtime.ReadMemStats(&after)
			checkTableIII(t, exp, r, err)
			if kib := (after.TotalAlloc - before.TotalAlloc) >> 10; kib >= 1<<10 {
				t.Errorf("battery allocated %d KiB, want < 1 MiB", kib)
			}
		})
	}
}
