// End-to-end tests: the scan engine driving the real probe battery against a
// mixed in-process fleet — healthy servers, a stalling endpoint that accepts
// connections but never speaks HTTP/2, and a port that refuses outright.
package scan_test

import (
	"context"
	"net"
	"syscall"
	"testing"
	"time"

	"h2scope/internal/core"
	"h2scope/internal/netsim"
	"h2scope/internal/scan"
	"h2scope/internal/server"
)

const fleetDomain = "fleet.example"

// fleetTarget is one endpoint of the e2e fleet: a name for assertions plus
// the dialer the battery should use to reach it.
type fleetTarget struct {
	name string
	dial core.Dialer
}

// startHealthy runs a full profile-driven HTTP/2 server on an in-process
// listener.
func startHealthy(t *testing.T, p server.Profile) core.Dialer {
	t.Helper()
	srv := server.New(p, server.DefaultSite(fleetDomain))
	l := netsim.NewListener(fleetDomain)
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Close()
		_ = l.Close()
	})
	return core.DialerFunc(l.Dial)
}

// startStalling accepts connections and reads forever without ever writing a
// byte: the half-open tarpit shape the wild web serves at scale.
func startStalling(t *testing.T) core.Dialer {
	t.Helper()
	l := netsim.NewListener("tarpit.example")
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer func() { _ = c.Close() }()
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	t.Cleanup(func() { _ = l.Close() })
	return core.DialerFunc(l.Dial)
}

// refusingDialer fails every dial the way a closed port does.
func refusingDialer() core.Dialer {
	return core.DialerFunc(func() (net.Conn, error) {
		return nil, &net.OpError{Op: "dial", Net: "netsim", Err: syscall.ECONNREFUSED}
	})
}

// fleetProbe runs the full Section III battery against one fleet target.
func fleetProbe(ctx context.Context, tg scan.Target) (any, error) {
	ft := tg.Meta.(*fleetTarget)
	cfg := core.DefaultConfig(fleetDomain)
	cfg.Timeout = 150 * time.Millisecond
	cfg.QuietWindow = 10 * time.Millisecond
	report, err := core.NewProber(ft.dial, cfg).RunContext(ctx)
	if report == nil {
		return nil, err
	}
	return report, err
}

// TestScanMixedFleet is the engine's acceptance test: a fleet where some
// targets work, one stalls, and one refuses. The run must complete with
// typed partial records for the failures, retries only where the failure is
// transient, and stats that account for every target.
func TestScanMixedFleet(t *testing.T) {
	fleet := []*fleetTarget{
		{name: "healthy-nginx", dial: startHealthy(t, server.NginxProfile())},
		{name: "healthy-h2o", dial: startHealthy(t, server.H2OProfile())},
		{name: "stalling", dial: startStalling(t)},
		{name: "refusing", dial: refusingDialer()},
	}
	targets := make([]scan.Target, len(fleet))
	for i, ft := range fleet {
		targets[i] = scan.Target{Key: ft.name, Meta: ft}
	}

	byName := make(map[string]scan.Record, len(fleet))
	s, err := scan.Run(context.Background(), targets, fleetProbe, scan.Options{
		Parallelism: len(fleet),
		Timeout:     5 * time.Second, // generous per-attempt budget; probes time out internally
		Retries:     1,
		Backoff:     scan.Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond, Jitter: -1},
		OnRecord:    func(rec scan.Record) { byName[rec.Target.Key] = rec },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(byName) != len(fleet) {
		t.Fatalf("got records for %d targets, want %d", len(byName), len(fleet))
	}
	for _, name := range []string{"healthy-nginx", "healthy-h2o"} {
		rec := byName[name]
		if rec.Outcome != scan.OutcomeSuccess || rec.Attempts != 1 {
			t.Errorf("%s: record = %+v, want first-try success", name, rec)
			continue
		}
		report, ok := rec.Value.(*core.Report)
		if !ok || report.Settings == nil || !report.Settings.GotHeaders {
			t.Errorf("%s: success record carries no usable report: %+v", name, rec.Value)
		}
	}
	if rec := byName["stalling"]; rec.Outcome != scan.OutcomeFailed ||
		rec.Kind != scan.KindTimeout || rec.Attempts != 2 {
		t.Errorf("stalling: record = %+v, want timeout failure after 2 attempts", rec)
	}
	if rec := byName["refusing"]; rec.Outcome != scan.OutcomeFailed ||
		rec.Kind != scan.KindDial || rec.Attempts != 2 {
		t.Errorf("refusing: record = %+v, want dial failure after 2 attempts", rec)
	}

	if s.Attempted != 4 || s.Succeeded != 2 || s.Failed != 2 || s.Canceled != 0 {
		t.Errorf("stats partition = %+v, want 4 = 2 ok + 2 failed", s)
	}
	if !s.Consistent() {
		t.Errorf("stats inconsistent: %+v", s)
	}
	if s.Retries != 2 || s.Attempts != 6 {
		t.Errorf("stats = %+v, want 2 retries across 6 attempts", s)
	}
	if s.FailedByKind["timeout"] != 1 || s.FailedByKind["dial"] != 1 {
		t.Errorf("FailedByKind = %v, want one timeout and one dial", s.FailedByKind)
	}
	if s.Latency.Count != 4 {
		t.Errorf("latency count = %d, want 4", s.Latency.Count)
	}
}

// TestScanCancellationDrainsQuickly cancels a scan of stalling targets
// mid-flight: Run must return well within one attempt deadline, every
// record must be flushed through OnRecord, and the stats partition must
// still hold.
func TestScanCancellationDrainsQuickly(t *testing.T) {
	stall := startStalling(t)
	const n = 6
	targets := make([]scan.Target, n)
	for i := range targets {
		targets[i] = scan.Target{Key: "tarpit", Meta: &fleetTarget{name: "tarpit", dial: stall}}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var flushed []scan.Record
	start := time.Now()
	s, err := scan.Run(ctx, targets, fleetProbe, scan.Options{
		Parallelism: 1,
		Timeout:     10 * time.Second,
		OnRecord: func(rec scan.Record) {
			flushed = append(flushed, rec)
			cancel() // cancel as soon as the first record lands
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Fatalf("canceled scan drained in %v, want well under one 10s attempt deadline", elapsed)
	}
	if len(flushed) != n {
		t.Fatalf("OnRecord flushed %d records, want all %d", len(flushed), n)
	}
	if s.Attempted != n || !s.Consistent() {
		t.Errorf("stats = %+v, want %d attempted and a consistent partition", s, n)
	}
	if s.Canceled == 0 {
		t.Errorf("stats = %+v, want at least one canceled target", s)
	}
	for i, rec := range flushed {
		if rec.Outcome == 0 {
			t.Errorf("record %d was never finalized: %+v", i, rec)
		}
	}
}
