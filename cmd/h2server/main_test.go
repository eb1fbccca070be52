package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/h2conn"
	"h2scope/internal/obs"
	"h2scope/internal/tlsutil"
	"h2scope/internal/trace"
)

// lockedBuffer is run's stdout: written by run's goroutines, polled by the
// test.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var (
	servingLine = regexp.MustCompile(`on (?:h2c-prior-knowledge |https://)(\S+)`)
	debugLine   = regexp.MustCompile(`debug endpoint: http://(\S+)/metrics`)
)

// startRun runs main's run with args on a goroutine and returns the address
// its serving line names, its stdout, and the channel run's result lands on.
func startRun(t *testing.T, ctx context.Context, args ...string) (string, *lockedBuffer, <-chan error) {
	t.Helper()
	out := &lockedBuffer{}
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, out) }()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if m := servingLine.FindStringSubmatch(out.String()); m != nil {
			return m[1], out, done
		}
		select {
		case err := <-done:
			t.Fatalf("run returned before serving: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no serving line on stdout:\n%s", out.String())
		}
	}
}

// debugAddr returns the debug endpoint's address from run's stdout.
func debugAddr(t *testing.T, out *lockedBuffer) string {
	t.Helper()
	m := debugLine.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no debug endpoint line on stdout:\n%s", out.String())
	}
	return m[1]
}

// TestStopSignalShutsDownGracefully is the SIGINT/SIGTERM path with the
// signal replaced by the context main derives from it: a connected client
// reads GOAWAY(NO_ERROR), run returns nil well inside the grace once the
// client hangs up, and the deferred closes have run — the debug endpoint no
// longer accepts connections.
func TestStopSignalShutsDownGracefully(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, out, done := startRun(t, ctx, "-profile", "nghttpd", "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0")
	dbg := debugAddr(t, out)

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nc.Close() }()
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	fr := frame.NewFramer(nc, nc)
	if err := fr.WriteRawBytes([]byte(frame.ClientPreface)); err != nil {
		t.Fatal(err)
	}
	if err := fr.WriteSettings(); err != nil {
		t.Fatal(err)
	}
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	// The server's SETTINGS proves the connection is being served (and so is
	// in the table Shutdown sweeps) before the stop is delivered.
	if f, err := fr.ReadFrame(); err != nil {
		t.Fatalf("reading server SETTINGS: %v", err)
	} else if _, ok := f.(*frame.SettingsFrame); !ok {
		t.Fatalf("first frame = %T, want SETTINGS", f)
	}

	stopped := time.Now()
	cancel()
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			t.Fatalf("connection ended before GOAWAY: %v", err)
		}
		if ga, ok := f.(*frame.GoAwayFrame); ok {
			if ga.Code != frame.ErrCodeNo {
				t.Errorf("GOAWAY code = %v, want NO_ERROR", ga.Code)
			}
			break
		}
	}
	_ = nc.Close()

	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run = %v after stop, want nil", err)
		}
	case <-time.After(shutdownGrace):
		t.Fatal("run still serving a full grace after the client hung up")
	}
	if took := time.Since(stopped); took >= shutdownGrace {
		t.Errorf("stop took %v, want well under the %v grace", took, shutdownGrace)
	}
	if dc, err := net.DialTimeout("tcp", dbg, time.Second); err == nil {
		_ = dc.Close()
		t.Errorf("debug endpoint %s still accepts connections after run returned", dbg)
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Errorf("stdout does not announce the shutdown:\n%s", out.String())
	}
}

// TestServeTLS drives -tls end to end: a real TLS handshake over TCP that
// selects h2 by ALPN, then a GET for / that the testbed site answers 200.
func TestServeTLS(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, out, done := startRun(t, ctx, "-profile", "nghttpd", "-tls", "-addr", "127.0.0.1:0")

	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	tc, err := tlsutil.UpgradeH2(nc, "testbed.example")
	if err != nil {
		t.Fatalf("TLS to %s: %v", addr, err)
	}
	c, err := h2conn.Dial(tc, h2conn.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.FetchBody(h2conn.Request{Authority: "testbed.example", Path: "/"}, 5*time.Second)
	_ = c.Close()
	if err != nil {
		t.Fatalf("GET / over TLS: %v", err)
	}
	if resp.Status() != "200" {
		t.Errorf("GET / over TLS: status %q, want 200", resp.Status())
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run = %v after stop, want nil\n%s", err, out.String())
		}
	case <-time.After(shutdownGrace):
		t.Fatal("run still serving a full grace after the client hung up")
	}
}

// TestServeTraceEndpoint drives -debug-addr's /trace.jsonl end to end: one
// GET over TCP, then the server's trace ring fetched over HTTP parses with
// trace.Read, and the span builder finds that connection (by the client's
// address, which the server's ConnOpen records) with a first-byte span.
func TestServeTraceEndpoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, out, done := startRun(t, ctx, "-profile", "nghttpd", "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0")
	dbg := debugAddr(t, out)

	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	client := nc.LocalAddr().String()
	c, err := h2conn.Dial(nc, h2conn.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.FetchBody(h2conn.Request{Authority: "testbed.example", Path: "/"}, 5*time.Second)
	_ = c.Close()
	if err != nil || resp.Status() != "200" {
		t.Fatalf("GET /: %v (status %q)", err, resp.Status())
	}

	hc := &http.Client{Timeout: 5 * time.Second}
	hr, err := hc.Get("http://" + dbg + "/trace.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	d, err := trace.Read(hr.Body)
	_ = hr.Body.Close()
	if err != nil {
		t.Fatalf("trace.Read(/trace.jsonl): %v", err)
	}
	if d.Target != "testbed.example" || len(d.Events) == 0 {
		t.Fatalf("trace target %q with %d events, want testbed.example and some events", d.Target, len(d.Events))
	}
	var found bool
	for _, cp := range obs.BuildConns(d.Events) {
		if cp.Detail != client {
			continue
		}
		found = true
		// The request is stream 1; nghttpd's pushes ride on even streams.
		if len(cp.Streams) == 0 || cp.Streams[0].StreamID != 1 || cp.Streams[0].FirstByte <= 0 {
			t.Errorf("conn %d from %s: streams %+v, want stream 1 with a first-byte span", cp.Conn, client, cp.Streams)
		}
	}
	if !found {
		t.Errorf("no conn from %s in /trace.jsonl (%d events)", client, len(d.Events))
	}

	// The live monitor reads the same ring: once it has folded the closed
	// connection's one request, it has missed no event on the way.
	var page string
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		page = getBody(t, hc, "http://"+dbg+"/metrics")
		if strings.Contains(page, "\n"+`h2_phase_duration_seconds_count{phase="first-byte"} 1`+"\n") || time.Now().After(deadline) {
			break
		}
	}
	for _, want := range []string{`h2_phase_duration_seconds_count{phase="first-byte"} 1`, "h2_obs_events_missed_total 0"} {
		if !strings.Contains(page, "\n"+want+"\n") {
			t.Errorf("/metrics lacks %q within 2s:\n%s", want, page)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run = %v after stop, want nil\n%s", err, out.String())
		}
	case <-time.After(shutdownGrace):
		t.Fatal("run still serving a full grace after the client hung up")
	}
}

// getBody GETs url and returns its body.
func getBody(t *testing.T, hc *http.Client, url string) string {
	t.Helper()
	resp, err := hc.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestShardsFlagIsGone pins the removed surface: the flag is an error, not
// accepted and ignored.
func TestShardsFlagIsGone(t *testing.T) {
	err := run(context.Background(), []string{"-shards", "2"}, &lockedBuffer{})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -shards") {
		t.Fatalf("run(-shards 2) = %v, want an unknown-flag error", err)
	}
}
