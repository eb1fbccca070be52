package h2load_test

import (
	"net"
	"strings"
	"testing"
	"time"

	"h2scope/internal/h2load"
	"h2scope/internal/metrics"
	"h2scope/internal/netsim"
	"h2scope/internal/server"
)

func startTarget(t *testing.T, p server.Profile) func() (net.Conn, error) {
	t.Helper()
	srv := server.New(p, server.DefaultSite("load.example"))
	l := netsim.NewListener("h2load")
	go func() {
		_ = srv.Serve(l)
	}()
	t.Cleanup(srv.Close)
	return func() (net.Conn, error) { return l.Dial() }
}

func TestRunMeetsQuota(t *testing.T) {
	dial := startTarget(t, server.H2OProfile())
	res, err := h2load.Run(dial, h2load.Options{
		Connections:    2,
		StreamsPerConn: 4,
		Requests:       200,
		Authority:      "load.example",
		Path:           "/about.html",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Requests != 200 || res.Errors != 0 {
		t.Fatalf("requests=%d errors=%d, want 200/0", res.Requests, res.Errors)
	}
	if res.BytesRead == 0 {
		t.Error("BytesRead = 0")
	}
	if res.RequestsPerSecond() <= 0 {
		t.Error("RequestsPerSecond <= 0")
	}
	p50, p99 := res.LatencyQuantile(0.5), res.LatencyQuantile(0.99)
	if p50 <= 0 || p99 < p50 {
		t.Errorf("latency p50=%v p99=%v", p50, p99)
	}
	if out := res.String(); !strings.Contains(out, "req/s") {
		t.Errorf("summary = %q", out)
	}
}

func TestRunCounts404AsError(t *testing.T) {
	dial := startTarget(t, server.NginxProfile())
	res, err := h2load.Run(dial, h2load.Options{
		Requests:  10,
		Authority: "load.example",
		Path:      "/does-not-exist",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Errors != 10 || res.Requests != 0 {
		t.Fatalf("requests=%d errors=%d, want 0/10", res.Requests, res.Errors)
	}
}

func TestRunDialFailure(t *testing.T) {
	dial := func() (net.Conn, error) { return nil, net.ErrClosed }
	if _, err := h2load.Run(dial, h2load.Options{Requests: 1}); err == nil {
		t.Fatal("Run with failing dialer succeeded")
	}
}

func TestRunDefaults(t *testing.T) {
	dial := startTarget(t, server.ApacheProfile())
	res, err := h2load.Run(dial, h2load.Options{Authority: "load.example", Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Requests != 100 { // default quota
		t.Fatalf("requests = %d, want default 100", res.Requests)
	}
}

// TestRunInstrumented checks the h2_load_* mirror agrees with the exact
// per-run Result and that the shared connection set saw the dialed conns.
func TestRunInstrumented(t *testing.T) {
	dial := startTarget(t, server.H2OProfile())
	r := metrics.NewRegistry()
	res, err := h2load.Run(dial, h2load.Options{
		Connections:    2,
		StreamsPerConn: 2,
		Requests:       40,
		Authority:      "load.example",
		Path:           "/about.html",
		Metrics:        r,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := map[string]int64{
		"h2_load_requests_total":   int64(res.Requests),
		"h2_load_errors_total":     int64(res.Errors),
		"h2_load_body_bytes_total": res.BytesRead,
		"h2_load_conns_total":      2,
	}
	got := make(map[string]int64)
	var latencyCount int64
	for _, m := range r.Snapshot() {
		got[m.Name] = m.Value
		if m.Name == "h2_load_request_latency_ns" && m.Histogram != nil {
			latencyCount = m.Histogram.Count
		}
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %d, want %d", name, got[name], v)
		}
	}
	if latencyCount != int64(res.Requests+res.Errors) {
		t.Errorf("latency histogram count = %d, want %d", latencyCount, res.Requests+res.Errors)
	}
}
