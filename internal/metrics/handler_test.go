package metrics

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func testRegistry() *Registry {
	r := NewRegistry()
	r.Counter("h2_test_total", "a test counter").Add(7)
	r.Gauge("h2_test_gauge", "a test gauge").Set(-3)
	r.Counter(Label("h2_typed_total", "type", "DATA"), "typed").Add(2)
	r.Counter(Label("h2_typed_total", "type", "PING"), "typed").Add(5)
	h := r.Histogram("h2_test_latency_ns", "latencies", int64(time.Millisecond), 8)
	h.Observe(int64(500 * time.Microsecond))
	h.Observe(int64(3 * time.Millisecond))
	return r
}

func TestHandlerPrometheusText(t *testing.T) {
	rec := httptest.NewRecorder()
	NewHandler(testRegistry()).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# HELP h2_test_total a test counter",
		"# TYPE h2_test_total counter",
		"h2_test_total 7",
		"h2_test_gauge -3",
		"# TYPE h2_typed_total counter",
		`h2_typed_total{type="DATA"} 2`,
		`h2_typed_total{type="PING"} 5`,
		"# TYPE h2_test_latency_ns histogram",
		`h2_test_latency_ns_bucket{le="1000000"} 1`,
		`h2_test_latency_ns_bucket{le="+Inf"} 2`,
		"h2_test_latency_ns_count 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}
	// HELP/TYPE must appear once per base name, even with two label sets.
	if n := strings.Count(body, "# TYPE h2_typed_total"); n != 1 {
		t.Errorf("TYPE h2_typed_total appears %d times, want 1", n)
	}
}

func TestHandlerLabeledHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	r.Histogram(Label("h2_sized", "dir", "in"), "", 1, 4).Observe(2)
	rec := httptest.NewRecorder()
	NewHandler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`h2_sized_bucket{dir="in",le="1"} 0`,
		`h2_sized_bucket{dir="in",le="+Inf"} 1`,
		`h2_sized_sum{dir="in"} 2`,
		`h2_sized_count{dir="in"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}
}

func TestHandlerMergesRegistries(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("from_one", "").Inc()
	r2.Counter("from_two", "").Inc()
	rec := httptest.NewRecorder()
	NewHandler(r1, r2).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "from_one 1") || !strings.Contains(body, "from_two 1") {
		t.Fatalf("merged exposition missing a registry:\n%s", body)
	}
}

func TestDebugServerEndpoints(t *testing.T) {
	r := testRegistry()
	ds, err := StartDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatalf("StartDebug: %v", err)
	}
	defer func() {
		if err := ds.Close(); err != nil && err != http.ErrServerClosed {
			t.Errorf("Close: %v", err)
		}
	}()
	base := "http://" + ds.Addr()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return string(b)
	}

	if body := get("/metrics"); !strings.Contains(body, "h2_test_total 7") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	// The runtime sampler seeded go_* gauges into the same registry.
	if body := get("/metrics"); !strings.Contains(body, "go_goroutines") {
		t.Errorf("/metrics missing runtime gauges:\n%s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index unexpected:\n%.200s", body)
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}

func TestStartDebugBadAddr(t *testing.T) {
	if _, err := StartDebug("127.0.0.1:-1"); err == nil {
		t.Fatal("StartDebug on invalid address should fail")
	}
}

func TestStartDebugDefaultRegistry(t *testing.T) {
	ds, err := StartDebug("127.0.0.1:0")
	if err != nil {
		t.Fatalf("StartDebug: %v", err)
	}
	defer ds.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", ds.Addr()))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !strings.Contains(string(b), "go_goroutines") {
		t.Fatalf("default registry missing runtime gauges:\n%s", b)
	}
}
