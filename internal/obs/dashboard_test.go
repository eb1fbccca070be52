package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"h2scope/internal/metrics"
)

func TestLabelValue(t *testing.T) {
	cases := []struct {
		name, base, key string
		want            string
		ok              bool
	}{
		{`h2_scan_outcomes_total{outcome="ok"}`, "h2_scan_outcomes_total", "outcome", "ok", true},
		{`m{a="1",b="2"}`, "m", "b", "2", true},
		{`m{a="quo\"ted"}`, "m", "a", `quo"ted`, true},
		{`m{a="1"}`, "m", "missing", "", false},
		{`m{a="1"}`, "other", "a", "", false},
		{`plain_counter`, "plain_counter", "a", "", false},
		{`m{garbage}`, "m", "a", "", false},
	}
	for _, c := range cases {
		got, ok := labelValue(c.name, c.base, c.key)
		if got != c.want || ok != c.ok {
			t.Errorf("labelValue(%q, %q, %q) = (%q, %v), want (%q, %v)",
				c.name, c.base, c.key, got, ok, c.want, c.ok)
		}
	}
}

func TestDashboardStateAndJSON(t *testing.T) {
	reg := metrics.NewRegistry()
	m := NewMonitor(reg)

	// Populate the registry the way a census run does.
	reg.Counter("h2_scan_targets_total", "").Add(42)
	reg.Counter(metrics.Label("h2_scan_outcomes_total", "outcome", "success"), "").Add(40)
	reg.Counter(metrics.Label("h2_scan_outcomes_total", "outcome", "failure"), "").Add(2)
	reg.Counter(metrics.Label("h2_scan_failures_total", "kind", "tls"), "").Add(2)
	reg.Counter("h2_obs_events_missed_total", "").Add(7)
	reg.Gauge("h2_server_active_conns", "").Add(5)
	reg.Counter("h2_server_conns_accepted_total", "").Add(8)
	reg.Gauge("h2_egress_queue_depth", "").Add(9)
	ready := reg.Histogram("h2_egress_ready_streams", "", 1, metrics.DefaultBuckets)
	for i := 0; i < 8; i++ {
		ready.Observe(4)
	}
	m.ObserveTarget("site-000001.example", "traces/a.jsonl", clientEvents())

	d := NewDashboard("test run", m, reg)
	rr := httptest.NewRecorder()
	d.ServeHTTP(rr, httptest.NewRequest("GET", "/dashboard.json", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var st DashState
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}

	if st.Title != "test run" || st.Targets != 42 {
		t.Errorf("title/targets = %q/%d", st.Title, st.Targets)
	}
	if st.Outcomes["success"] != 40 || st.Outcomes["failure"] != 2 {
		t.Errorf("outcomes = %v", st.Outcomes)
	}
	if st.FailureKinds["tls"] != 2 {
		t.Errorf("failure kinds = %v", st.FailureKinds)
	}
	if st.EventsMissed != 7 {
		t.Errorf("events missed = %d, want 7", st.EventsMissed)
	}
	if len(st.Phases) == 0 {
		t.Fatal("no phase rows")
	}
	// Phase rows come back in causal order with populated quantiles.
	if st.Phases[0].Phase != PhaseDial || st.Phases[0].Count != 1 ||
		st.Phases[0].P50Ns != (5*time.Millisecond).Nanoseconds() {
		t.Errorf("first phase row = %+v", st.Phases[0])
	}
	if len(st.Exemplars) == 0 {
		t.Error("no exemplars in state")
	}
	// Data-plane rows: one connections line from the server's own gauges
	// (there is one connection table, so no per-shard breakdown), and the
	// egress scheduler summary folds in both the gauge and the histogram.
	if st.Conns == nil || *st.Conns != (ConnStat{Active: 5, Accepted: 8}) {
		t.Errorf("connections line = %+v, want 5 live of 8 accepted", st.Conns)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(rr.Body.Bytes(), &raw); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if _, ok := raw["shards"]; ok {
		t.Error(`/dashboard.json still carries a "shards" key`)
	}
	if st.Egress == nil {
		t.Fatal("no egress summary in state")
	}
	if st.Egress.QueueDepth != 9 || st.Egress.Passes != 8 {
		t.Errorf("egress = %+v, want queue depth 9 over 8 passes", st.Egress)
	}
	if st.Egress.ReadyP50 <= 0 || st.Egress.ReadyP99 < st.Egress.ReadyP50 {
		t.Errorf("egress ready quantiles = %+v, want 0 < p50 <= p99", st.Egress)
	}

	// HTML view renders the same state.
	rr = httptest.NewRecorder()
	d.ServeHTTP(rr, httptest.NewRequest("GET", "/dashboard", nil))
	html := rr.Body.String()
	for _, want := range []string{"test run", "phase latency", "error classes", "dial",
		"connections", "<td>live</td><td>5</td><td>accepted</td><td>8</td>", "egress scheduler", "queued frames",
		"<b>7</b>trace events missed"} {
		if !strings.Contains(html, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
	if strings.Contains(html, "shard") {
		t.Error("HTML still renders a shard table")
	}
}

func TestDashboardNilMonitor(t *testing.T) {
	d := NewDashboard("bare", nil, metrics.NewRegistry())
	rr := httptest.NewRecorder()
	d.ServeHTTP(rr, httptest.NewRequest("GET", "/dashboard?format=json", nil))
	var st DashState
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if st.Title != "bare" || st.Targets != 0 || len(st.Exemplars) != 0 {
		t.Errorf("state = %+v", st)
	}
}
