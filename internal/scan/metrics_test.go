package scan

import (
	"context"
	"errors"
	"testing"
	"time"

	"h2scope/internal/metrics"
)

func registryValue(t *testing.T, r *metrics.Registry, name string) int64 {
	t.Helper()
	for _, m := range r.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %q not registered", name)
	return 0
}

// TestRunMirrorsIntoRegistry is what the dual write buys (ROADMAP 5b): two
// runs share one registry back to back, each run's Stats report its own
// counts and its own latency Min/Max, and h2_scan_* accumulates across both —
// the names bench/h2bench/scan.go reads as deltas. One registry-backed set
// cannot pass it: counts could be taken as deltas between two snapshots, but
// a histogram's running Min/Max cannot be un-merged (tried: run 2 reads
// latency Count 6 and run 1's Min).
func TestRunMirrorsIntoRegistry(t *testing.T) {
	r := metrics.NewRegistry()
	targets := []Target{{Key: "a"}, {Key: "b"}, {Key: "c"}}
	const slow = 20 * time.Millisecond
	var delay time.Duration
	probe := func(ctx context.Context, tg Target) (any, error) {
		time.Sleep(delay)
		if tg.Key == "c" {
			return nil, errors.New("tls: handshake failure")
		}
		return tg.Key, nil
	}
	opts := Options{Parallelism: 2, Timeout: time.Second, Metrics: r}

	stats1, err := Run(context.Background(), targets, probe, opts)
	if err != nil {
		t.Fatalf("Run 1: %v", err)
	}
	if stats1.Attempted != 3 || stats1.Succeeded != 2 || stats1.Failed != 1 {
		t.Fatalf("run 1 stats = %+v", stats1)
	}
	if got := registryValue(t, r, "h2_scan_targets_total"); got != 3 {
		t.Fatalf("h2_scan_targets_total = %d after run 1, want 3", got)
	}
	if got := registryValue(t, r, metrics.Label("h2_scan_outcomes_total", "outcome", "ok")); got != 2 {
		t.Fatalf("ok outcomes = %d, want 2", got)
	}

	delay = slow
	stats2, err := Run(context.Background(), targets, probe, opts)
	if err != nil {
		t.Fatalf("Run 2: %v", err)
	}
	if l1, l2 := stats1.Latency, stats2.Latency; l1.Max >= slow || l2.Min < slow || l1.Count != 3 || l2.Count != 3 {
		t.Fatalf("each run must report its own latency range: run 1 %+v, run 2 %+v", l1, l2)
	}
	for _, m := range r.Snapshot() {
		if h := m.Histogram; m.Name == "h2_scan_target_latency_ns" &&
			(h.Min != int64(stats1.Latency.Min) || h.Max != int64(stats2.Latency.Max)) {
			t.Fatalf("registry latency range [%d, %d] does not span both runs", h.Min, h.Max)
		}
	}
	// Per-run stats reset; the registry accumulates.
	if stats2.Attempted != 3 {
		t.Fatalf("run 2 Attempted = %d, want 3 (per-run stats must not accumulate)", stats2.Attempted)
	}
	if got := registryValue(t, r, "h2_scan_targets_total"); got != 6 {
		t.Fatalf("h2_scan_targets_total = %d after run 2, want 6", got)
	}
	if got := registryValue(t, r, "h2_scan_attempts_total"); got != 6 {
		t.Fatalf("h2_scan_attempts_total = %d, want 6", got)
	}
	if got := registryValue(t, r, "h2_scan_in_flight"); got != 0 {
		t.Fatalf("h2_scan_in_flight = %d after drain, want 0", got)
	}
	if got := registryValue(t, r, metrics.Label("h2_scan_failures_total", "kind", Classify(errors.New("tls: x")).String())); got == 0 {
		t.Fatal("per-kind failure counter not mirrored")
	}
	if got := registryValue(t, r, "h2_scan_target_latency_ns"); got != 6 {
		t.Fatalf("latency histogram count = %d, want 6", got)
	}
}

// TestRunWithoutRegistry keeps the no-metrics path allocation of a mirror-free
// counter set working (nil Options.Metrics is the default).
func TestRunWithoutRegistry(t *testing.T) {
	stats, err := Run(context.Background(), []Target{{Key: "x"}},
		func(ctx context.Context, tg Target) (any, error) { return nil, nil },
		Options{Timeout: time.Second})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !stats.Consistent() || stats.Succeeded != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}
