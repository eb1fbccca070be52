package scan

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"h2scope/internal/metrics"
)

// latencyBucket maps a duration to the bucket of the scan latency histogram
// (unit 1 ms) through the shared rule in internal/metrics.
func latencyBucket(d time.Duration) int {
	return metrics.BucketOf(int64(d), int64(time.Millisecond), latencyBuckets)
}

func TestLatencyBucket(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Microsecond, 0},
		{time.Millisecond, 1},
		{3 * time.Millisecond, 2},
		{4 * time.Millisecond, 3},
		{1000 * time.Hour, latencyBuckets - 1},
	}
	for _, tc := range cases {
		if got := latencyBucket(tc.d); got != tc.want {
			t.Errorf("latencyBucket(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

func TestLatencySnapshot(t *testing.T) {
	c := newCounters(nil)
	for i := 0; i < 100; i++ {
		c.observeLatency(3 * time.Millisecond)
	}
	ls := c.Snapshot().Latency
	if ls.Count != 100 || ls.Min != 3*time.Millisecond || ls.Max != 3*time.Millisecond ||
		ls.Mean != 3*time.Millisecond {
		t.Fatalf("latency summary = %+v, want count 100 min/mean/max 3ms", ls)
	}
	// All samples fall in bucket [2ms,4ms); the quantile estimate is the
	// geometric midpoint clamped into [Min, Max].
	for _, q := range []time.Duration{ls.P50, ls.P90, ls.P99} {
		if q < ls.Min || q > ls.Max {
			t.Errorf("quantile %v outside [%v, %v]", q, ls.Min, ls.Max)
		}
	}
}

func TestLatencySnapshotEmpty(t *testing.T) {
	if ls := newCounters(nil).Snapshot().Latency; ls != (LatencyStats{}) {
		t.Errorf("empty latency summary = %+v, want zero value", ls)
	}
}

func TestLatencyQuantilesOrdered(t *testing.T) {
	c := newCounters(nil)
	for _, d := range []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
		20 * time.Millisecond, 100 * time.Millisecond, 2 * time.Second,
	} {
		c.observeLatency(d)
	}
	ls := c.Snapshot().Latency
	if ls.P50 > ls.P90 || ls.P90 > ls.P99 {
		t.Errorf("quantiles out of order: p50 %v p90 %v p99 %v", ls.P50, ls.P90, ls.P99)
	}
	if ls.P50 < ls.Min || ls.P99 > ls.Max {
		t.Errorf("quantiles outside [min, max]: %+v", ls)
	}
}

func TestStatsConsistent(t *testing.T) {
	ok := Stats{Attempted: 10, Succeeded: 7, Failed: 2, Canceled: 1}
	if !ok.Consistent() {
		t.Errorf("%+v reported inconsistent", ok)
	}
	bad := Stats{Attempted: 10, Succeeded: 7}
	if bad.Consistent() {
		t.Errorf("%+v reported consistent", bad)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{
		Attempted: 10, Succeeded: 7, Failed: 2, Canceled: 1,
		Retries: 3, InFlight: 4,
		FailedByKind: map[string]int64{"dial": 1, "timeout": 1},
		Latency:      LatencyStats{Count: 10, P50: 12 * time.Millisecond, P99: 90 * time.Millisecond},
	}
	got := s.String()
	for _, want := range []string{
		"scan: 10 done (ok 7, fail 2, canceled 1)",
		"3 retries",
		"4 in flight",
		"dial 1, timeout 1", // kind order is the ErrorKind order, not map order
		"latency p50 12ms p99 90ms",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q, missing %q", got, want)
		}
	}
}

// TestStatsJSONRoundTrip guards the persisted trailer shape.
func TestStatsJSONRoundTrip(t *testing.T) {
	s := Stats{
		Attempted: 5, Succeeded: 4, Failed: 1,
		Retries: 2, Attempts: 7,
		FailedByKind: map[string]int64{"tls": 1},
		Latency:      LatencyStats{Count: 5, Min: time.Millisecond, Max: time.Second},
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"attempted"`, `"failedByKind"`, `"latency"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("JSON %s missing key %s", data, key)
		}
	}
	var back Stats
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Attempted != s.Attempted || back.FailedByKind["tls"] != 1 || back.Latency.Max != time.Second {
		t.Errorf("round trip changed stats: %+v -> %+v", s, back)
	}
}
