package metrics

import (
	"math"
	"math/bits"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	c := NewCounter()
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("Value() = %d, want 5", got)
	}
}

func TestGaugeBasics(t *testing.T) {
	g := NewGauge()
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("Value() = %d, want 4", got)
	}
}

func TestLabel(t *testing.T) {
	got := Label("h2_frames_read_total", "type", "DATA")
	want := `h2_frames_read_total{type="DATA"}`
	if got != want {
		t.Fatalf("Label() = %q, want %q", got, want)
	}
	got = Label(got, "dir", "in")
	want = `h2_frames_read_total{type="DATA",dir="in"}`
	if got != want {
		t.Fatalf("stacked Label() = %q, want %q", got, want)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help one")
	b := r.Counter("x_total", "help two (ignored)")
	if a != b {
		t.Fatal("second Counter() call returned a different instrument")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("instruments not shared")
	}

	g1 := r.Gauge("g", "")
	g1.Set(9)
	if g2 := r.Gauge("g", ""); g2.Value() != 9 {
		t.Fatal("gauge not shared")
	}

	h1 := r.Histogram("h", "", 1, 8)
	h1.Observe(3)
	if h2 := r.Histogram("h", "", 99, 99); h2.Snapshot().Count != 1 {
		t.Fatal("histogram not shared (unit/buckets fixed by first caller)")
	}
}

// TestNilRegistryHandsOutUnregisteredInstruments: a layer with an optional
// registry builds its instruments one way; with nobody watching they still
// count, each call getting an instrument of its own.
func TestNilRegistryHandsOutUnregisteredInstruments(t *testing.T) {
	var r *Registry
	a, b := r.Counter("x_total", ""), r.Counter("x_total", "")
	a.Inc()
	if a.Value() != 1 || b.Value() != 0 {
		t.Errorf("counters = %d, %d; want 1 and an independent 0", a.Value(), b.Value())
	}
	g := r.Gauge("g", "")
	g.Add(3)
	h := r.Histogram("h", "", 1, 8)
	h.Observe(5)
	if g.Value() != 3 || h.Snapshot().Count != 1 {
		t.Errorf("gauge = %d, histogram count = %d", g.Value(), h.Snapshot().Count)
	}
	r.GaugeFunc("f", "", func() int64 { return 1 }) // must not panic
}

func TestRegistryKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("clash", "")
}

func TestGaugeFuncSnapshot(t *testing.T) {
	r := NewRegistry()
	v := int64(0)
	r.GaugeFunc("fn_gauge", "computed", func() int64 { return v })
	v = 42
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Value != 42 || snap[0].Type != "gauge" {
		t.Fatalf("snapshot = %+v, want one gauge with value 42", snap)
	}
	// Re-registering replaces the function.
	r.GaugeFunc("fn_gauge", "computed", func() int64 { return 7 })
	if got := r.Snapshot()[0].Value; got != 7 {
		t.Fatalf("after re-register, value = %d, want 7", got)
	}
}

func TestSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz", "")
	r.Counter("aaa", "")
	r.Gauge("mmm", "")
	snap := r.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name > snap[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
}

func TestHistogramExactAccounting(t *testing.T) {
	h := NewHistogram(1, 16)
	for _, v := range []int64{5, 1, 9, 3, -2} { // -2 clamps to 0
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 18 || s.Min != 0 || s.Max != 9 {
		t.Fatalf("snapshot = count %d sum %d min %d max %d, want 5/18/0/9", s.Count, s.Sum, s.Min, s.Max)
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean() = %d, want 3", s.Mean())
	}
}

func TestHistogramEmptySnapshot(t *testing.T) {
	s := NewHistogram(1, 4).Snapshot()
	if s.Count != 0 || s.Min != 0 || s.Max != 0 || s.Quantile(0.5) != 0 {
		t.Fatalf("empty snapshot = %+v, want zeros", s)
	}
}

// oldLatencyBucket and oldBucketQuantile are verbatim ports of the scan
// engine's pre-refactor latency accounting (internal/scan/stats.go before
// it became a view over this package). The regression tests below prove the
// shared histogram reproduces them bit-for-bit.
const oldLatencyBuckets = 32

func oldLatencyBucket(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	b := bits.Len64(uint64(d / time.Millisecond))
	if b >= oldLatencyBuckets {
		b = oldLatencyBuckets - 1
	}
	return b
}

func oldBucketQuantile(counts [oldLatencyBuckets]int64, total int64, q float64) time.Duration {
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	var last time.Duration
	for i, n := range counts {
		if n == 0 {
			continue
		}
		if i == 0 {
			last = 500 * time.Microsecond
		} else {
			mid := math.Sqrt(math.Pow(2, float64(i-1)) * math.Pow(2, float64(i)))
			last = time.Duration(mid * float64(time.Millisecond))
		}
		seen += n
		if seen >= rank {
			return last
		}
	}
	return last
}

func TestBucketOfMatchesOldLatencyBucket(t *testing.T) {
	durations := []time.Duration{
		-time.Second, 0, time.Microsecond, 500 * time.Microsecond,
		999 * time.Microsecond, time.Millisecond, 1500 * time.Microsecond,
		2 * time.Millisecond, 3 * time.Millisecond, 4 * time.Millisecond,
		1023 * time.Millisecond, 1024 * time.Millisecond, time.Second,
		time.Minute, time.Hour, 1000 * time.Hour,
	}
	for _, d := range durations {
		got := BucketOf(int64(d), int64(time.Millisecond), DefaultBuckets)
		want := oldLatencyBucket(d)
		if got != want {
			t.Errorf("BucketOf(%v) = %d, want %d", d, got, want)
		}
	}
	if got := BucketOf(int64(1000*time.Hour), int64(time.Millisecond), DefaultBuckets); got != DefaultBuckets-1 {
		t.Errorf("huge duration bucket = %d, want clamp to %d", got, DefaultBuckets-1)
	}
}

func TestQuantileMatchesOldBucketQuantile(t *testing.T) {
	// Fixtures mirror the spreads the old scan tests exercised: uniform,
	// skewed-fast, skewed-slow, single-bucket, and adversarially sparse.
	fixtures := [][]time.Duration{
		{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond, 16 * time.Millisecond},
		{100 * time.Microsecond, 200 * time.Microsecond, 300 * time.Microsecond},
		{time.Second, 2 * time.Second, 30 * time.Second, time.Minute, time.Hour},
		{5 * time.Millisecond, 5 * time.Millisecond, 5 * time.Millisecond},
		{0, 1000 * time.Hour},
		{3 * time.Millisecond},
	}
	quantiles := []float64{0, 0.25, 0.5, 0.9, 0.99, 1}
	for fi, durs := range fixtures {
		h := NewHistogram(int64(time.Millisecond), DefaultBuckets)
		var old [oldLatencyBuckets]int64
		var total int64
		for _, d := range durs {
			h.Observe(int64(d))
			old[oldLatencyBucket(d)]++
			total++
		}
		s := h.Snapshot()
		for _, q := range quantiles {
			got := time.Duration(s.Quantile(q))
			want := oldBucketQuantile(old, total, q)
			if got != want {
				t.Errorf("fixture %d q=%v: Quantile = %v, want %v (old bucketQuantile)", fi, q, got, want)
			}
		}
	}
}

// TestQuantileClamped: a lone observation sits in a bucket whose geometric
// midpoint differs from it; the clamped quantile answers the observation.
func TestQuantileClamped(t *testing.T) {
	h := NewHistogram(int64(time.Millisecond), DefaultBuckets)
	h.Observe(int64(5 * time.Millisecond))
	s := h.Snapshot()
	if raw := s.Quantile(0.5); raw == s.Min {
		t.Fatalf("fixture is useless: raw quantile %d already equals the observation", raw)
	}
	if got := s.QuantileClamped(0.5); got != int64(5*time.Millisecond) {
		t.Errorf("QuantileClamped(0.5) = %d, want the only observation %d", got, int64(5*time.Millisecond))
	}
	h.Observe(int64(6 * time.Millisecond))
	s = h.Snapshot()
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.QuantileClamped(q); got < s.Min || got > s.Max {
			t.Errorf("QuantileClamped(%v) = %d outside [%d, %d]", q, got, s.Min, s.Max)
		}
	}
	var empty HistogramSnapshot
	if got := empty.QuantileClamped(0.5); got != 0 {
		t.Errorf("empty QuantileClamped = %d, want 0", got)
	}
}

// TestConcurrentHammer drives counters, gauges, and histograms from 32
// goroutines while snapshots are taken concurrently; run under -race this is
// the registry's data-race certificate (satellite 3).
func TestConcurrentHammer(t *testing.T) {
	const (
		goroutines = 32
		perG       = 2000
	)
	r := NewRegistry()
	c := r.Counter("hammer_total", "")
	g := r.Gauge("hammer_gauge", "")
	h := r.Histogram("hammer_hist", "", 1, 16)
	r.GaugeFunc("hammer_fn", "", func() int64 { return c.Value() })

	var workers, reader sync.WaitGroup
	stop := make(chan struct{})
	reader.Add(1)
	go func() { // concurrent snapshot reader
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, m := range r.Snapshot() {
				if m.Histogram != nil && m.Histogram.Count > 0 {
					_ = m.Histogram.Quantile(0.9)
				}
			}
		}
	}()
	for i := 0; i < goroutines; i++ {
		workers.Add(1)
		go func(i int) {
			defer workers.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i*perG + j))
				// Concurrent get-or-create of the same names must be safe too.
				r.Counter("hammer_total", "").Add(1)
			}
		}(i)
	}
	workers.Wait()
	close(stop)
	reader.Wait()

	const want = goroutines * perG
	if got := c.Value(); got != 2*want {
		t.Fatalf("counter = %d, want %d", got, 2*want)
	}
	if got := g.Value(); got != want {
		t.Fatalf("gauge = %d, want %d", got, want)
	}
	s := h.Snapshot()
	if s.Count != want {
		t.Fatalf("histogram count = %d, want %d", s.Count, want)
	}
	var bucketSum int64
	for _, n := range s.Buckets {
		bucketSum += n
	}
	if bucketSum != want {
		t.Fatalf("bucket sum = %d, want %d", bucketSum, want)
	}
}

func TestRuntimeSampler(t *testing.T) {
	r := NewRegistry()
	s := NewRuntimeSampler(r, time.Millisecond)
	defer s.Stop()
	s.Start()
	s.Start() // idempotent
	time.Sleep(5 * time.Millisecond)
	s.Sample()
	snap := r.Snapshot()
	byName := make(map[string]MetricSnapshot, len(snap))
	for _, m := range snap {
		byName[m.Name] = m
	}
	if byName["go_goroutines"].Value <= 0 {
		t.Fatalf("go_goroutines = %d, want > 0", byName["go_goroutines"].Value)
	}
	if byName["go_heap_alloc_bytes"].Value <= 0 {
		t.Fatalf("go_heap_alloc_bytes = %d, want > 0", byName["go_heap_alloc_bytes"].Value)
	}
	if _, ok := byName["go_gc_pause_ns"]; !ok {
		t.Fatal("go_gc_pause_ns histogram missing")
	}
	s.Stop()
	s.Stop() // safe on stopped sampler
}
