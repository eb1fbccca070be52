package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestQuantileSorted(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ q, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.9, 46}, {1, 50}, {-1, 10}, {2, 50},
	} {
		if got := quantileSorted(s, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantileSorted(%v, %v) = %v, want %v", s, tc.q, got, tc.want)
		}
	}
	if got := quantileSorted([]int32{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %v, want 7", got)
	}
	if got := quantileSorted([]float64(nil), 0.5); !math.IsNaN(got) {
		t.Errorf("empty slice: got %v, want NaN", got)
	}
}

func TestMedianKeepsCallerOrder(t *testing.T) {
	vs := []float64{3, 1, 2}
	if got := median(vs); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if vs[0] != 3 || vs[1] != 1 || vs[2] != 2 {
		t.Errorf("median reordered its argument: %v", vs)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even count: median = %v, want 2.5", got)
	}
}

// The expected cut points are what Python prints for
// statistics.quantiles(values, n=4), the function the acceptance rule is
// stated in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{2, 4, 4, 5, 7}, 3, 4, 6},
	} {
		q1, q2, q3 := quartiles(tc.vs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.vs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if q1, _, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Errorf("one value: got %v, want NaN", q1)
	}
}

func TestSpread(t *testing.T) {
	got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{5, 5, 5}); got != 0 {
		t.Errorf("constant values: spread = %v, want 0", got)
	}
}

func TestMidmean(t *testing.T) {
	// The middle half of 1..8 is 3..6.
	if got := midmean([]int64{1, 2, 3, 4, 5, 6, 7, 8}); got != 4.5 {
		t.Errorf("midmean(1..8) = %v, want 4.5", got)
	}
	// Outliers on either side do not move it.
	if got := midmean([]int64{-1000, 2, 3, 4, 5, 6, 7, 100000}); got != 4.5 {
		t.Errorf("midmean with outliers = %v, want 4.5", got)
	}
	if got := midmean([]int32{7}); got != 7 {
		t.Errorf("single sample: midmean = %v, want 7", got)
	}
	if got := midmean([]float64(nil)); !math.IsNaN(got) {
		t.Errorf("empty slice: midmean = %v, want NaN", got)
	}
	// Samples in two clusters: as the share of the upper cluster goes from
	// 45 % to 55 % the median jumps from one cluster to the other while the
	// midmean moves by a fifth of the gap.
	cluster := func(upper int) []int64 {
		s := make([]int64, 100)
		for i := range s {
			s[i] = 140
			if i >= 100-upper {
				s[i] = 230
			}
		}
		return s
	}
	lo, hi := cluster(45), cluster(55)
	if quantileSorted(lo, 0.5) != 140 || quantileSorted(hi, 0.5) != 230 {
		t.Fatalf("medians = %v, %v; the test's premise is that they jump", quantileSorted(lo, 0.5), quantileSorted(hi, 0.5))
	}
	if d := midmean(hi) - midmean(lo); math.Abs(d-18) > 1e-9 {
		t.Errorf("midmean moved by %v, want 18 (10 of the middle 50 samples crossing a gap of 90)", d)
	}
}

func TestOpSinkSubWindows(t *testing.T) {
	t0 := time.Now()
	s := newOpSink(t0, time.Second, 16)
	if len(s.subOps) != 4 || s.subLen != subWindow {
		t.Fatalf("1 s window cut into %d sub-windows of %v, want 4 of %v", len(s.subOps), s.subLen, subWindow)
	}
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	s.record(at(-5), time.Microsecond, true, 10)    // warm-up: counted overall only
	s.record(at(10), 100*time.Nanosecond, true, 10) // sub-window 0
	s.record(at(20), 200*time.Nanosecond, true, 10) // sub-window 0
	s.record(at(30), 999*time.Nanosecond, false, 0) // failed: no sample
	s.record(at(600), 300*time.Nanosecond, true, 7) // sub-window 2 (1 is empty)
	s.record(at(1000), time.Microsecond, true, 10)  // at t1: outside
	if s.allOps != 6 || s.allFailed != 1 || s.attempted != 4 || s.failed != 1 || s.bodyBytes != 27 {
		t.Errorf("allOps %d allFailed %d attempted %d failed %d bodyBytes %d; want 6 1 4 1 27",
			s.allOps, s.allFailed, s.attempted, s.failed, s.bodyBytes)
	}
	if want := []int64{2, 0, 1, 0}; !slices.Equal(s.subOps, want) {
		t.Errorf("subOps = %v, want %v", s.subOps, want)
	}
	if want := []int64{20, 0, 7, 0}; !slices.Equal(s.subBytes, want) {
		t.Errorf("subBytes = %v, want %v", s.subBytes, want)
	}
	for i, want := range [][]int32{{100, 200}, {}, {300}, {}} {
		if got := s.subSamples(i); !slices.Equal(got, want) {
			t.Errorf("subSamples(%d) = %v, want %v", i, got, want)
		}
	}
	// A full buffer keeps what fits; counts go on.
	small := newOpSink(t0, time.Second, 1)
	small.record(at(1), time.Nanosecond, true, 1)
	small.record(at(2), time.Nanosecond, true, 1)
	if len(small.lat) != 1 || small.subOps[0] != 2 {
		t.Errorf("full buffer: %d samples, %d ops; want 1, 2", len(small.lat), small.subOps[0])
	}
	// A window too short to cut is one sub-window.
	if n, l := subWindowsOf(400 * time.Millisecond); n != 1 || l != 400*time.Millisecond {
		t.Errorf("subWindowsOf(400ms) = %d, %v; want 1, 400ms", n, l)
	}
}
