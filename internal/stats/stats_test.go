package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	// The counts form is the same distribution: a value held twice is two
	// samples, so the median moves with the counts, not with the keys.
	sorted := []float64{1, 2, 2, 2, 2, 2, 9, 9}
	byCount := NewCDFCounts(map[float64]int{1: 1, 2: 5, 9: 2})
	bySample := NewCDF([]float64{9, 2, 2, 1, 2, 2, 9, 2})
	if byCount.Len() != len(sorted) || bySample.Len() != len(sorted) {
		t.Fatalf("Len = %d from counts, %d from samples, want %d", byCount.Len(), bySample.Len(), len(sorted))
	}
	for _, q := range []float64{0, 0.1, 0.125, 0.5, 0.74, 0.75, 0.9, 1} {
		want := sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]
		if a, b := byCount.Quantile(q), bySample.Quantile(q); a != want || b != want {
			t.Errorf("Quantile(%v): %v from counts, %v from samples, want %v", q, a, b, want)
		}
	}
}

func TestQuantile(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i)
	}
	c := NewCDF(samples)
	if got := c.Quantile(0); got != 0 {
		t.Errorf("Quantile(0) = %v", got)
	}
	if got := c.Quantile(0.5); got != 50 {
		t.Errorf("Quantile(0.5) = %v, want 50", got)
	}
	if got := c.Quantile(1); got != 99 {
		t.Errorf("Quantile(1) = %v, want 99", got)
	}
}

func TestEmptyCDF(t *testing.T) {
	c := NewCDF(nil)
	if c.Len() != 0 || c.Quantile(0.5) != 0 {
		t.Error("empty CDF not zero-valued")
	}
}

func TestPointsMonotonic(t *testing.T) {
	prop := func(raw []float64) bool {
		clean := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		// The series a CDF figure plots: x at evenly spaced probability
		// levels never steps back.
		c := NewCDF(clean)
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = c.Quantile(float64(i) / 9)
		}
		return sort.Float64sAreSorted(xs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNewCDFDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	_ = NewCDF(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("input mutated: %v", in)
	}
}

func TestFormatTable(t *testing.T) {
	out := FormatTable([]string{"name", "count"}, [][]string{
		{"nginx", "27394"},
		{"LiteSpeed", "13626"},
	})
	if !strings.Contains(out, "nginx") || !strings.Contains(out, "13626") {
		t.Errorf("table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4", len(lines))
	}
}

func TestAsciiCDF(t *testing.T) {
	c1 := NewCDF([]float64{1, 2, 3})
	c2 := NewCDF([]float64{10, 20, 30})
	out := AsciiCDF([]string{"small", "big"}, []*CDF{c1, c2}, []float64{0, 0.5, 1}, "%.1f")
	if !strings.Contains(out, "small") || !strings.Contains(out, "30.0") {
		t.Errorf("AsciiCDF output:\n%s", out)
	}
}
