package main

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

func TestBuildSiteDeterministic(t *testing.T) {
	a, b, other := buildSite(7), buildSite(7), buildSite(8)
	if len(a.Small) != siteObjects || len(a.Large) != largeObjects {
		t.Fatalf("site has %d small and %d large objects, want %d and %d",
			len(a.Small), len(a.Large), siteObjects, largeObjects)
	}
	differs := false
	for i := range a.Small {
		if a.Small[i].Path != b.Small[i].Path || !bytes.Equal(a.Small[i].Body, b.Small[i].Body) {
			t.Fatalf("same seed, object %d differs: %s vs %s", i, a.Small[i].Path, b.Small[i].Path)
		}
		if n := len(a.Small[i].Body); n < minObjectSize || n > maxObjectSize {
			t.Errorf("object %s is %d bytes, outside [%d, %d]", a.Small[i].Path, n, minObjectSize, maxObjectSize)
		}
		differs = differs || a.Small[i].Path != other.Small[i].Path
	}
	if !differs {
		t.Error("another seed gave the same paths")
	}
	for _, o := range a.Large {
		if len(o.Body) != largeObjSize {
			t.Errorf("%s is %d bytes, want %d", o.Path, len(o.Body), largeObjSize)
		}
	}
}

// The hot ranks must not all be small or all be large, or one seed's mean
// response size (and goodput) would differ from the next one's.
func TestBuildSiteSpreadsSizesOverRanks(t *testing.T) {
	z := newZipfTable(siteObjects)
	var means []float64
	for seed := int64(1); seed <= 5; seed++ {
		bs := buildSite(seed)
		var mean, prev float64
		for k, o := range bs.Small {
			mean += (z.cdf[k] - prev) * float64(len(o.Body))
			prev = z.cdf[k]
		}
		means = append(means, mean)
	}
	if lo, hi := slices.Min(means), slices.Max(means); hi/lo > 1.05 {
		t.Errorf("Zipf-weighted mean response size varies %.0f..%.0f B across seeds (>5%%): %v", lo, hi, means)
	}
}

func TestZipfSeqDeterministicAndZipfian(t *testing.T) {
	z := newZipfTable(siteObjects)
	const n = 1 << 16
	a, b := newZipfSeq(z, 3, 0, n), newZipfSeq(z, 3, 0, n)
	if !slices.Equal(a.idx, b.idx) {
		t.Fatal("same seed and worker gave different request sequences")
	}
	if slices.Equal(a.idx, newZipfSeq(z, 3, 1, n).idx) {
		t.Error("two workers share one request sequence")
	}
	if slices.Equal(a.idx, newZipfSeq(z, 4, 0, n).idx) {
		t.Error("two seeds share one request sequence")
	}
	// With s = 1 over 1024 ranks the hottest object draws 1/H(1024) = 13.3 %.
	hot := 0
	for _, v := range a.idx {
		if v == 0 {
			hot++
		}
	}
	if share := float64(hot) / n; math.Abs(share-0.1331) > 0.01 {
		t.Errorf("rank-1 share = %.4f, want 0.133 ± 0.01", share)
	}
	// next cycles.
	s := &requestSeq{idx: []uint16{4, 5}}
	if got := []int{s.next(), s.next(), s.next()}; !slices.Equal(got, []int{4, 5, 4}) {
		t.Errorf("next() sequence = %v, want [4 5 4]", got)
	}
}

func TestLargeSeqCoversEveryObject(t *testing.T) {
	s := newLargeSeq(9, 1)
	seen := make(map[int]bool)
	for i := 0; i < largeObjects; i++ {
		seen[s.next()] = true
	}
	if len(seen) != largeObjects {
		t.Errorf("a batch of %d requested %d distinct large objects", largeObjects, len(seen))
	}
}

func TestWorkloadTable(t *testing.T) {
	if len(workloads) != 4 {
		t.Fatalf("%d workloads, want 4", len(workloads))
	}
	for _, wl := range workloads {
		got, ok := workloadByName(wl.Name)
		if !ok || got.Name != wl.Name {
			t.Errorf("workloadByName(%q) = %v, %v", wl.Name, got, ok)
		}
		if len(wl.Why) == 0 || len(wl.Why) > 200 {
			t.Errorf("%s: why is %d characters, want 1..200", wl.Name, len(wl.Why))
		}
	}
	if _, ok := workloadByName("nope"); ok {
		t.Error("workloadByName accepted an unknown name")
	}
}
