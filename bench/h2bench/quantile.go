package main

import (
	"math"
	"slices"
)

// quantileSorted returns the q-quantile (0..1) of an ascending slice by
// linear interpolation between the two nearest ranks (the "inclusive"
// method: q=0 is the minimum, q=1 the maximum). It returns NaN for an empty
// slice, so a missing sample can never be mistaken for a zero latency.
func quantileSorted[T int32 | int64 | float64](sorted []T, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return float64(sorted[0])
	}
	if q >= 1 {
		return float64(sorted[n-1])
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return float64(sorted[n-1])
	}
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}

// quantile is quantileSorted over a copy of vs, so the caller's order stays.
func quantile(vs []float64, q float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return quantileSorted(s, q)
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// midmean returns the interquartile mean of an ascending slice: the mean
// of the samples from rank n/4 up to rank 3n/4. On a smooth distribution it
// reads as the median; where samples cluster at a few values (probe_scan's
// site times come in steps of a 100 ms timer) it moves in proportion as
// samples shift between clusters, while the median jumps from one cluster
// to the next. It returns NaN for an empty slice.
func midmean[T int32 | int64 | float64](sorted []T) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	lo, hi := n/4, n-n/4
	var sum float64
	for _, v := range sorted[lo:hi] {
		sum += float64(v)
	}
	return sum / float64(hi-lo)
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the default "exclusive" method),
// because that is the function the acceptance rule for this benchmark is
// stated in: a metric's spread is (q3 - q1) / median. It needs at least two
// values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the acceptance rule's run-to-run spread: the interquartile
// distance as a share of the median.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return math.Abs((q3 - q1) / q2)
}
