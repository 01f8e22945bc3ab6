package main

import (
	"math"
	"sort"
)

// The slice estimator: a homogeneous closed-loop phase is cut into
// nSlices slices of equal operation count, the statistic is computed
// per slice, the `dropped` worst slices are discarded (interference
// from the host only ever slows a slice) and the rest are averaged.
const (
	nSlices = 12
	dropped = 4
	// A phase whose slice rates have an inter-quartile range above this
	// share of their median ran on a disturbed host and is repeated once.
	disturbedIQR = 0.08
)

func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-quantile (0..1) of v by linear interpolation
// between closest ranks; 0 for an empty sample.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return percentile(v, 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartiles returns the cut points Python's
// statistics.quantiles(v, n=4) gives (the "exclusive" method), which is
// what the driver's noise check uses; v needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the inter-quartile range as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// sliceEstimate drops the worst slices and averages the others.
func sliceEstimate(perSlice []float64, higherIsBetter bool) float64 {
	s := sorted(perSlice)
	drop := dropped * len(s) / nSlices
	if higherIsBetter {
		return mean(s[drop:])
	}
	return mean(s[:len(s)-drop])
}

// disturbed reports whether the slice rates of an attempt are too
// dispersed to trust.
func disturbed(sliceRates []float64) bool {
	return spread(sliceRates) > disturbedIQR
}

// calmer picks which of two attempts to report: the less dispersed one.
func calmer(first, second []float64) int {
	if spread(second) < spread(first) {
		return 1
	}
	return 0
}

// sliceBounds cuts n operations into k slices of equal count; slice i is
// [b[i], b[i+1]).
func sliceBounds(n, k int) []int {
	b := make([]int, k+1)
	for i := range b {
		b[i] = i * n / k
	}
	return b
}

// midmean is the mean of the middle half of v, the values between the
// quartiles: a median smoothed over its neighbourhood. The simulated
// search latencies cluster in three modes and their plain median falls
// in the gap between two of them, where a change of one point in a
// mode's share moves it by ten; the midmean moves with the share.
func midmean(v []float64) float64 {
	s := sorted(v)
	return mean(s[len(s)/4 : len(s)-len(s)/4])
}
