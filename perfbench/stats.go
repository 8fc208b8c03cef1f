package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples a reported tail percentile must leave
// above it, so that the tail rests on more than a handful of requests.
const minBeyond = 10

// tailPercentile returns the highest whole percentile p < 100 that
// leaves at least minBeyond of n samples above it, together with that
// count. It returns (0, n−1) when n is too small for any percentile to
// qualify.
func tailPercentile(n int) (p, beyond int) {
	for p = 99; p > 0; p-- {
		if b := n - 1 - int(math.Floor(rankPos(p, n))); b >= minBeyond {
			return p, b
		}
	}
	return 0, max(n-1, 0)
}

// rankPos is the 0-based fractional position of the p-th percentile in
// n sorted samples (linear interpolation between closest ranks).
func rankPos(p, n int) float64 { return float64(n-1) * float64(p) / 100 }

// percentile returns the p-th percentile of xs, interpolating linearly
// between the two closest ranks (0 for an empty slice); p = 50 is the
// median.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := rankPos(p, len(s))
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// median is the 50th percentile: the mean of the two middle values for
// even length.
func median(xs []float64) float64 { return percentile(xs, 50) }

// normTime converts a time measured while the calibration kernel took k
// into the time it would take on the reference host, where the kernel
// takes refKernel: slower host (k > refKernel) → smaller reported time.
func normTime(t, k float64) float64 { return t * refKernelMs / k }

// normRate is normTime's counterpart for rates.
func normRate(r, k float64) float64 { return r * k / refKernelMs }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
