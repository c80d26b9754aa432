package main

import (
	"fmt"
	"math"
	"sort"
)

// tailBeyond is how many observations must lie beyond a reported tail
// percentile for it to count as measured rather than extrapolated.
const tailBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least
// tailBeyond observations above it, together with that percentile.
// With tailBeyond or fewer observations it returns the maximum as the
// 100th percentile, and 0 for an empty slice.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sorted(xs)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	i := n - tailBeyond - 1
	return s[i], 100 * float64(i+1) / float64(n)
}

// tailNote renders how a tail was taken, for the human-readable lines.
func tailNote(name string, xs []float64) string {
	_, pct := tail(xs)
	return fmt.Sprintf("%s is p%.1f of %d samples", name, pct, len(xs))
}

// geomean returns the geometric mean of positive values, or 0 when xs
// is empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// windowSize is how many consecutive requests form one window of an
// open-loop phase.
const windowSize = 500

// windowedTail returns the median over whole windows of each window's
// tail, so one stall of the host does not decide a run's tail. Fewer
// than two windows' worth of samples fall back to the plain tail.
func windowedTail(xs []float64) float64 {
	if len(xs) < 2*windowSize {
		v, _ := tail(xs)
		return v
	}
	var tails []float64
	for i := 0; i+windowSize <= len(xs); i += windowSize {
		v, _ := tail(xs[i : i+windowSize])
		tails = append(tails, v)
	}
	return median(tails)
}

// windowNote renders how a windowed tail was taken.
func windowNote(name string, xs []float64) string {
	if len(xs) < 2*windowSize {
		return tailNote(name, xs)
	}
	_, pct := tail(xs[:windowSize])
	return fmt.Sprintf("%s is the median over %d windows of p%.1f of %d samples", name, len(xs)/windowSize, pct, windowSize)
}
