package main

import (
	"sort"
)

// median returns the median of vals (mean of the two middle values for an
// even count), 0 for none. vals is not modified.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailMinBeyond = 10

// tail returns the highest percentile of vals that still has at least
// tailMinBeyond samples beyond it, and the sample at that rank. With too
// few samples for any tail it reports the median as the 50th percentile.
func tail(vals []float64) (value, pct float64) {
	n := len(vals)
	if n <= 2*tailMinBeyond {
		return median(vals), 50
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[n-tailMinBeyond-1], 100 * float64(n-tailMinBeyond) / float64(n)
}

// throughputSegments is how many equal op-count segments a timed loop is
// cut into; the reported throughput is the median segment's, so a stall in
// one stretch of the run does not set the number.
const throughputSegments = 5

// segmentThroughput cuts the ops, given by their end times in seconds since
// the loop started, into throughputSegments equal-count runs and returns the
// median ops/s over them. Fewer ops than segments fall back to the whole
// loop's rate.
func segmentThroughput(ends []float64) float64 {
	n := len(ends)
	if n == 0 {
		return 0
	}
	if n < throughputSegments {
		return float64(n) / ends[n-1]
	}
	rates := make([]float64, 0, throughputSegments)
	prevEnd, prevIdx := 0.0, 0
	for s := 1; s <= throughputSegments; s++ {
		idx := s * n / throughputSegments
		rates = append(rates, float64(idx-prevIdx)/(ends[idx-1]-prevEnd))
		prevEnd, prevIdx = ends[idx-1], idx
	}
	return median(rates)
}
