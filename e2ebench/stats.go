package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a tail figure resting on fewer samples is noise.
const minTail = 10

// tailQuantile returns the quantile to report for a wanted tail quantile
// (e.g. 0.99) over n samples: want itself when at least minTail samples lie
// beyond it, otherwise the highest quantile that has minTail samples beyond
// it. It returns 0 (the minimum) when n < minTail.
func tailQuantile(n int, want float64) float64 {
	if n < minTail {
		return 0
	}
	q := 1 - float64(minTail)/float64(n)
	return math.Min(want, q)
}

// quantile returns the nearest-rank q-quantile of sorted (ascending)
// samples: the smallest sample with at least a q share of samples at or
// below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// dist summarises a set of latency samples in microseconds.
type dist struct {
	N     int
	Mean  float64
	P50   float64
	Tail  float64 // value at TailQ
	TailQ float64 // the tail quantile actually reported (≤ the one asked for)
}

// summarize sorts samples in place and reports the median, the mean and the
// wanted tail quantile under the minTail rule.
func summarize(samples []float64, wantTail float64) dist {
	if len(samples) == 0 {
		return dist{}
	}
	sort.Float64s(samples)
	var sum float64
	for _, v := range samples {
		sum += v
	}
	tq := tailQuantile(len(samples), wantTail)
	return dist{
		N:     len(samples),
		Mean:  sum / float64(len(samples)),
		P50:   quantile(samples, 0.5),
		Tail:  quantile(samples, tq),
		TailQ: tq,
	}
}

// histSnap is the count/mean pair of one of the server's latency histogram
// snapshots (metrics.Snapshot on /v1/stats).
type histSnap struct {
	Count float64
	Mean  float64
	P99   float64
}

// windowMean returns the mean of the observations a histogram received
// between two snapshots, from their counts and running means, and the
// number of those observations. It is 0 when nothing was observed.
func windowMean(before, after histSnap) (mean, count float64) {
	n := after.Count - before.Count
	if n <= 0 {
		return 0, 0
	}
	sum := after.Count*after.Mean - before.Count*before.Mean
	return sum / n, n
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median returns the median of vs (the mean of the middle pair for an even
// count). It does not modify vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
