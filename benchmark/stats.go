package main

import (
	"math"
	"sort"
)

// The estimator. A timing metric is never a mean over a run: on this host
// class (2 vCPUs, steal time above user time under load) stalls of 3-170 ms
// land in any second of wall time, so means move 2-4x between runs of
// unchanged code. Instead a run is split into trials, each on a fresh
// runtime; a trial yields one percentile of its many short samples, and the
// reported value is the median of those per-trial percentiles. A stall then
// spoils a few samples of one trial, not the metric.

// warmFraction is the leading share of a trial's samples that is dropped
// (on top of the untimed warm-up ops): pools, goroutine stacks and branch
// predictors are still settling there.
const warmFraction = 0.10

// tailBeyond is how many samples must lie beyond a percentile for it to be
// reported as the tail.
const tailBeyond = 10

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercent picks the tail percentile a trial of n samples supports: p99
// when at least tailBeyond samples lie beyond it, else the highest whole
// percentile that still has tailBeyond samples beyond it, and never below
// the median.
func tailPercent(n int) float64 {
	for p := 99; p > 50; p-- {
		rank := int(math.Ceil(float64(p) / 100 * float64(n)))
		if n-rank >= tailBeyond {
			return float64(p)
		}
	}
	return 50
}

// median returns the middle of vs (mean of the two middles for even
// lengths) without modifying it.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(vs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// iqr is the distance between the first and third quartile of vs, by the
// exclusive method Python's statistics.quantiles(vs, n=4) uses (the one the
// acceptance driver applies), so the spread printed here is the spread it
// will compute. Fewer than two values have no spread.
func iqr(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := sortedCopy(vs)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based position
		lo := int(math.Floor(pos))
		if lo < 1 {
			lo = 1
		}
		if lo > len(s)-1 {
			lo = len(s) - 1
		}
		frac := pos - float64(lo)
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return q(3) - q(1)
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// kept converts a trial's raw nanosecond samples to float64, drops the
// warm fraction from the front and sorts the rest.
func kept(ns []int64) []float64 {
	drop := int(warmFraction * float64(len(ns)))
	out := make([]float64, 0, len(ns)-drop)
	for _, v := range ns[drop:] {
		out = append(out, float64(v))
	}
	sort.Float64s(out)
	return out
}

// estimate is one metric's value with the evidence behind it.
type estimate struct {
	Value float64 // median across trials of the per-trial statistic
	IQR   float64 // inter-quartile distance across trials
	N     int     // samples kept, summed over trials
}

// acrossTrials applies stat to each trial's kept samples and summarises the
// per-trial results.
func acrossTrials(trials [][]float64, stat func(sorted []float64) float64) estimate {
	var per []float64
	n := 0
	for _, t := range trials {
		if len(t) == 0 {
			continue
		}
		per = append(per, stat(t))
		n += len(t)
	}
	return estimate{Value: median(per), IQR: iqr(per), N: n}
}

// p50Of is the median-of-trials median.
func p50Of(trials [][]float64) estimate {
	return acrossTrials(trials, func(s []float64) float64 { return percentile(s, 50) })
}

// tailOf is the median-of-trials want-th percentile, lowered to the highest
// percentile every trial supports (tailBeyond samples beyond it) when a
// trial is short. It returns the percentile used.
func tailOf(trials [][]float64, want float64) (estimate, float64) {
	for _, t := range trials {
		if len(t) > 0 {
			want = math.Min(want, tailPercent(len(t)))
		}
	}
	return acrossTrials(trials, func(s []float64) float64 { return percentile(s, want) }), want
}
