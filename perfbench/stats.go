package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail percentile
// for it to count as measured rather than as the run's maximum in disguise.
const minBeyond = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks. sorted must be non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median returns the median of xs without modifying it; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// mean returns the arithmetic mean of xs; 0 for no samples.
func mean(xs []float64) float64 {
	return ratio(sum(xs), float64(len(xs)))
}

// tailPercentile returns the p-th percentile (0 < p < 100) of xs and
// refuses it when fewer than minBeyond samples lie strictly above it: a
// p99 over 500 samples is the fifth-largest value, not a percentile.
func tailPercentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("p%g: no samples", p)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v := quantile(s, p/100)
	beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	if beyond < minBeyond {
		return v, fmt.Errorf("p%g over %d samples has %d beyond it (need %d)", p, len(s), beyond, minBeyond)
	}
	return v, nil
}

// batchedTail is tailPercentile made robust to CPU steal: samples (in
// completion order) are cut into the most consecutive batches that each
// keep minBeyond samples beyond the percentile, and the lowest of the
// batches' percentiles is returned with the batch count. Steal on a shared
// host only ever adds latency, and it comes in spells of seconds that
// inflate a closed loop's tail several times more than its median; the
// least disturbed batch is the nearest to the program's own tail, while a
// change to the program moves every batch. With fewer samples than two
// batches need it is the plain pooled percentile (one batch).
func batchedTail(xs []float64, p float64) (float64, int, error) {
	need := int(math.Ceil(minBeyond/(1-p/100))) + 1
	k := len(xs) / need
	if k < 2 {
		v, err := tailPercentile(xs, p)
		return v, 1, err
	}
	size := len(xs) / k
	low := math.Inf(1)
	for i := 0; i < k; i++ {
		v, err := tailPercentile(xs[i*size:(i+1)*size], p)
		if err != nil {
			return v, k, err
		}
		low = min(low, v)
	}
	return low, k, nil
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work on this
// workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// blockRate is a window's throughput in ops/s, taken robustly: the median,
// over consecutive blocks of about a second's worth of completions, of the
// block's ops per second. done holds each op's completion time since the
// window began. A burst of CPU steal on a shared host slows a few blocks
// rather than the estimate.
func blockRate(done []time.Duration, window time.Duration) float64 {
	blocks := int(window / time.Second)
	k := 0
	if blocks > 0 {
		k = len(done) / blocks
	}
	if k == 0 {
		return ratio(float64(len(done)), window.Seconds())
	}
	s := append([]time.Duration(nil), done...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var rates []float64
	for i := 0; (i+1)*k < len(s); i++ {
		rates = append(rates, ratio(float64(k), (s[(i+1)*k]-s[i*k]).Seconds()))
	}
	return median(rates)
}
