package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the fewest samples that must lie above a reported
// percentile: a p99 needs at least 1000 samples, a p50 at least 20.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// the sample count behind it. It refuses, with an error, a percentile
// that fewer than minBeyond samples lie beyond.
func quantile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, fewer than %d", q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

func median(xs []float64) (float64, error) { return quantile(xs, 0.5) }

// medianOf is the plain middle value for small repeat counts (set-up
// repetitions), where the percentile rule does not apply.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or def when b is 0.
func ratio(a, b, def float64) float64 {
	if b == 0 {
		return def
	}
	return a / b
}
