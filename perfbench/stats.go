package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie above it, so a p99 needs 1000 samples and a
// p50 needs 20.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether the sample supports it under the minBeyond rule. xs is sorted in
// place.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	// The epsilon keeps rounding error in q*n from pushing an exact rank up.
	idx := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	return xs[idx], n-1-idx >= minBeyond
}

// median is the middle value of xs (the mean of the middle two for an even
// count), sorting xs in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// splitmix64 derives well-mixed 64-bit values from a seed and a counter; the
// benchmark derives every trial seed and request choice from it, so one
// --seed fixes all inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed returns the i-th input seed of stream k under the benchmark
// seed. The result is never 0.
func deriveSeed(seed uint64, k, i int) uint64 {
	return splitmix64(splitmix64(seed^uint64(k)<<32)+uint64(i))%(1<<40) + 1
}
