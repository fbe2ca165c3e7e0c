package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// timeCalls runs fn until it has at least minSamples raw samples and has
// spent budget, and returns every sample in seconds. One untimed call
// goes first so lazy set-up and cold caches stay out of the samples.
func timeCalls(minSamples int, budget time.Duration, fn func()) []float64 {
	fn()
	var samples []float64
	deadline := time.Now().Add(budget)
	for len(samples) < minSamples || time.Now().Before(deadline) {
		t0 := time.Now()
		fn()
		samples = append(samples, time.Since(t0).Seconds())
	}
	return samples
}
