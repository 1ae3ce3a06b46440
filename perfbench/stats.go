package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile of xs (0 ≤ q ≤ 1) by linear
// interpolation between closest ranks; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// perWindow applies f to each whole window of size consecutive samples and
// returns the median of the results; size 0 means one window of all the
// samples. A burst of steal time then moves the figure of one window, not
// the figure of the run.
func perWindow(xs []float64, size int, f func([]float64) float64) float64 {
	if size <= 0 || len(xs) < size {
		return f(xs)
	}
	var vs []float64
	for i := 0; i+size <= len(xs); i += size {
		vs = append(vs, f(xs[i:i+size]))
	}
	return median(vs)
}
