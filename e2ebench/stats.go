package main

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles a tail may be reported at, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// rankIndex is the 0-based index of the nearest-rank p-th percentile of n
// sorted samples. The tolerance keeps float error in p/100*n (99.9% of
// 10000 is 9990.000000000002) from moving the rank up by one.
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	return min(max(i, 0), n-1)
}

// tailPercentile returns the highest candidate percentile that has at least
// ten of n samples beyond it, and false when even the median has fewer.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailCandidates {
		if n-1-rankIndex(p, n) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// summary is a timing reported as its median plus the tail percentile
// tailPercentile picks, with the sample count.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	// TailP is 0 when fewer than 20 samples leave no percentile with ten
	// samples beyond it.
	TailP float64 `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), Median: median(s)}
	if p, ok := tailPercentile(len(s)); ok {
		out.TailP, out.Tail = p, s[rankIndex(p, len(s))]
	}
	return out
}

// median of sorted samples: the middle one, or the mean of the middle two.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of unsorted samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(p, len(s))]
}

// medianOf is the median of unsorted samples.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// meanOf is the mean of samples, 0 for none.
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
