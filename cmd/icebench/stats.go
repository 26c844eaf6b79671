package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs, interpolating
// linearly between the two nearest ranks. xs need not be sorted; it is
// not modified. An empty sample reads 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentileLadder holds the percentiles a timing may be reported at.
var percentileLadder = []float64{50, 90, 95, 99, 99.9}

// highestPercentile is the highest ladder percentile that has at least
// ten of n samples beyond it: a tail reported from fewer samples than
// that is one or two unlucky requests, not a distribution. ok is false
// when even the median lacks ten samples beyond it.
func highestPercentile(n int) (p float64, ok bool) {
	for _, q := range percentileLadder {
		// n·(1−q/100) ≥ 10, in tenths of a percent so no rounding decides.
		if n*(1000-int(math.Round(q*10))) >= 10*1000 {
			p, ok = q, true
		}
	}
	return p, ok
}
