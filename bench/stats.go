package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0..100) of the samples by
// linear interpolation between closest ranks; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sum(xs []float64) float64 { return mean(xs) * float64(len(xs)) }

// tailLadder is the fixed set of percentiles a tail may be reported
// at, in increasing order, each with the share of samples beyond it
// written as one in so many.
var tailLadder = []struct {
	p     float64
	oneIn int
}{{50, 2}, {90, 10}, {99, 100}, {99.9, 1000}}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported (choosing-metrics guide, section 1).
const minBeyond = 10

// pickTail returns the highest percentile of tailLadder that has at
// least minBeyond of n samples beyond it. The median is the floor: it
// is reported whatever n is.
func pickTail(n int) float64 {
	best := tailLadder[0].p
	for _, t := range tailLadder {
		if n >= minBeyond*t.oneIn {
			best = t.p
		}
	}
	return best
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (method "exclusive"), which
// is the rule the benchmark contract judges spreads by. It needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	const n = 4
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}
