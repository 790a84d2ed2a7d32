// Package stats provides the summary statistics and curve fits the
// experiment harness uses: per-sweep means and deviations, and
// least-squares fits against the asymptotic shapes the paper proves —
// n, n log n, log n and log^2 n — so rechord-figures can report which
// shape each measured series follows.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the usual descriptive statistics of a sample.
type Summary struct {
	N                int
	Mean, Std        float64
	Min, Max, Median float64
}

// Summarize computes descriptive statistics. An empty sample yields
// the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	varsum := 0.0
	for _, x := range xs {
		d := x - s.Mean
		varsum += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(varsum / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// Percentile returns the p-th percentile (0..100) by nearest-rank.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Shape is a candidate asymptotic growth shape g(n).
type Shape struct {
	Name string
	Eval func(n float64) float64
}

// Shapes returns the growth shapes relevant to the paper's bounds.
func Shapes() []Shape {
	log2 := func(n float64) float64 {
		if n < 2 {
			return 1
		}
		return math.Log2(n)
	}
	return []Shape{
		{Name: "1", Eval: func(n float64) float64 { return 1 }},
		{Name: "log n", Eval: log2},
		{Name: "log^2 n", Eval: func(n float64) float64 { l := log2(n); return l * l }},
		{Name: "n", Eval: func(n float64) float64 { return n }},
		{Name: "n log n", Eval: func(n float64) float64 { return n * log2(n) }},
		{Name: "n log^2 n", Eval: func(n float64) float64 { l := log2(n); return n * l * l }},
		{Name: "n^2", Eval: func(n float64) float64 { return n * n }},
	}
}

// Fit is the result of fitting y = c * g(n) by least squares.
type Fit struct {
	Shape Shape
	C     float64
	R2    float64
}

// FitShape fits y ≈ c*g(n) minimizing squared error; R2 is the
// coefficient of determination of the fit.
func FitShape(ns, ys []float64, g Shape) Fit {
	var num, den float64
	for i := range ns {
		gi := g.Eval(ns[i])
		num += gi * ys[i]
		den += gi * gi
	}
	c := 0.0
	if den > 0 {
		c = num / den
	}
	meanY := 0.0
	for _, y := range ys {
		meanY += y
	}
	meanY /= float64(len(ys))
	var ssRes, ssTot float64
	for i := range ns {
		pred := c * g.Eval(ns[i])
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	} else if ssRes > 0 {
		r2 = 0
	}
	return Fit{Shape: g, C: c, R2: r2}
}

// BestFit returns the shape with the highest R2 for the series, i.e.
// the asymptotic growth the data most resembles among the candidates.
func BestFit(ns, ys []float64) (Fit, error) {
	if len(ns) != len(ys) || len(ns) < 2 {
		return Fit{}, fmt.Errorf("stats: need at least two (n, y) points, got %d/%d", len(ns), len(ys))
	}
	var best Fit
	first := true
	for _, g := range Shapes() {
		f := FitShape(ns, ys, g)
		if first || f.R2 > best.R2 {
			best, first = f, false
		}
	}
	return best, nil
}

// GrowthExponent estimates p in y ~ n^p by log-log regression; p < 1
// indicates sublinear growth (what the paper observes for rounds to
// stabilize in Fig. 6).
func GrowthExponent(ns, ys []float64) (float64, error) {
	if len(ns) != len(ys) || len(ns) < 2 {
		return 0, fmt.Errorf("stats: need at least two points")
	}
	var sx, sy, sxx, sxy float64
	k := 0
	for i := range ns {
		if ns[i] <= 0 || ys[i] <= 0 {
			continue
		}
		x, y := math.Log(ns[i]), math.Log(ys[i])
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		k++
	}
	if k < 2 {
		return 0, fmt.Errorf("stats: not enough positive points")
	}
	den := float64(k)*sxx - sx*sx
	if den == 0 {
		return 0, fmt.Errorf("stats: degenerate x values")
	}
	return (float64(k)*sxy - sx*sy) / den, nil
}
