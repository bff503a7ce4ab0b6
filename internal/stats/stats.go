// Package stats provides the statistical machinery MBPTA needs: the
// descriptive statistics, the Ljung-Box independence test and the
// two-sample Kolmogorov-Smirnov identical-distribution test the paper
// applies at a 5% significance level (§VI, "Fulfilling the i.i.d.
// properties"), plus the special functions (regularised incomplete
// gamma, Kolmogorov distribution) their p-values require.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrTooFewSamples is returned by tests that need a minimum sample size.
var ErrTooFewSamples = errors.New("stats: too few samples")

// ErrNaN is returned by tests whose ordering a NaN sample would break.
var ErrNaN = errors.New("stats: NaN sample")

// Mean returns the arithmetic mean. It panics on an empty slice: every
// caller in this module guarantees non-empty inputs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Mean of empty slice")
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (n-1 denominator).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest element.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0≤q≤1) of xs by linear interpolation
// on the sorted sample.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %f out of [0,1]", q))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Autocorrelation returns the lag-k sample autocorrelation coefficient.
func Autocorrelation(xs []float64, k int) float64 {
	n := len(xs)
	if k <= 0 || k >= n {
		panic(fmt.Sprintf("stats: autocorrelation lag %d out of range for n=%d", k, n))
	}
	m := Mean(xs)
	var num, den float64
	for i := 0; i < n-k; i++ {
		num += (xs[i] - m) * (xs[i+k] - m)
	}
	for _, x := range xs {
		den += (x - m) * (x - m)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// TestResult is the outcome of a statistical hypothesis test.
type TestResult struct {
	Statistic float64
	PValue    float64
}

// Passed reports whether the test fails to reject at significance alpha
// (the paper's criterion: i.i.d. is rejected only if p < 0.05).
func (t TestResult) Passed(alpha float64) bool { return t.PValue >= alpha }

// LjungBox runs the Ljung-Box portmanteau test for independence using
// autocorrelations up to lag h. The null hypothesis is that the data are
// independently distributed; small p-values reject independence.
func LjungBox(xs []float64, h int) (TestResult, error) {
	n := len(xs)
	if h <= 0 {
		return TestResult{}, fmt.Errorf("stats: Ljung-Box needs h > 0, got %d", h)
	}
	if n <= h+1 {
		return TestResult{}, fmt.Errorf("%w: Ljung-Box with h=%d needs n > %d, got %d",
			ErrTooFewSamples, h, h+1, n)
	}
	if Variance(xs) == 0 {
		// A constant series carries no evidence against independence: the
		// sample autocorrelations are undefined (0/0); treat as pass.
		return TestResult{Statistic: 0, PValue: 1}, nil
	}
	var q float64
	for k := 1; k <= h; k++ {
		r := Autocorrelation(xs, k)
		q += r * r / float64(n-k)
	}
	q *= float64(n) * float64(n+2)
	p := ChiSquareSurvival(q, float64(h))
	return TestResult{Statistic: q, PValue: p}, nil
}

// KolmogorovSmirnov2 runs the two-sample KS test: the null hypothesis is
// that xs and ys are drawn from the same distribution. The paper splits
// the measurement series in two halves and applies this test for the
// "identically distributed" half of i.i.d. A NaN on either side is
// ErrNaN.
func KolmogorovSmirnov2(xs, ys []float64) (TestResult, error) {
	n1, n2 := len(xs), len(ys)
	if n1 < 4 || n2 < 4 {
		return TestResult{}, fmt.Errorf("%w: KS needs >=4 samples per side, got %d and %d",
			ErrTooFewSamples, n1, n2)
	}
	a := append([]float64(nil), xs...)
	b := append([]float64(nil), ys...)
	sort.Float64s(a)
	sort.Float64s(b)
	// Sorting puts NaN first. A NaN compares false both ways, so the walk
	// below would never advance past it.
	if math.IsNaN(a[0]) || math.IsNaN(b[0]) {
		return TestResult{}, ErrNaN
	}
	var d float64
	i, j := 0, 0
	for i < n1 && j < n2 {
		// Advance through all samples equal to the current smallest value
		// in BOTH arrays before measuring: evaluating the CDF difference
		// mid-tie would inflate D for discrete (heavily tied) data such
		// as cycle counts.
		v1, v2 := a[i], b[j]
		if v1 <= v2 {
			for i < n1 && a[i] == v1 {
				i++
			}
		}
		if v2 <= v1 {
			for j < n2 && b[j] == v2 {
				j++
			}
		}
		diff := math.Abs(float64(i)/float64(n1) - float64(j)/float64(n2))
		if diff > d {
			d = diff
		}
	}
	ne := float64(n1) * float64(n2) / float64(n1+n2)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	return TestResult{Statistic: d, PValue: KolmogorovSurvival(lambda)}, nil
}

// SplitHalves splits xs into its first and second halves, the paper's
// arrangement for the two-sample KS test.
func SplitHalves(xs []float64) ([]float64, []float64) {
	mid := len(xs) / 2
	return xs[:mid], xs[mid:]
}

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF over xs.
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// CDF returns P(X <= x) under the empirical distribution.
func (e *ECDF) CDF(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.MaxFloat64))
	return float64(i) / float64(len(e.sorted))
}

// Exceedance returns P(X > x); the Y axis of the paper's Fig. 3.
func (e *ECDF) Exceedance(x float64) float64 { return 1 - e.CDF(x) }

// Len returns the sample size.
func (e *ECDF) Len() int { return len(e.sorted) }

// Sorted returns the underlying sorted sample (not a copy).
func (e *ECDF) Sorted() []float64 { return e.sorted }
