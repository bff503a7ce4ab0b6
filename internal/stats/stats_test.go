package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"dsr/internal/prng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDescriptive(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Errorf("mean=%f", Mean(xs))
	}
	if !almost(Variance(xs), 32.0/7, 1e-12) {
		t.Errorf("variance=%f, want %f", Variance(xs), 32.0/7)
	}
	if Min(xs) != 2 || Max(xs) != 9 {
		t.Error("min/max")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almost(got, c.want, 1e-12) {
			t.Errorf("Quantile(%f)=%f, want %f", c.q, got, c.want)
		}
	}
}

func TestAutocorrelationOfPeriodicSeries(t *testing.T) {
	// Alternating series: lag-1 autocorrelation ≈ -1, lag-2 ≈ +1.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i % 2)
	}
	if r := Autocorrelation(xs, 1); r > -0.9 {
		t.Errorf("lag-1 r=%f, want ≈ -1", r)
	}
	if r := Autocorrelation(xs, 2); r < 0.9 {
		t.Errorf("lag-2 r=%f, want ≈ +1", r)
	}
}

func TestLjungBoxOnIndependentData(t *testing.T) {
	src := prng.NewMWC(42)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = prng.Float64(src)
	}
	res, err := LjungBox(xs, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed(0.05) {
		t.Errorf("independent data rejected: p=%f", res.PValue)
	}
}

func TestLjungBoxOnAutocorrelatedData(t *testing.T) {
	// AR(1) with strong dependence must be rejected.
	src := prng.NewMWC(43)
	xs := make([]float64, 1000)
	x := 0.0
	for i := range xs {
		x = 0.9*x + prng.Float64(src)
		xs[i] = x
	}
	res, err := LjungBox(xs, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed(0.05) {
		t.Errorf("AR(1) data passed: p=%f", res.PValue)
	}
}

func TestLjungBoxConstantSeriesPasses(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 7
	}
	res, err := LjungBox(xs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed(0.05) {
		t.Error("constant series rejected")
	}
}

func TestLjungBoxErrors(t *testing.T) {
	if _, err := LjungBox([]float64{1, 2, 3}, 10); err == nil {
		t.Error("too-short series accepted")
	}
	if _, err := LjungBox(make([]float64, 100), 0); err == nil {
		t.Error("h=0 accepted")
	}
}

func TestKSSameDistributionPasses(t *testing.T) {
	src := prng.NewMWC(7)
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = prng.Float64(src)
		ys[i] = prng.Float64(src)
	}
	res, err := KolmogorovSmirnov2(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed(0.05) {
		t.Errorf("same-distribution samples rejected: p=%f", res.PValue)
	}
}

func TestKSDifferentDistributionsRejected(t *testing.T) {
	src := prng.NewMWC(8)
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = prng.Float64(src)
		ys[i] = prng.Float64(src) + 0.5 // shifted
	}
	res, err := KolmogorovSmirnov2(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed(0.05) {
		t.Errorf("shifted samples passed: p=%f", res.PValue)
	}
}

func TestKSErrors(t *testing.T) {
	if _, err := KolmogorovSmirnov2([]float64{1}, []float64{1, 2, 3, 4}); err == nil {
		t.Error("tiny sample accepted")
	}
}

// TestKSRejectsNaN: a NaN on either side is an error, not an endless
// walk over the sorted samples.
func TestKSRejectsNaN(t *testing.T) {
	clean := []float64{1, 2, 3, 4, 5}
	for pos := range clean {
		bad := append([]float64(nil), clean...)
		bad[pos] = math.NaN()
		if _, err := KolmogorovSmirnov2(bad, clean); !errors.Is(err, ErrNaN) {
			t.Errorf("NaN at %d, left: err=%v, want ErrNaN", pos, err)
		}
		if _, err := KolmogorovSmirnov2(clean, bad); !errors.Is(err, ErrNaN) {
			t.Errorf("NaN at %d, right: err=%v, want ErrNaN", pos, err)
		}
	}
}

func TestSplitHalves(t *testing.T) {
	a, b := SplitHalves([]float64{1, 2, 3, 4, 5})
	if len(a) != 2 || len(b) != 3 {
		t.Errorf("split=%v %v", a, b)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, cdf float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {4, 1},
	}
	for _, c := range cases {
		if got := e.CDF(c.x); !almost(got, c.cdf, 1e-12) {
			t.Errorf("CDF(%f)=%f, want %f", c.x, got, c.cdf)
		}
		if got := e.Exceedance(c.x); !almost(got, 1-c.cdf, 1e-12) {
			t.Errorf("Exceedance(%f)=%f", c.x, got)
		}
	}
	if e.Len() != 4 {
		t.Error("Len")
	}
}

func TestChiSquareSurvivalKnownValues(t *testing.T) {
	// Median of chi-square(k) ≈ k(1-2/(9k))^3; and classic table values.
	cases := []struct{ x, k, want, tol float64 }{
		{0, 5, 1, 1e-12},
		{4.351, 5, 0.5, 0.01},     // median chi2(5) ≈ 4.351
		{11.07, 5, 0.05, 0.002},   // 95th percentile chi2(5)
		{31.41, 20, 0.05, 0.002},  // 95th percentile chi2(20)
		{37.57, 20, 0.01, 0.001},  // 99th percentile chi2(20)
		{10.83, 1, 0.001, 0.0005}, // 99.9th percentile chi2(1)
	}
	for _, c := range cases {
		if got := ChiSquareSurvival(c.x, c.k); !almost(got, c.want, c.tol) {
			t.Errorf("ChiSquareSurvival(%f,%f)=%f, want %f", c.x, c.k, got, c.want)
		}
	}
}

func TestRegularizedGammaPProperties(t *testing.T) {
	// Monotone in x, 0 at 0, → 1 for large x.
	f := func(raw uint8) bool {
		a := float64(raw%40)/4 + 0.25
		prev := 0.0
		for x := 0.0; x < 30; x += 0.5 {
			p := RegularizedGammaP(a, x)
			if p < prev-1e-9 || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return RegularizedGammaP(a, 200) > 0.999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	// P(1,x) = 1 - e^-x exactly.
	for _, x := range []float64{0.1, 1, 2, 5} {
		if got := RegularizedGammaP(1, x); !almost(got, 1-math.Exp(-x), 1e-10) {
			t.Errorf("P(1,%f)=%f", x, got)
		}
	}
}

func TestKolmogorovSurvivalKnownValues(t *testing.T) {
	// Q_KS(1.36) ≈ 0.049 (the classic 5% critical value).
	if got := KolmogorovSurvival(1.36); !almost(got, 0.049, 0.002) {
		t.Errorf("Q_KS(1.36)=%f, want ≈0.049", got)
	}
	if got := KolmogorovSurvival(0); got != 1 {
		t.Errorf("Q_KS(0)=%f, want 1", got)
	}
	if got := KolmogorovSurvival(3); got > 1e-6 {
		t.Errorf("Q_KS(3)=%f, want ≈0", got)
	}
	// Monotone decreasing.
	prev := 1.0
	for l := 0.1; l < 3; l += 0.1 {
		p := KolmogorovSurvival(l)
		if p > prev+1e-12 {
			t.Fatalf("Q_KS not monotone at %f", l)
		}
		prev = p
	}
}

// Property: the KS test is symmetric in its arguments.
func TestKSSymmetry(t *testing.T) {
	src := prng.NewMWC(3)
	xs := make([]float64, 100)
	ys := make([]float64, 150)
	for i := range xs {
		xs[i] = prng.Float64(src)
	}
	for i := range ys {
		ys[i] = prng.Float64(src) * 1.2
	}
	r1, err1 := KolmogorovSmirnov2(xs, ys)
	r2, err2 := KolmogorovSmirnov2(ys, xs)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !almost(r1.Statistic, r2.Statistic, 1e-12) || !almost(r1.PValue, r2.PValue, 1e-12) {
		t.Error("KS not symmetric")
	}
}

// Property: Ljung-Box p-values on independent uniform data are roughly
// uniform — specifically, they should not concentrate near 0.
func TestLjungBoxFalsePositiveRate(t *testing.T) {
	src := prng.NewMWC(99)
	rejections := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		xs := make([]float64, 200)
		for i := range xs {
			xs[i] = prng.Float64(src)
		}
		res, err := LjungBox(xs, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Passed(0.05) {
			rejections++
		}
	}
	// Expected ~5% false positives; allow up to 12%.
	if rejections > trials*12/100 {
		t.Errorf("false positive rate %d/%d too high", rejections, trials)
	}
}
