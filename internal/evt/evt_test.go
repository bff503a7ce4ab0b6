package evt

import (
	"math"
	"testing"
	"testing/quick"

	"dsr/internal/prng"
	"dsr/internal/stats"
)

// gumbelSample draws n values from Gumbel(mu, beta) by inversion.
func gumbelSample(src prng.Source, mu, beta float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		u := prng.Float64(src)
		for u == 0 {
			u = prng.Float64(src)
		}
		out[i] = mu - beta*math.Log(-math.Log(u))
	}
	return out
}

// expSample draws n values from Exp(rate) shifted by base.
func expSample(src prng.Source, base, rate float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		u := prng.Float64(src)
		for u == 0 {
			u = prng.Float64(src)
		}
		out[i] = base - math.Log(u)/rate
	}
	return out
}

func TestGumbelCDFQuantileRoundTrip(t *testing.T) {
	g := Gumbel{Mu: 100, Beta: 5}
	for _, p := range []float64{0.5, 0.1, 1e-3, 1e-9, 1e-15} {
		x := g.Quantile(p)
		if got := g.Exceedance(x); math.Abs(got-p)/p > 1e-6 {
			t.Errorf("exceedance(quantile(%g))=%g", p, got)
		}
	}
	// Quantiles decrease with increasing exceedance probability.
	if g.Quantile(1e-15) <= g.Quantile(1e-3) {
		t.Error("quantile not monotone in probability")
	}
}

func TestBlockMaxima(t *testing.T) {
	xs := []float64{1, 5, 2, 9, 3, 4, 7, 8, 6}
	bm := BlockMaxima(xs, 3)
	want := []float64{5, 9, 8}
	if len(bm) != 3 {
		t.Fatalf("bm=%v", bm)
	}
	for i := range want {
		if bm[i] != want[i] {
			t.Errorf("bm=%v, want %v", bm, want)
		}
	}
	// Partial trailing block dropped.
	if got := BlockMaxima(xs, 4); len(got) != 2 {
		t.Errorf("partial block not dropped: %v", got)
	}
}

func TestFitGumbelRecoversParameters(t *testing.T) {
	src := prng.NewMWC(11)
	sample := gumbelSample(src, 1000, 25, 5000)
	g, err := FitGumbel(sample)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Mu-1000) > 5 {
		t.Errorf("mu=%f, want ≈1000", g.Mu)
	}
	if math.Abs(g.Beta-25) > 2 {
		t.Errorf("beta=%f, want ≈25", g.Beta)
	}
}

func TestFitGumbelErrors(t *testing.T) {
	if _, err := FitGumbel([]float64{1, 2, 3}); err == nil {
		t.Error("tiny sample accepted")
	}
	flat := make([]float64, 50)
	for i := range flat {
		flat[i] = 9
	}
	if _, err := FitGumbel(flat); err != ErrDegenerate {
		t.Errorf("degenerate sample: err=%v", err)
	}
}

func TestPWCETUpperBoundsSample(t *testing.T) {
	// The pWCET estimate at 1e-15 must upper-bound the MOET for a
	// light-tailed sample — the tight-upper-bound property of Fig. 3.
	src := prng.NewMWC(21)
	times := gumbelSample(src, 300000, 800, 2000)
	p, err := Fit(times, 50)
	if err != nil {
		t.Fatal(err)
	}
	q := p.Quantile(1e-15)
	if q <= p.MOET {
		t.Errorf("pWCET@1e-15 (%f) does not exceed MOET (%f)", q, p.MOET)
	}
	// And the bound should be tight-ish for a genuine Gumbel sample: the
	// paper reports ~0.2% over MOET; allow a broad sanity margin here.
	if q > p.MOET*1.5 {
		t.Errorf("pWCET %f vs MOET %f: implausibly loose", q, p.MOET)
	}
}

func TestPWCETExceedanceQuantileConsistency(t *testing.T) {
	src := prng.NewMWC(31)
	times := gumbelSample(src, 100000, 300, 3000)
	p, err := Fit(times, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range []float64{1e-3, 1e-6, 1e-12, 1e-15} {
		x := p.Quantile(pr)
		got := p.Exceedance(x)
		if math.Abs(got-pr)/pr > 1e-3 {
			t.Errorf("exceedance(quantile(%g))=%g", pr, got)
		}
	}
}

func TestPWCETCurveMonotone(t *testing.T) {
	src := prng.NewMWC(41)
	times := gumbelSample(src, 100000, 300, 2000)
	p, err := Fit(times, 50)
	if err != nil {
		t.Fatal(err)
	}
	curve := p.Curve(DecadeProbs(16))
	if len(curve) != 16 {
		t.Fatalf("curve has %d points", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Time <= curve[i-1].Time {
			t.Fatal("pWCET curve not strictly increasing in time")
		}
		if curve[i].Exceedance >= curve[i-1].Exceedance {
			t.Fatal("curve probabilities not decreasing")
		}
	}
}

func TestDecadeProbs(t *testing.T) {
	ps := DecadeProbs(3)
	want := []float64{0.1, 0.01, 0.001}
	for i := range want {
		if math.Abs(ps[i]-want[i]) > 1e-15 {
			t.Errorf("ps=%v", ps)
		}
	}
}

func TestCVTestOnExponentialTail(t *testing.T) {
	src := prng.NewMWC(61)
	times := expSample(src, 500, 0.05, 4000)
	cv, band, ok, err := CVTest(times, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("exponential tail failed CV test: cv=%f band=%f", cv, band)
	}
}

func TestCVTestRejectsHeavyTail(t *testing.T) {
	// Pareto-ish tail (heavy): CV of excesses well above 1.
	src := prng.NewMWC(71)
	times := make([]float64, 4000)
	for i := range times {
		u := prng.Float64(src)
		for u == 0 {
			u = prng.Float64(src)
		}
		times[i] = 100 * math.Pow(u, -0.9) // very heavy tail
	}
	_, _, ok, err := CVTest(times, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("heavy tail passed the CV exponentiality test")
	}
}

func TestConverged(t *testing.T) {
	src := prng.NewMWC(81)
	times := gumbelSample(src, 100000, 200, 4000)
	ok, err := Converged(times, 50, 1e-12, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("large stationary sample reported unconverged")
	}
	if _, err := Converged(times[:100], 50, 1e-12, 0.05); err == nil {
		t.Error("tiny sample accepted for convergence check")
	}
}

// Property: for any fitted model, Quantile is the inverse of Exceedance
// wherever both are defined.
func TestQuantileInverseProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := prng.NewMWC(seed)
		times := gumbelSample(src, 1000, 10+prng.Float64(src)*100, 1000)
		p, err := Fit(times, 25)
		if err != nil {
			return true
		}
		for _, pr := range []float64{1e-2, 1e-7, 1e-13} {
			x := p.Quantile(pr)
			if e := p.Exceedance(x); math.Abs(e-pr)/pr > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// The Gumbel fit must upper-bound the empirical tail of its own sample
// at probabilities observable in the sample (a coarse goodness check).
func TestFitMatchesEmpiricalTail(t *testing.T) {
	src := prng.NewMWC(91)
	times := gumbelSample(src, 50000, 500, 5000)
	p, err := Fit(times, 50)
	if err != nil {
		t.Fatal(err)
	}
	e := stats.NewECDF(times)
	// At the empirical 99th percentile, model exceedance should be within
	// a factor of ~3 of the empirical 1%.
	x99 := stats.Quantile(times, 0.99)
	me := p.Exceedance(x99)
	ee := e.Exceedance(x99)
	if me < ee/3 || me > ee*3 {
		t.Errorf("model exceedance %g vs empirical %g at p99", me, ee)
	}
}

func TestFitGumbelPWMRecoversParameters(t *testing.T) {
	src := prng.NewMWC(111)
	sample := gumbelSample(src, 2000, 40, 5000)
	g, err := FitGumbelPWM(sample)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Mu-2000) > 8 {
		t.Errorf("PWM mu=%f, want ≈2000", g.Mu)
	}
	if math.Abs(g.Beta-40) > 3 {
		t.Errorf("PWM beta=%f, want ≈40", g.Beta)
	}
}

func TestPWMAndMomentsAgree(t *testing.T) {
	// On genuine Gumbel data the two estimators must agree closely — the
	// robustness cross-check MBPTA tooling applies.
	src := prng.NewMWC(121)
	sample := gumbelSample(src, 500, 12, 3000)
	m, err := FitGumbel(sample)
	if err != nil {
		t.Fatal(err)
	}
	p, err := FitGumbelPWM(sample)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Mu-p.Mu) > 2 {
		t.Errorf("mu disagreement: moments %f vs PWM %f", m.Mu, p.Mu)
	}
	if math.Abs(m.Beta-p.Beta)/m.Beta > 0.15 {
		t.Errorf("beta disagreement: moments %f vs PWM %f", m.Beta, p.Beta)
	}
}

func TestPWMLessSensitiveToOutlier(t *testing.T) {
	src := prng.NewMWC(131)
	sample := gumbelSample(src, 1000, 10, 500)
	m0, _ := FitGumbel(sample)
	p0, _ := FitGumbelPWM(sample)
	// Inject one extreme observation.
	polluted := append(append([]float64(nil), sample...), 1000+40*10)
	m1, _ := FitGumbel(polluted)
	p1, _ := FitGumbelPWM(polluted)
	if math.Abs(p1.Beta-p0.Beta) >= math.Abs(m1.Beta-m0.Beta) {
		t.Errorf("PWM (%f->%f) not more robust than moments (%f->%f)",
			p0.Beta, p1.Beta, m0.Beta, m1.Beta)
	}
}

func TestPWMErrors(t *testing.T) {
	if _, err := FitGumbelPWM([]float64{1, 2}); err == nil {
		t.Error("tiny sample accepted")
	}
	desc := make([]float64, 50)
	for i := range desc {
		desc[i] = 5
	}
	if _, err := FitGumbelPWM(desc); err != ErrDegenerate {
		t.Errorf("flat sample: %v", err)
	}
}
