package evt

import (
	"fmt"
	"math"
	"testing"

	"dsr/internal/prng"
)

// Synthetic-distribution property tests: drive the EVT estimators with
// samples drawn from known GEV/GPD family members and check the fitted
// parameters land within tolerance. These harden the statistical layer
// the pWCET projection rests on — an estimator that silently drifts a
// few percent moves a 1e-15 quantile by whole MOET margins.

// gevSample draws n values from GEV(mu, beta, xi) by inversion:
// xi = 0 is the Gumbel member, xi > 0 Fréchet-like (heavy tail),
// xi < 0 Weibull-like (bounded tail).
func gevSample(src prng.Source, mu, beta, xi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		u := prng.Float64(src)
		for u == 0 || u == 1 {
			u = prng.Float64(src)
		}
		w := -math.Log(u)
		if xi == 0 {
			out[i] = mu - beta*math.Log(w)
		} else {
			out[i] = mu + beta*(math.Pow(w, -xi)-1)/xi
		}
	}
	return out
}

// gpdSample draws n excesses from GPD(beta, xi) over threshold u by
// inversion; xi = 0 is the exponential member with rate 1/beta.
func gpdSample(src prng.Source, u, beta, xi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		p := prng.Float64(src)
		for p == 0 || p == 1 {
			p = prng.Float64(src)
		}
		if xi == 0 {
			out[i] = u - beta*math.Log(1-p)
		} else {
			out[i] = u + beta*(math.Pow(1-p, -xi)-1)/xi
		}
	}
	return out
}

// TestGumbelEstimatorSweep fits both Gumbel estimators over a grid of
// true parameters and checks recovery within 5% of scale. Table-driven
// across locations, scales and both estimators.
func TestGumbelEstimatorSweep(t *testing.T) {
	const n = 4000
	fits := []struct {
		name string
		fit  func([]float64) (Gumbel, error)
	}{
		{"moments", FitGumbel},
		{"pwm", FitGumbelPWM},
	}
	var seed uint64 = 1
	for _, mu := range []float64{0, 300, 250000} {
		for _, beta := range []float64{1, 40, 900} {
			seed++
			sample := gevSample(prng.NewMWC(seed), mu, beta, 0, n)
			for _, f := range fits {
				t.Run(fmt.Sprintf("%s/mu=%g/beta=%g", f.name, mu, beta), func(t *testing.T) {
					g, err := f.fit(sample)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(g.Mu-mu) > 0.05*beta {
						t.Errorf("mu = %g, want %g ± %g", g.Mu, mu, 0.05*beta)
					}
					if math.Abs(g.Beta-beta)/beta > 0.05 {
						t.Errorf("beta = %g, want %g ± 5%%", g.Beta, beta)
					}
				})
			}
		}
	}
}

// TestBlockMaximaLocationShift checks max-stability, the property the
// per-run→block projection in PWCET relies on: the max of k Gumbel
// variables is Gumbel again with mu' = mu + beta*ln k and the same
// beta. Fitting block maxima of a Gumbel sample must recover exactly
// that shifted location.
func TestBlockMaximaLocationShift(t *testing.T) {
	const (
		mu, beta = 1000.0, 25.0
		block    = 50
		n        = block * 2000
	)
	sample := gevSample(prng.NewMWC(7), mu, beta, 0, n)
	g, err := FitGumbel(BlockMaxima(sample, block))
	if err != nil {
		t.Fatal(err)
	}
	wantMu := mu + beta*math.Log(block)
	if math.Abs(g.Mu-wantMu) > 0.1*beta {
		t.Errorf("block-maxima mu = %g, want %g (mu + beta ln k)", g.Mu, wantMu)
	}
	if math.Abs(g.Beta-beta)/beta > 0.1 {
		t.Errorf("block-maxima beta = %g, want %g", g.Beta, beta)
	}
}

// TestCVTestShapeDiscrimination checks the CV exponentiality test
// sorts the GPD family by shape: the xi=0 member passes, heavy tails
// (xi > 0, CV > 1) and bounded tails (xi < 0, CV < 1) fail once xi is
// far enough from zero.
func TestCVTestShapeDiscrimination(t *testing.T) {
	const n = 8000
	cases := []struct {
		xi   float64
		pass bool
	}{
		{-0.5, false}, // bounded tail, CV < 1
		{0, true},     // exponential
		{0.4, false},  // heavy tail, CV > 1
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("xi=%g", c.xi), func(t *testing.T) {
			src := prng.NewMWC(uint64(900 + int(c.xi*10)))
			sample := make([]float64, 0, n)
			for i := 0; i < n*9/10; i++ {
				sample = append(sample, 50*prng.Float64(src))
			}
			sample = append(sample, gpdSample(src, 50, 10, c.xi, n/10)...)
			cv, band, ok, err := CVTest(sample, 0.9)
			if err != nil {
				t.Fatal(err)
			}
			if ok != c.pass {
				t.Errorf("xi=%g: CV=%.3f band=%.3f pass=%v, want %v", c.xi, cv, band, ok, c.pass)
			}
			if c.xi > 0 && cv <= 1 {
				t.Errorf("heavy tail gave CV %.3f <= 1", cv)
			}
			if c.xi < 0 && cv >= 1 {
				t.Errorf("bounded tail gave CV %.3f >= 1", cv)
			}
		})
	}
}

// TestGumbelFitOnHeavyTailUnderestimates documents why the i.i.d. gate
// and CV cross-check matter: a Gumbel fit forced onto Fréchet-like
// (xi > 0) maxima systematically underestimates deep-tail quantiles,
// i.e. the fitted model's 1e-9 quantile sits below the true one.
func TestGumbelFitOnHeavyTailUnderestimates(t *testing.T) {
	const (
		xi = 0.3
		n  = 5000
	)
	sample := gevSample(prng.NewMWC(11), 1000, 25, xi, n)
	g, err := FitGumbel(sample)
	if err != nil {
		t.Fatal(err)
	}
	// True GEV quantile at exceedance p.
	trueQ := func(p float64) float64 {
		w := -math.Log1p(-p)
		return 1000 + 25*(math.Pow(w, -xi)-1)/xi
	}
	p := 1e-9
	if got, want := g.Quantile(p), trueQ(p); got >= want {
		t.Errorf("Gumbel fit on heavy tail gave %g >= true %g; expected underestimate", got, want)
	}
}

// TestFitFromMaximaMatchesFit checks the streaming-ingestion entry
// point is exactly the batch fit.
func TestFitFromMaximaMatchesFit(t *testing.T) {
	sample := gevSample(prng.NewMWC(21), 500, 12, 0, 2000)
	const block = 40
	batch, err := Fit(sample, block)
	if err != nil {
		t.Fatal(err)
	}
	var moet float64
	for _, x := range sample {
		if x > moet {
			moet = x
		}
	}
	stream, err := FitFromMaxima(BlockMaxima(sample, block), block, len(sample), moet)
	if err != nil {
		t.Fatal(err)
	}
	if *batch != *stream {
		t.Errorf("FitFromMaxima %+v != Fit %+v", *stream, *batch)
	}
}
