// Package evt implements the Extreme Value Theory machinery of MBPTA
// (Cucu-Grosjean et al., ECRTS 2012; Kotz & Nadarajah): grouping the
// measured execution times into block maxima, fitting a Gumbel model (the
// light-tailed EVT family MBPTA targets), and projecting the fit to the
// very low exceedance probabilities (e.g. 10^-15) at which pWCET
// estimates are quoted. The coefficient-of-variation test checks that
// the excesses over a high threshold are exponential, the tail shape
// the Gumbel model assumes.
package evt

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dsr/internal/stats"
)

// EulerGamma is the Euler-Mascheroni constant, used by the
// method-of-moments Gumbel fit.
const EulerGamma = 0.5772156649015329

// ErrDegenerate is returned when the sample has no variability to fit.
var ErrDegenerate = errors.New("evt: degenerate sample (zero variance)")

// Gumbel is a Gumbel (EV type I) distribution for maxima.
type Gumbel struct {
	Mu   float64 // location
	Beta float64 // scale (>0)
}

// CDF returns P(X <= x).
func (g Gumbel) CDF(x float64) float64 {
	return math.Exp(-math.Exp(-(x - g.Mu) / g.Beta))
}

// Exceedance returns P(X > x), computed as -expm1(-exp(-(x-mu)/beta)) so
// that the deep tail (10^-15 and beyond) keeps full precision — plain
// 1-CDF(x) loses the tail to cancellation.
func (g Gumbel) Exceedance(x float64) float64 {
	return -math.Expm1(-math.Exp(-(x - g.Mu) / g.Beta))
}

// Quantile returns the x with P(X > x) = p.
func (g Gumbel) Quantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("evt: Gumbel quantile needs 0<p<1, got %g", p))
	}
	// log1p keeps precision for the deep tail (p ~ 1e-15).
	return g.Mu - g.Beta*math.Log(-math.Log1p(-p))
}

// BlockMaxima partitions xs into consecutive blocks of the given size and
// returns each block's maximum. A trailing partial block is dropped, as
// is standard.
func BlockMaxima(xs []float64, block int) []float64 {
	if block <= 0 {
		panic("evt: non-positive block size")
	}
	n := len(xs) / block
	out := make([]float64, 0, n)
	for b := 0; b < n; b++ {
		out = append(out, stats.Max(xs[b*block:(b+1)*block]))
	}
	return out
}

// FitGumbel fits a Gumbel distribution to maxima by the method of
// moments: beta = s*sqrt(6)/pi, mu = mean - gamma*beta. Simple, robust,
// and the standard choice in MBPTA tooling.
func FitGumbel(maxima []float64) (Gumbel, error) {
	if len(maxima) < 10 {
		return Gumbel{}, fmt.Errorf("evt: need >=10 block maxima, got %d", len(maxima))
	}
	s := stats.StdDev(maxima)
	if s == 0 {
		return Gumbel{}, ErrDegenerate
	}
	beta := s * math.Sqrt(6) / math.Pi
	mu := stats.Mean(maxima) - EulerGamma*beta
	return Gumbel{Mu: mu, Beta: beta}, nil
}

// FitGumbelPWM fits a Gumbel by probability-weighted moments
// (Greenwood/Hosking), the estimator most MBPTA implementations prefer:
// beta = (2*b1 - b0)/ln 2, mu = b0 - gamma*beta, where b0 is the sample
// mean and b1 = Σ (i/(n-1)) x_(i) / n over the ascending order
// statistics. PWM is less sensitive to the largest observation than the
// moment fit; the two estimators agreeing is a useful robustness check.
func FitGumbelPWM(maxima []float64) (Gumbel, error) {
	n := len(maxima)
	if n < 10 {
		return Gumbel{}, fmt.Errorf("evt: need >=10 block maxima, got %d", n)
	}
	sorted := append([]float64(nil), maxima...)
	sort.Float64s(sorted)
	var b0, b1 float64
	for i, x := range sorted {
		b0 += x
		b1 += float64(i) / float64(n-1) * x
	}
	b0 /= float64(n)
	b1 /= float64(n)
	beta := (2*b1 - b0) / math.Ln2
	if beta <= 0 {
		return Gumbel{}, ErrDegenerate
	}
	return Gumbel{Mu: b0 - EulerGamma*beta, Beta: beta}, nil
}

// PWCET is a fitted pWCET model: a Gumbel over block maxima, projected
// back to per-run exceedance probabilities.
type PWCET struct {
	Model Gumbel
	Block int // block size the model was fitted over
	N     int // number of execution times used
	MOET  float64
}

// Fit builds a PWCET model from raw execution times.
func Fit(times []float64, block int) (*PWCET, error) {
	return FitFromMaxima(BlockMaxima(times, block), block, len(times), stats.Max(times))
}

// FitFromMaxima builds a PWCET model from precomputed block maxima —
// the streaming-ingestion path, where a campaign merge maintains the
// maxima incrementally instead of re-deriving them from the full
// series. n is the number of raw execution times the maxima summarise
// and moet their maximum; the result is identical to Fit on the raw
// series.
func FitFromMaxima(maxima []float64, block, n int, moet float64) (*PWCET, error) {
	g, err := FitGumbel(maxima)
	if err != nil {
		return nil, err
	}
	return &PWCET{Model: g, Block: block, N: n, MOET: moet}, nil
}

// Exceedance returns the per-run probability of exceeding x: the fitted
// model describes the max of Block runs, so
// p_run(x) = 1 - CDF_max(x)^(1/Block) = -expm1(log(CDF_max(x))/Block),
// with log(CDF_max(x)) = -exp(-(x-mu)/beta) evaluated directly to keep
// the deep tail precise.
func (p *PWCET) Exceedance(x float64) float64 {
	logCDF := -math.Exp(-(x - p.Model.Mu) / p.Model.Beta)
	return -math.Expm1(logCDF / float64(p.Block))
}

// Quantile returns the execution time whose per-run exceedance
// probability is pr: the pWCET estimate at pr (e.g. pr = 1e-15).
func (p *PWCET) Quantile(pr float64) float64 {
	if pr <= 0 || pr >= 1 {
		panic(fmt.Sprintf("evt: pWCET quantile needs 0<pr<1, got %g", pr))
	}
	// Per-run exceedance pr ⇔ log CDF_max = Block*log1p(-pr); solved for
	// x without forming 1-pr (which would wipe out the deep tail).
	logCDFMax := float64(p.Block) * math.Log1p(-pr)
	return p.Model.Mu - p.Model.Beta*math.Log(-logCDFMax)
}

// CurvePoint is one point of the pWCET curve of Fig. 3.
type CurvePoint struct {
	Time       float64
	Exceedance float64
}

// Curve samples the pWCET curve at the given exceedance probabilities
// (conventionally 10^-1 ... 10^-18), ready for plotting against the
// measured-execution-time ECDF.
func (p *PWCET) Curve(probs []float64) []CurvePoint {
	out := make([]CurvePoint, 0, len(probs))
	for _, pr := range probs {
		out = append(out, CurvePoint{Time: p.Quantile(pr), Exceedance: pr})
	}
	return out
}

// DecadeProbs returns {10^-1, ..., 10^-n}.
func DecadeProbs(n int) []float64 {
	out := make([]float64, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, math.Pow(10, -float64(i)))
	}
	return out
}

// CVTest checks the exponentiality of the excesses over the q-quantile
// threshold via the coefficient of variation: for an exponential tail
// CV ≈ 1, with an asymptotic 95% band 1 ± 1.96/sqrt(n). Returns the CV,
// the band half-width, and whether the test passes.
func CVTest(times []float64, q float64) (cv, band float64, ok bool, err error) {
	u := stats.Quantile(times, q)
	var excesses []float64
	for _, t := range times {
		if t > u {
			excesses = append(excesses, t-u)
		}
	}
	if len(excesses) < 10 {
		return 0, 0, false, fmt.Errorf("evt: CV test needs >=10 excesses, got %d", len(excesses))
	}
	m := stats.Mean(excesses)
	if m == 0 {
		return 0, 0, false, ErrDegenerate
	}
	cv = stats.StdDev(excesses) / m
	band = 1.96 / math.Sqrt(float64(len(excesses)))
	return cv, band, math.Abs(cv-1) <= band, nil
}

// Converged implements the MBPTA convergence criterion: the pWCET
// quantile at probe must move by less than tol (relative) when going
// from the first half of the sample to the full sample. It reports
// whether more runs are needed.
func Converged(times []float64, block int, probe, tol float64) (bool, error) {
	if len(times) < 4*block {
		return false, fmt.Errorf("evt: need at least %d samples to assess convergence", 4*block)
	}
	half, err := Fit(times[:len(times)/2], block)
	if err != nil {
		return false, err
	}
	full, err := Fit(times, block)
	if err != nil {
		return false, err
	}
	a, b := half.Quantile(probe), full.Quantile(probe)
	if b == 0 {
		return false, ErrDegenerate
	}
	return math.Abs(a-b)/math.Abs(b) < tol, nil
}
