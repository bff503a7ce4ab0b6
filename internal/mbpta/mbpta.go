// Package mbpta orchestrates Measurement-Based Probabilistic Timing
// Analysis as integrated in the paper's RVS tool (§V–VI): gate the
// measured execution times through the i.i.d. tests (Ljung-Box for
// independence, two-sample Kolmogorov-Smirnov on the split sample for
// identical distribution, both at the 5% significance level), fit the
// EVT model, and report the pWCET curve, the estimate at the target
// exceedance probability, and the comparison against the industrial
// practice of adding an engineering margin to the maximum observed
// execution time (MOET).
package mbpta

import (
	"errors"
	"fmt"
	"math"

	"dsr/internal/evt"
	"dsr/internal/stats"
	"dsr/internal/telemetry"
)

// Options configures an analysis. The defaults reproduce the paper's
// choices.
type Options struct {
	// Alpha is the significance level of the i.i.d. tests (paper: 0.05).
	Alpha float64
	// LjungBoxLags is the number of autocorrelation lags tested.
	LjungBoxLags int
	// BlockSize is the EVT block-maxima size.
	BlockSize int
	// TargetExceedance is the probability at which the pWCET estimate is
	// quoted (paper: 1e-15).
	TargetExceedance float64
	// CurveDecades is how many decades of the pWCET curve to sample.
	CurveDecades int
	// TailQuantile is the threshold quantile of the CV exponentiality
	// cross-check.
	TailQuantile float64
	// ConvergenceTol is the relative tolerance of the convergence check.
	ConvergenceTol float64

	// Events, when non-nil, receives the analysis diagnostics (i.i.d.
	// verdicts, EVT fit parameters, convergence) as structured events on
	// the "mbpta" track; a nil log no-ops.
	Events *telemetry.EventLog
}

// mbptaTrack is the event-log track of analysis events.
const mbptaTrack = "mbpta"

// DefaultOptions returns the paper's analysis configuration.
func DefaultOptions() Options {
	return Options{
		Alpha:            0.05,
		LjungBoxLags:     20,
		BlockSize:        50,
		TargetExceedance: 1e-15,
		CurveDecades:     16,
		TailQuantile:     0.9,
		ConvergenceTol:   0.05,
	}
}

// ErrNotIID is returned by Analyse when the i.i.d. gate rejects the
// sample: EVT must not be applied (the paper's platform without
// randomisation is the canonical example).
var ErrNotIID = errors.New("mbpta: execution times failed the i.i.d. tests; EVT not applicable")

// IIDReport holds the outcome of the i.i.d. gate.
type IIDReport struct {
	LjungBox stats.TestResult
	KS       stats.TestResult
	Alpha    float64
}

// Pass reports whether both tests pass at the configured significance:
// the paper's criterion ("i.i.d. is rejected only if the value for any
// of the tests is lower than 0.05").
func (r IIDReport) Pass() bool {
	return r.LjungBox.Passed(r.Alpha) && r.KS.Passed(r.Alpha)
}

// CheckIID runs the independence and identical-distribution tests. A
// non-finite sample is an error naming its index.
func CheckIID(times []float64, opts Options) (IIDReport, error) {
	if err := checkFinite(times); err != nil {
		return IIDReport{}, err
	}
	lb, err := stats.LjungBox(times, opts.LjungBoxLags)
	if err != nil {
		return IIDReport{}, fmt.Errorf("mbpta: %w", err)
	}
	a, b := stats.SplitHalves(times)
	ks, err := stats.KolmogorovSmirnov2(a, b)
	if err != nil {
		return IIDReport{}, fmt.Errorf("mbpta: %w", err)
	}
	rep := IIDReport{LjungBox: lb, KS: ks, Alpha: opts.Alpha}
	verdict := "rejected"
	if rep.Pass() {
		verdict = "passed"
	}
	opts.Events.Emit(mbptaTrack, "mbpta.iid", telemetry.PhaseInstant,
		telemetry.Int("n", len(times)),
		telemetry.Float("ljung_box_p", lb.PValue),
		telemetry.Float("ks_p", ks.PValue),
		telemetry.Float("alpha", opts.Alpha),
		telemetry.String("verdict", verdict))
	return rep, nil
}

// ErrNonFinite is returned (wrapped, with the sample's index) by
// CheckIID and Analyse for a NaN or infinite execution time.
var ErrNonFinite = errors.New("mbpta: non-finite execution time")

// checkFinite returns ErrNonFinite for the first NaN or ±Inf in times.
func checkFinite(times []float64) error {
	for i, x := range times {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%w: sample %d is %v", ErrNonFinite, i, x)
		}
	}
	return nil
}

// Report is a complete MBPTA analysis result.
type Report struct {
	N                int
	Min, Mean, MOET  float64
	IID              IIDReport
	Fit              *evt.PWCET
	Curve            []evt.CurvePoint
	TargetExceedance float64
	// PWCET is the estimate at TargetExceedance.
	PWCET float64
	// PWCETAlt is the cross-estimate from the probability-weighted-
	// moments fit; agreement with PWCET is a robustness check.
	PWCETAlt float64
	// CV cross-check of tail exponentiality.
	CV     float64
	CVBand float64
	CVPass bool
	// Converged reports the sample-size sufficiency check.
	Converged bool
}

// Analyse runs the full MBPTA pipeline. It returns ErrNotIID (wrapped)
// if the i.i.d. gate rejects, and ErrNonFinite (wrapped) for a NaN or
// infinite sample; use CheckIID alone to inspect a rejected sample.
func Analyse(times []float64, opts Options) (*Report, error) {
	if opts.BlockSize <= 0 {
		return nil, fmt.Errorf("mbpta: non-positive block size")
	}
	// Divide, not multiply: 4*BlockSize wraps for a block size >= 2^61.
	if len(times)/4 < opts.BlockSize {
		return nil, fmt.Errorf("mbpta: need at least 4 blocks of %d runs, got %d runs",
			opts.BlockSize, len(times))
	}
	maxima := evt.BlockMaxima(times, opts.BlockSize)
	iid, err := CheckIID(times, opts)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		N:                len(times),
		Min:              stats.Min(times),
		Mean:             stats.Mean(times),
		MOET:             stats.Max(times),
		IID:              iid,
		TargetExceedance: opts.TargetExceedance,
	}
	if !iid.Pass() {
		return rep, fmt.Errorf("%w (Ljung-Box p=%.4f, KS p=%.4f)",
			ErrNotIID, iid.LjungBox.PValue, iid.KS.PValue)
	}
	fit, err := evt.FitFromMaxima(maxima, opts.BlockSize, len(times), rep.MOET)
	if err != nil {
		return rep, fmt.Errorf("mbpta: %w", err)
	}
	rep.Fit = fit
	rep.Curve = fit.Curve(evt.DecadeProbs(opts.CurveDecades))
	rep.PWCET = fit.Quantile(opts.TargetExceedance)
	opts.Events.Emit(mbptaTrack, "mbpta.fit", telemetry.PhaseInstant,
		telemetry.Int("n", rep.N),
		telemetry.Int("block", opts.BlockSize),
		telemetry.Float("mu", fit.Model.Mu),
		telemetry.Float("beta", fit.Model.Beta),
		telemetry.Float("moet", rep.MOET),
		telemetry.Float("pwcet", rep.PWCET),
		telemetry.Float("exceedance", opts.TargetExceedance))
	if pwm, err := evt.FitGumbelPWM(maxima); err == nil {
		alt := evt.PWCET{Model: pwm, Block: opts.BlockSize, N: len(times), MOET: rep.MOET}
		rep.PWCETAlt = alt.Quantile(opts.TargetExceedance)
	}

	if cv, band, ok, err := evt.CVTest(times, opts.TailQuantile); err == nil {
		rep.CV, rep.CVBand, rep.CVPass = cv, band, ok
	}
	if conv, err := evt.Converged(times, opts.BlockSize, opts.TargetExceedance, opts.ConvergenceTol); err == nil {
		rep.Converged = conv
	}
	converged := "no"
	if rep.Converged {
		converged = "yes"
	}
	cvPass := "fail"
	if rep.CVPass {
		cvPass = "pass"
	}
	opts.Events.Emit(mbptaTrack, "mbpta.diagnostics", telemetry.PhaseInstant,
		telemetry.Float("pwcet_alt", rep.PWCETAlt),
		telemetry.Float("cv", rep.CV),
		telemetry.String("cv_check", cvPass),
		telemetry.String("converged", converged))
	return rep, nil
}

// MarginComparison quantifies the paper's headline result: the pWCET
// estimate versus the industrial practice of MOET + engineering margin
// on the non-randomised binary (§VI, "current practice").
type MarginComparison struct {
	// MOETRef is the reference MOET (non-randomised binary).
	MOETRef float64
	// Margin is the engineering margin (paper: 0.20).
	Margin float64
	// Budget is MOETRef * (1 + Margin).
	Budget float64
	// PWCET is the MBPTA estimate being compared.
	PWCET float64
	// Gain is how much tighter the pWCET is than the budget:
	// 1 - PWCET/Budget (paper: 19.6%).
	Gain float64
	// OverMOET is how far the pWCET sits above the randomised MOET:
	// PWCET/MOETRand - 1 (paper: 0.2%).
	OverMOET float64
}

// CompareWithMargin builds the comparison between rep's pWCET and the
// industrial margin applied to moetRef (the non-randomised MOET).
func CompareWithMargin(rep *Report, moetRef, margin float64) MarginComparison {
	budget := moetRef * (1 + margin)
	mc := MarginComparison{
		MOETRef: moetRef,
		Margin:  margin,
		Budget:  budget,
		PWCET:   rep.PWCET,
	}
	if budget > 0 {
		mc.Gain = 1 - rep.PWCET/budget
	}
	if rep.MOET > 0 {
		mc.OverMOET = rep.PWCET/rep.MOET - 1
	}
	return mc
}
