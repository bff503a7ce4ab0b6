package mbpta

import (
	"errors"
	"math"
	"testing"
	"time"

	"dsr/internal/prng"
)

// Series shapes FuzzMBPTA draws from: the degenerate inputs a timing
// trace can hand the pipeline.
const (
	shapeConstant = iota // every sample equal
	shapeIID             // light-tailed i.i.d., the healthy case
	shapeTies            // three distinct values, heavily tied
	shapeHeavy           // Pareto with tail index 1.1 (infinite variance)
	shapeHuge            // magnitudes near math.MaxFloat64
	shapeTrend           // a linear drift
	numShapes
)

// genSeries builds an n-sample series of the given shape from seed,
// multiplied by scale.
func genSeries(shape uint8, n int, seed uint64, scale float64) []float64 {
	src := prng.NewMWC(seed)
	out := make([]float64, n)
	for i := range out {
		u := src.Float64()
		switch shape % numShapes {
		case shapeConstant:
			out[i] = scale
		case shapeIID:
			out[i] = scale * (300000 + 2000*u)
		case shapeTies:
			out[i] = scale * float64(prng.Intn(src, 3))
		case shapeHeavy:
			out[i] = scale * math.Pow(1-u, -1/1.1)
		case shapeHuge:
			out[i] = math.MaxFloat64 * (0.5 + u/2)
		case shapeTrend:
			out[i] = scale * (float64(i) + u)
		}
	}
	return out
}

// within runs fn and fails the test if it has not returned by the
// deadline: a hang is a finding, like a panic.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// FuzzMBPTA drives the i.i.d. gate and the full pipeline with degenerate
// series (constant, too short, all ties, heavy-tailed, huge magnitudes,
// drifting), an optional injected sample (NaN, ±Inf or any value) and
// arbitrary block sizes and lag counts. Each call must return, without
// a panic, either a report or an error; a report carries a finite pWCET,
// and a non-finite sample is always ErrNonFinite.
func FuzzMBPTA(f *testing.F) {
	// The degenerate cases, among them the NaN series that hung the KS
	// walk, are the committed corpus under testdata/fuzz/FuzzMBPTA.
	f.Add(uint8(shapeIID), uint16(1000), uint8(51), uint8(21), uint64(1), 1.0, uint16(0), 0.0)
	f.Fuzz(func(t *testing.T, shape uint8, n uint16, block, lags uint8, seed uint64, scale float64, at uint16, special float64) {
		times := genSeries(shape, int(n)%4001, seed, scale)
		if at > 0 && len(times) > 0 {
			times[int(at-1)%len(times)] = special
		}
		nonFinite := checkFinite(times) != nil
		opts := DefaultOptions()
		opts.BlockSize = int(block) - 1
		opts.LjungBoxLags = int(lags) - 1

		var iidErr error
		within(t, 10*time.Second, "CheckIID", func() { _, iidErr = CheckIID(times, opts) })
		if nonFinite && !errors.Is(iidErr, ErrNonFinite) {
			t.Fatalf("CheckIID on a non-finite series: err=%v, want ErrNonFinite", iidErr)
		}

		var (
			rep *Report
			err error
		)
		within(t, 10*time.Second, "Analyse", func() { rep, err = Analyse(times, opts) })
		if err != nil {
			return
		}
		if nonFinite {
			t.Fatal("Analyse accepted a non-finite series")
		}
		if rep == nil || rep.Fit == nil || !rep.IID.Pass() {
			t.Fatalf("Analyse returned no error but an incomplete report: %+v", rep)
		}
		if math.IsNaN(rep.PWCET) || math.IsInf(rep.PWCET, 0) {
			t.Fatalf("Analyse reported a non-finite pWCET %v (fit %+v)", rep.PWCET, rep.Fit.Model)
		}
	})
}
