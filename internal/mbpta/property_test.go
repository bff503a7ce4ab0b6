package mbpta

import (
	"fmt"
	"reflect"
	"testing"

	"dsr/internal/prng"
)

// Statistical property tests for the i.i.d. gate: the gate is the
// safety argument of MBPTA (§V), so its two tests must demonstrably
// catch the failure modes they exist for — serial dependence
// (Ljung-Box) and distribution drift (KS) — while passing genuinely
// i.i.d. series at close to the nominal false-positive rate.

// gauss returns one approximately standard normal draw (sum of 12
// uniforms, Irwin-Hall).
func gauss(src prng.Source) float64 {
	var s float64
	for k := 0; k < 12; k++ {
		s += prng.Float64(src)
	}
	return s - 6
}

// ar1Sample generates x_t = phi*x_{t-1} + eps_t scaled onto an
// execution-time-like level.
func ar1Sample(seed uint64, phi float64, n int) []float64 {
	src := prng.NewMWC(seed)
	out := make([]float64, n)
	var x float64
	for i := range out {
		x = phi*x + gauss(src)
		out[i] = 300000 + 2000*x
	}
	return out
}

// TestLjungBoxRejectsAR1Sweep checks the gate rejects AR(1) series
// across a sweep of correlation strengths; rejection must get easier
// as phi grows.
func TestLjungBoxRejectsAR1Sweep(t *testing.T) {
	opts := DefaultOptions()
	for _, phi := range []float64{0.3, 0.5, 0.8} {
		t.Run(fmt.Sprintf("phi=%g", phi), func(t *testing.T) {
			rejected := 0
			const trials = 20
			for s := uint64(0); s < trials; s++ {
				rep, err := CheckIID(ar1Sample(1000+s, phi, 1000), opts)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.LjungBox.Passed(opts.Alpha) {
					rejected++
				}
			}
			// Even at phi=0.3 with n=1000 the LB test has essentially
			// full power; demand near-certain detection.
			if rejected < trials-1 {
				t.Errorf("phi=%g: rejected %d/%d AR(1) series", phi, rejected, trials)
			}
		})
	}
}

// TestIIDGatePassesTrueIID checks the false-positive side: the gate
// (both tests jointly at alpha=0.05) must pass true i.i.d. series at
// roughly the nominal rate. With 40 independent series and a joint
// false-positive probability below ~0.1, seeing more than a handful of
// rejections means the gate is biased.
func TestIIDGatePassesTrueIID(t *testing.T) {
	opts := DefaultOptions()
	passed := 0
	const trials = 40
	for s := uint64(0); s < trials; s++ {
		rep, err := CheckIID(ar1Sample(5000+s, 0, 1000), opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Pass() {
			passed++
		}
	}
	if passed < trials-6 {
		t.Errorf("gate passed only %d/%d true i.i.d. series", passed, trials)
	}
}

// TestKSDetectsShiftSweep checks the identical-distribution half of
// the gate: a mean shift between the first and second half of the
// campaign — the signature of drift, exactly what split-sample KS
// exists to catch — must be rejected once the shift is comparable to
// the spread.
func TestKSDetectsShiftSweep(t *testing.T) {
	opts := DefaultOptions()
	const n = 1000
	for _, shiftSD := range []float64{0.5, 1, 2} {
		t.Run(fmt.Sprintf("shift=%gsd", shiftSD), func(t *testing.T) {
			detected := 0
			const trials = 20
			for s := uint64(0); s < trials; s++ {
				times := ar1Sample(9000+s, 0, n)
				for i := n / 2; i < n; i++ {
					times[i] += shiftSD * 2000 // sd of the level is 2000
				}
				rep, err := CheckIID(times, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.KS.Passed(opts.Alpha) {
					detected++
				}
			}
			if detected < trials-1 {
				t.Errorf("shift %gsd: KS detected %d/%d", shiftSD, detected, trials)
			}
		})
	}
}

// TestKSToleratesSmallShift is the other side: a shift far below the
// noise floor should not blow the false-positive rate up.
func TestKSToleratesSmallShift(t *testing.T) {
	opts := DefaultOptions()
	const n = 1000
	passed := 0
	const trials = 20
	for s := uint64(0); s < trials; s++ {
		times := ar1Sample(13000+s, 0, n)
		for i := n / 2; i < n; i++ {
			times[i] += 0.02 * 2000
		}
		rep, err := CheckIID(times, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.KS.Passed(opts.Alpha) {
			passed++
		}
	}
	if passed < trials-4 {
		t.Errorf("negligible shift rejected too often: passed %d/%d", passed, trials)
	}
}

// --- Stream parity: the stream's report must be the batch report ---

// TestStreamReportMatchesAnalyse checks that a sample observed one
// time at a time gives the same analysis as the batch call.
func TestStreamReportMatchesAnalyse(t *testing.T) {
	times := iidSample(3, 1000)
	opts := DefaultOptions()
	s := NewStream(opts)
	for _, x := range times {
		s.Observe(x)
	}
	batch, errB := Analyse(times, opts)
	stream, errS := s.Report()
	if (errB == nil) != (errS == nil) {
		t.Fatalf("error mismatch: batch %v, stream %v", errB, errS)
	}
	if !reflect.DeepEqual(batch, stream) {
		t.Errorf("stream report differs from batch:\n batch  %+v\n stream %+v", batch, stream)
	}
}

// TestStreamNilAndEmpty checks the disabled-stream conventions.
func TestStreamNilAndEmpty(t *testing.T) {
	var nilStream *Stream
	nilStream.Observe(1) // must not panic
	if nilStream.Times() != nil {
		t.Error("nil stream not inert")
	}
	empty := NewStream(Options{})
	if empty.Times() != nil {
		t.Error("empty stream holds a sample")
	}
	if _, err := empty.Report(); err == nil {
		t.Error("empty stream Report did not error")
	}
}
