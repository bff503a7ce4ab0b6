package mbpta

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"dsr/internal/prng"
)

// iidSample produces light-tailed i.i.d. execution times around base.
func iidSample(seed uint64, n int) []float64 {
	src := prng.NewMWC(seed)
	out := make([]float64, n)
	for i := range out {
		// Sum of uniforms → approximately normal, strictly bounded.
		var s float64
		for k := 0; k < 8; k++ {
			s += prng.Float64(src)
		}
		out[i] = 300000 + 2000*s
	}
	return out
}

func TestAnalyseIIDSample(t *testing.T) {
	times := iidSample(1, 1000)
	rep, err := Analyse(times, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.IID.Pass() {
		t.Fatalf("i.i.d. gate failed: LB p=%f KS p=%f", rep.IID.LjungBox.PValue, rep.IID.KS.PValue)
	}
	if rep.PWCET <= rep.MOET {
		t.Errorf("pWCET %f does not upper-bound MOET %f", rep.PWCET, rep.MOET)
	}
	if rep.N != 1000 || rep.Min >= rep.MOET || rep.Mean <= rep.Min || rep.Mean >= rep.MOET {
		t.Errorf("descriptives wrong: %+v", rep)
	}
	if len(rep.Curve) != 16 {
		t.Errorf("curve points=%d, want 16", len(rep.Curve))
	}
	if !rep.Converged {
		t.Error("1000-run stationary sample should be converged")
	}
}

func TestAnalyseRejectsAutocorrelated(t *testing.T) {
	src := prng.NewMWC(2)
	times := make([]float64, 1000)
	x := 0.0
	for i := range times {
		x = 0.95*x + prng.Float64(src)
		times[i] = 300000 + 1000*x
	}
	rep, err := Analyse(times, DefaultOptions())
	if !errors.Is(err, ErrNotIID) {
		t.Fatalf("err=%v, want ErrNotIID", err)
	}
	if rep == nil || rep.IID.Pass() {
		t.Error("rejected report should carry failing IID results")
	}
	if rep.Fit != nil {
		t.Error("EVT fit must not run on non-i.i.d. data")
	}
}

func TestAnalyseRejectsTrend(t *testing.T) {
	// A drifting series fails the split-sample KS test.
	src := prng.NewMWC(3)
	times := make([]float64, 1000)
	for i := range times {
		times[i] = 300000 + float64(i)*10 + 500*prng.Float64(src)
	}
	_, err := Analyse(times, DefaultOptions())
	if !errors.Is(err, ErrNotIID) {
		t.Fatalf("drifting series accepted: %v", err)
	}
}

func TestAnalyseSampleSizeGuard(t *testing.T) {
	if _, err := Analyse(iidSample(4, 100), DefaultOptions()); err == nil {
		t.Error("100 runs with block 50 accepted")
	}
	opts := DefaultOptions()
	opts.BlockSize = 0
	if _, err := Analyse(iidSample(4, 1000), opts); err == nil {
		t.Error("block size 0 accepted")
	}
	// 4 blocks of 1<<62 runs overflow int: the guard must not wrap.
	opts.BlockSize = 1 << 62
	if _, err := Analyse(iidSample(4, 1000), opts); err == nil || !strings.Contains(err.Error(), "need at least 4 blocks") {
		t.Errorf("block size 1<<62 over 1000 runs: %v, want the sample-size error", err)
	}
}

// TestAnalyseRejectsNonFinite: one NaN or infinity anywhere in a series
// long enough to analyse is an error naming its index, from both
// CheckIID and Analyse, and neither may hang on it.
func TestAnalyseRejectsNonFinite(t *testing.T) {
	const n = 1000
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, pos := range []int{0, n / 2, n - 1} {
			times := iidSample(9, n)
			times[pos] = bad
			want := fmt.Sprintf("sample %d is %v", pos, bad)
			var iidErr, err error
			within(t, 10*time.Second, "CheckIID", func() { _, iidErr = CheckIID(times, DefaultOptions()) })
			within(t, 10*time.Second, "Analyse", func() { _, err = Analyse(times, DefaultOptions()) })
			for name, e := range map[string]error{"CheckIID": iidErr, "Analyse": err} {
				if !errors.Is(e, ErrNonFinite) || !strings.Contains(e.Error(), want) {
					t.Errorf("%s with %v at %d: err=%v, want ErrNonFinite naming %q", name, bad, pos, e, want)
				}
			}
		}
	}
}

func TestPWCETTightness(t *testing.T) {
	// For a light-tailed sample the pWCET at 1e-15 should sit within a
	// modest factor of the MOET — the paper's tightness claim.
	times := iidSample(5, 2000)
	rep, err := Analyse(times, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	over := rep.PWCET/rep.MOET - 1
	if over < 0 {
		t.Errorf("pWCET below MOET: %f", over)
	}
	if over > 0.25 {
		t.Errorf("pWCET %.1f%% over MOET: implausibly loose for a bounded sample", over*100)
	}
	if !rep.CVPass {
		t.Logf("note: CV test failed (cv=%f band=%f) — acceptable for bounded data", rep.CV, rep.CVBand)
	}
}

func TestCompareWithMargin(t *testing.T) {
	times := iidSample(6, 1000)
	rep, err := Analyse(times, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Reference MOET close to the randomised MOET (the paper's case).
	moetRef := rep.MOET * 1.001
	mc := CompareWithMargin(rep, moetRef, 0.20)
	if mc.Budget != moetRef*1.2 {
		t.Errorf("budget=%f", mc.Budget)
	}
	if mc.Gain <= 0 {
		t.Errorf("gain=%f, want positive (pWCET tighter than 20%% margin)", mc.Gain)
	}
	if mc.Gain > 0.25 {
		t.Errorf("gain=%f implausibly high", mc.Gain)
	}
	if mc.OverMOET < 0 || mc.OverMOET > 0.25 {
		t.Errorf("pWCET over MOET=%f out of plausible range", mc.OverMOET)
	}
	// Consistency: Budget*(1-Gain) == PWCET.
	if math.Abs(mc.Budget*(1-mc.Gain)-mc.PWCET) > 1e-6*mc.PWCET {
		t.Error("gain identity broken")
	}
}

func TestCheckIIDDirectly(t *testing.T) {
	rep, err := CheckIID(iidSample(9, 500), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass() {
		t.Error("i.i.d. sample rejected")
	}
	if _, err := CheckIID([]float64{1, 2, 3}, DefaultOptions()); err == nil {
		t.Error("tiny sample accepted")
	}
}

func TestDefaultOptionsMatchPaper(t *testing.T) {
	o := DefaultOptions()
	if o.Alpha != 0.05 {
		t.Error("significance level must be 5%")
	}
	if o.TargetExceedance != 1e-15 {
		t.Error("target exceedance must be 1e-15")
	}
}

func TestPWMCrossEstimateAgrees(t *testing.T) {
	rep, err := Analyse(iidSample(1, 2000), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.PWCETAlt <= 0 {
		t.Fatal("no PWM cross-estimate")
	}
	rel := rep.PWCETAlt/rep.PWCET - 1
	if rel < -0.10 || rel > 0.10 {
		t.Errorf("PWM estimate %.0f vs moments %.0f: %.1f%% apart",
			rep.PWCETAlt, rep.PWCET, rel*100)
	}
}
