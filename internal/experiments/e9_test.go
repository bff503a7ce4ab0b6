package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"dsr/internal/host"
	"dsr/internal/mem"
	"dsr/internal/platform"
	"dsr/internal/rtos"
	"dsr/internal/spaceapp"
)

// e9Config dimensions a short E9 campaign for the unit tests; the CI
// gate (TestSchedFeasSound via `make sched-check`) runs the full-length
// version.
func e9Config(frames, workers int) Config {
	cfg := DefaultConfig()
	cfg.Runs = frames
	cfg.Workers = workers
	return cfg
}

// TestCaseStudyControlBudgetIsE3PWCET keeps the control task's WCET
// budget in CaseStudySchedSpec equal to the figure it stands for: the
// E3 pWCET at 10^-15, from the 1000-run DSR campaign that dsrsim -fig3
// prints (rounded to whole cycles as printed there).
func TestCaseStudyControlBudgetIsE3PWCET(t *testing.T) {
	cfg := DefaultConfig()
	dsr, err := RunDSR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Figure3(dsr, cfg.MBPTA)
	if err != nil {
		t.Fatal(err)
	}
	pwcet := math.Round(rep.PWCET)
	for _, task := range CaseStudySchedSpec().Tasks {
		if task.Name == "control" && task.WCETCycles != pwcet {
			t.Fatalf("CaseStudySchedSpec control WCETCycles = %.0f, E3 pWCET@1e-15 = %.0f", task.WCETCycles, pwcet)
		}
	}
}

func TestE9Report(t *testing.T) {
	rep, err := RunE9(e9Config(12, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows=%d, want the 2x2 grid", len(rep.Rows))
	}
	if !rep.Sound {
		t.Errorf("soundness verdict failed: %s", rep.SoundDetail)
	}
	if !rep.TimingAnalysable {
		t.Errorf("timing verdict failed: %s", rep.TimingDetail)
	}
	if !rep.InferenceResistant {
		t.Errorf("inference verdict failed: %s", rep.InferenceDetail)
	}

	det, both := rep.Rows[0], rep.Rows[3]
	if det.MeasuredGE != 1 || det.MeasuredOffsets != 1 || det.ScheduleBits != 0 {
		t.Errorf("deterministic cell not fully predictable: %+v", det)
	}
	if both.MeasuredGE <= 1 || both.MeasuredOffsets < 2 {
		t.Errorf("randomized cell predictable: GE %.2f over %d offsets",
			both.MeasuredGE, both.MeasuredOffsets)
	}
	if both.ScheduleBits <= det.ScheduleBits {
		t.Errorf("schedule entropy %f bits not above deterministic 0", both.ScheduleBits)
	}
	out := FormatE9(rep)
	for _, want := range []string{"E9:", "verdict schedule soundness", "verdict timing analysability", "verdict inference resistance", "PASS"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatE9 output missing %q:\n%s", want, out)
		}
	}
}

// TestE9SchedAxisPreservesCycles pins the grid's control variable:
// schedule randomisation alone must not change the control task's
// execution times, only their arrival offsets. Frame f runs input f in
// both cells of a layout row, so the per-frame cycle series must match
// exactly. That equality is also what lets the two cells of a row share
// their control runs through the E9 memo, so every cell here runs with
// the memo off: with it on, the second cell would replay the first.
func TestE9SchedAxisPreservesCycles(t *testing.T) {
	cfg := e9Config(6, 2)
	cfg.e9 = nil
	for _, layout := range []bool{false, true} {
		fixed, err := RunE9Cell(cfg, E9Cell{LayoutRand: layout})
		if err != nil {
			t.Fatal(err)
		}
		sched, err := RunE9Cell(cfg, E9Cell{LayoutRand: layout, SchedRand: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fixed.ControlCycles, sched.ControlCycles) {
			t.Errorf("%s: schedule randomisation changed control cycles:\n det=%v\nrand=%v",
				sched.Cell.Name(), fixed.ControlCycles, sched.ControlCycles)
		}
		if reflect.DeepEqual(fixed.ControlOffsets, sched.ControlOffsets) {
			t.Errorf("%s: schedule randomisation did not move arrivals: %v", sched.Cell.Name(), sched.ControlOffsets)
		}
	}
}

// TestCampaignDeterminismE9 extends the campaign determinism invariant
// to the schedule-randomisation axis: every E9 cell must produce
// byte-identical output at Workers=8 and Workers=1 (the name keeps it
// inside the `make race-campaign` net).
func TestCampaignDeterminismE9(t *testing.T) {
	for _, cell := range E9Cells() {
		cell := cell
		t.Run(strings.ReplaceAll(cell.Name(), " ", ""), func(t *testing.T) {
			t.Parallel()
			var seqProg, parProg []int
			seqCfg := e9Config(5, 1)
			seqCfg.Progress = func(_ string, done, _ int) { seqProg = append(seqProg, done) }
			seq, err := RunE9Cell(seqCfg, cell)
			if err != nil {
				t.Fatal(err)
			}
			parCfg := e9Config(5, 8)
			parCfg.Progress = func(_ string, done, _ int) { parProg = append(parProg, done) }
			par, err := RunE9Cell(parCfg, cell)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("workers=8 differs from sequential:\nseq=%+v\npar=%+v", seq, par)
			}
			if !reflect.DeepEqual(seqProg, parProg) {
				t.Errorf("progress order differs: seq=%v par=%v", seqProg, parProg)
			}
		})
	}
}

// runE9 activates r for act and executes it under the control window's
// budget; the host's own golden-model check rejects a wrong result.
func runE9(t *testing.T, r *host.Host, act uint64) platform.RunResult {
	t.Helper()
	if err := r.Activate(act); err != nil {
		t.Fatal(err)
	}
	res, done, err := r.Execute(60 * rtos.DefaultConfig().CyclesPerMilli)
	if err != nil {
		t.Fatalf("%s activation %d: %v", r.Name(), act, err)
	}
	if !done {
		t.Fatalf("%s activation %d overran its window", r.Name(), act)
	}
	return res
}

// TestE9FixedRunnerRestoresPerActivation pins the partition reboot of
// the fixed-layout runner: activation k's run is the same whatever
// activations ran on the platform before it.
func TestE9FixedRunnerRestoresPerActivation(t *testing.T) {
	cfg := DefaultConfig()
	for _, tk := range []host.Task{ControlTask, processingTask(spaceapp.LitFraction)} {
		a, err := cfg.newHost(platform.ProximaLEON3(), fixedLayout, tk)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cfg.newHost(platform.ProximaLEON3(), fixedLayout, tk)
		if err != nil {
			t.Fatal(err)
		}
		for _, act := range []uint64{0, 1, 2} {
			runE9(t, a, act)
		}
		runE9(t, b, 9)
		if ra, rb := runE9(t, a, 5), runE9(t, b, 5); !reflect.DeepEqual(ra, rb) {
			t.Errorf("%s activation 5 depends on its history: %d vs %d cycles", a.Name(), ra.Cycles, rb.Cycles)
		}
	}
}

// TestE9LayoutRunnerRerandomisesPerActivation checks that the layout-
// randomised control runner draws a fresh layout on every activation:
// the code moves and the execution time varies, while every result
// still matches the golden model.
func TestE9LayoutRunnerRerandomisesPerActivation(t *testing.T) {
	cfg := DefaultConfig()
	r, err := cfg.newHost(platform.ProximaLEON3(), host.DSR, ControlTask)
	if err != nil {
		t.Fatal(err)
	}
	r.Observe(false, nil, true) // capture each reboot's dsr.reboot event
	cycles, entries := map[mem.Cycles]bool{}, map[string]bool{}
	for act := uint64(0); act < 12; act++ {
		cycles[runE9(t, r, act).Cycles] = true
		for _, ev := range r.Events() {
			for _, a := range ev.Attrs {
				if ev.Kind == "dsr.reboot" && a.Key == "entry" {
					entries[a.Value] = true
				}
			}
		}
	}
	if len(cycles) < 2 || len(entries) < 2 {
		t.Errorf("12 DSR activations drew %d distinct execution times over %d distinct entry points",
			len(cycles), len(entries))
	}
}
