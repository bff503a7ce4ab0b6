package schedfeas

import (
	"math"
	"testing"

	"dsr/internal/analysis"
	"dsr/internal/prng"
	"dsr/internal/spaceapp"
)

func TestAnalyzeDetBaseline(t *testing.T) {
	rep := Analyze(caseStudySpec(), Policy{}, Config{})
	if !rep.Feasible {
		t.Fatalf("det baseline infeasible: %v / %v", rep.Violations, rep.Diags)
	}
	if rep.EntropyBits != 0 || rep.Schedules != 1 || rep.Assignments != 1 {
		t.Errorf("det entropy=%f schedules=%f assignments=%d, want 0/1/1",
			rep.EntropyBits, rep.Schedules, rep.Assignments)
	}
	for _, tr := range rep.Tasks {
		if tr.GuessingEntropy != 1 || tr.DistinctOffsets != 1 || tr.OffsetBits != 0 {
			t.Errorf("%s: det inference metrics %+v, want GE=1/offsets=1/bits=0", tr.Task, tr)
		}
	}
	if rep.Cert == nil {
		t.Fatal("feasible report without certificate")
	}
	// The certificate accepts the nominal schedule and nothing shifted.
	if err := rep.Cert.Contains(nominalSchedule(caseStudySpec())); err != nil {
		t.Errorf("nominal rejected: %v", err)
	}
}

func TestAnalyzeFullPolicyFeasible(t *testing.T) {
	spec := caseStudySpec()
	rep := Analyze(spec, fullPolicy(), Config{})
	if !rep.Feasible {
		t.Fatalf("full policy infeasible: %v / %v", rep.Violations, rep.Diags)
	}
	// Control draws one of 10 segments; the shared segment permutes 2
	// windows; every segment gap-jitters — well over 10 bits total.
	if rep.EntropyBits < 10 {
		t.Errorf("entropy %f bits, expected > 10", rep.EntropyBits)
	}
	if rep.Assignments != 10 {
		t.Errorf("assignments=%d, want 10 (control segment choice)", rep.Assignments)
	}
	if rep.Schedules <= 1 {
		t.Errorf("schedules=%f, want many", rep.Schedules)
	}
	for _, tr := range rep.Tasks {
		if tr.GuessingEntropy <= 1 || tr.DistinctOffsets <= 1 {
			t.Errorf("%s: randomized policy but GE=%f offsets=%d",
				tr.Task, tr.GuessingEntropy, tr.DistinctOffsets)
		}
		// Control roams the whole frame: far harder to guess than the
		// jitter-bounded processing task.
		if tr.Task == "control" && tr.GuessingEntropy < 50 {
			t.Errorf("control GE=%f, expected inter-arrival inference to be hard", tr.GuessingEntropy)
		}
	}
}

// The analyzer's support must cover every schedule Draw emits (the
// soundness direction the CI gate re-checks at scale).
func TestAnalyzeSupportCoversDraws(t *testing.T) {
	spec := caseStudySpec()
	for _, pol := range []Policy{
		{},
		{SlotJitterMillis: 40},
		{PermuteOrder: true},
		{SegmentChoice: true},
		fullPolicy(),
	} {
		rep := Analyze(spec, pol, Config{})
		if !rep.Feasible {
			t.Fatalf("%v: infeasible: %v", pol, rep.Violations)
		}
		for seed := uint64(0); seed < 100; seed++ {
			fs, err := Draw(spec, pol, prng.NewMWC(seed))
			if err != nil {
				t.Fatalf("%v seed %d: %v", pol, seed, err)
			}
			if err := rep.Cert.Contains(fs); err != nil {
				t.Fatalf("%v seed %d: drawn schedule outside certified support: %v", pol, seed, err)
			}
		}
	}
}

func TestAnalyzePinpointsJitterViolation(t *testing.T) {
	spec := caseStudySpec()
	// Processing tolerates 40ms of jitter; behind a permuted control
	// window its start can reach base+40, so a 29ms bound must fail.
	spec.Tasks[1].JitterMillis = 29
	rep := Analyze(spec, fullPolicy(), Config{})
	if rep.Feasible {
		t.Fatal("jitter-infeasible policy declared feasible")
	}
	if rep.Cert != nil {
		t.Fatal("infeasible report issued a certificate")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Task != "processing" {
			continue
		}
		found = true
		if v.Schedule == nil {
			t.Fatal("violation without a pinpointed schedule")
		}
		// The pinpointed draw must actually violate the constraints —
		// the property the fuzzer replays at scale.
		if vs := spec.Check(v.Schedule); len(vs) == 0 {
			t.Fatalf("pinpointed schedule passes Check: %+v", v.Schedule)
		}
	}
	if !found {
		t.Fatalf("no processing violation: %v", rep.Violations)
	}
}

func TestAnalyzeDeadEndInfeasible(t *testing.T) {
	spec := &Spec{
		FrameMillis:    100,
		CyclesPerMilli: 1000,
		Tasks: []Task{
			{Name: "a", PeriodMillis: 100, BudgetMillis: 40, PhaseMillis: 0, JitterMillis: -1},
			{Name: "b", PeriodMillis: 100, BudgetMillis: 40, PhaseMillis: 40, JitterMillis: -1},
			{Name: "c", PeriodMillis: 100, BudgetMillis: 40, PhaseMillis: 60, JitterMillis: -1},
		},
	}
	rep := Analyze(spec, Policy{SlotJitterMillis: 5}, Config{})
	if rep.Feasible {
		t.Fatal("dead-end randomizer declared feasible")
	}
	// The det baseline overlaps too (120ms of windows in 100ms) — Check
	// must catch it on the nominal schedule.
	det := Analyze(spec, Policy{}, Config{})
	if det.Feasible {
		t.Fatal("overlapping nominal schedule declared feasible")
	}
}

func TestAnalyzeWCETAndStackViolations(t *testing.T) {
	spec := caseStudySpec()
	spec.Tasks[0].WCETCycles = 2_500_000 // > 30ms * 80k = 2.4M
	rep := Analyze(spec, Policy{}, Config{})
	if rep.Feasible {
		t.Fatal("WCET overrun declared feasible")
	}

	spec = caseStudySpec()
	spec.Tasks[1].StackBoundBytes = 4096
	spec.Tasks[1].StackBudgetBytes = 2048
	rep = Analyze(spec, Policy{}, Config{})
	if rep.Feasible {
		t.Fatal("stack overrun declared feasible")
	}

	// Unset budgets skip the stack check.
	spec = caseStudySpec()
	spec.Tasks[1].StackBoundBytes = 4096
	if rep = Analyze(spec, Policy{}, Config{}); !rep.Feasible {
		t.Fatal("stack check fired without a budget")
	}
}

func TestAnalyzeRefusesOverCap(t *testing.T) {
	rep := Analyze(caseStudySpec(), fullPolicy(), Config{MaxAssignments: 4})
	if !rep.Refused || rep.Feasible || rep.Cert != nil {
		t.Fatalf("cap exceeded but refused=%v feasible=%v cert=%v",
			rep.Refused, rep.Feasible, rep.Cert != nil)
	}
	// Order cap: 4 same-criticality windows in one segment = 24 orders.
	spec := &Spec{
		FrameMillis:    100,
		CyclesPerMilli: 1000,
		Tasks: []Task{
			{Name: "a", PeriodMillis: 100, BudgetMillis: 10, PhaseMillis: 0, JitterMillis: -1},
			{Name: "b", PeriodMillis: 100, BudgetMillis: 10, PhaseMillis: 10, JitterMillis: -1},
			{Name: "c", PeriodMillis: 100, BudgetMillis: 10, PhaseMillis: 20, JitterMillis: -1},
			{Name: "d", PeriodMillis: 100, BudgetMillis: 10, PhaseMillis: 30, JitterMillis: -1},
		},
	}
	rep = Analyze(spec, Policy{PermuteOrder: true}, Config{MaxOrders: 6})
	if !rep.Refused {
		t.Fatal("24 orders under a cap of 6 not refused")
	}
}

func TestAnalyzeCritOrderShrinksEntropy(t *testing.T) {
	spec := &Spec{
		FrameMillis:    100,
		CyclesPerMilli: 1000,
		Tasks: []Task{
			{Name: "hi", PeriodMillis: 100, BudgetMillis: 10, PhaseMillis: 0, Criticality: 1, JitterMillis: -1},
			{Name: "lo", PeriodMillis: 100, BudgetMillis: 10, PhaseMillis: 10, Criticality: 0, JitterMillis: -1},
		},
	}
	free := Analyze(spec, Policy{PermuteOrder: true}, Config{})
	if !free.Feasible {
		t.Fatalf("free permute infeasible: %v", free.Violations)
	}
	spec.CritOrdered = true
	ordered := Analyze(spec, Policy{PermuteOrder: true}, Config{})
	if !ordered.Feasible {
		t.Fatalf("crit-ordered permute infeasible: %v", ordered.Violations)
	}
	// Two singleton criticality groups leave exactly one order: the
	// constraint removes the permutation's 1 bit.
	if got, want := free.EntropyBits-ordered.EntropyBits, 1.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("crit order removed %f bits, want %f", got, want)
	}
	// And every crit-ordered draw keeps hi before lo.
	for seed := uint64(0); seed < 30; seed++ {
		fs, err := Draw(spec, Policy{PermuteOrder: true}, prng.NewMWC(seed))
		if err != nil {
			t.Fatal(err)
		}
		if fs.Windows[0].Task != "hi" {
			t.Fatalf("seed %d: crit order violated: %+v", seed, fs.Windows)
		}
	}
}

func TestAnalyzeJitterOnlyEntropy(t *testing.T) {
	// One 60ms task in a 100ms frame with free jitter: 41 equiprobable
	// starts, entropy log2(41), guessing entropy (41+1)/2.
	spec := &Spec{
		FrameMillis:    100,
		CyclesPerMilli: 1000,
		Tasks: []Task{
			{Name: "solo", PeriodMillis: 100, BudgetMillis: 60, PhaseMillis: 0, JitterMillis: -1},
		},
	}
	rep := Analyze(spec, Policy{SlotJitterMillis: 100}, Config{})
	if !rep.Feasible {
		t.Fatalf("infeasible: %v", rep.Violations)
	}
	if want := math.Log2(41); math.Abs(rep.EntropyBits-want) > 1e-9 {
		t.Errorf("entropy=%f, want %f", rep.EntropyBits, want)
	}
	if rep.Schedules != 41 {
		t.Errorf("schedules=%f, want 41", rep.Schedules)
	}
	tr := rep.Tasks[0]
	if want := 21.0; math.Abs(tr.GuessingEntropy-want) > 1e-9 || tr.DistinctOffsets != 41 {
		t.Errorf("GE=%f offsets=%d, want 21/41", tr.GuessingEntropy, tr.DistinctOffsets)
	}
}

// TestControlTaskStackBudgetFromAnalysis wires the real static stack
// analysis into the control task's partition descriptor, the end-to-end
// path an integrator follows: AnalyzeStack -> StackBoundBytes ->
// Analyze. A one-page allocation fits; one word below the bound fails.
func TestControlTaskStackBudgetFromAnalysis(t *testing.T) {
	p, err := spaceapp.BuildControl()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := analysis.AnalyzeStack(p, analysis.StackOptions{NumWindows: 8})
	if err != nil {
		t.Fatal(err)
	}
	spec := caseStudySpec()
	spec.Tasks[0].StackBoundBytes = int(sb.MaxStackBytes)
	spec.Tasks[0].StackBudgetBytes = 4096
	if rep := Analyze(spec, Policy{}, Config{}); !rep.Feasible {
		t.Errorf("control task (stack bound %d) does not fit a 4KB budget: %v", sb.MaxStackBytes, rep.Violations)
	}
	spec.Tasks[0].StackBudgetBytes = int(sb.MaxStackBytes) - 8
	if rep := Analyze(spec, Policy{}, Config{}); rep.Feasible {
		t.Error("budget below the static bound accepted")
	}
}

func TestCertificateRejectsForeignStart(t *testing.T) {
	spec := caseStudySpec()
	rep := Analyze(spec, Policy{SlotJitterMillis: 5}, Config{})
	if !rep.Feasible {
		t.Fatalf("infeasible: %v", rep.Violations)
	}
	fs, err := Draw(spec, Policy{SlotJitterMillis: 5}, prng.NewMWC(1))
	if err != nil {
		t.Fatal(err)
	}
	// Move control far outside the 5ms-jitter support (but still into a
	// feasibility-respecting slot): Contains must reject on support.
	moved := &FrameSchedule{Windows: append([]PlacedWindow(nil), fs.Windows...)}
	for i := range moved.Windows {
		if moved.Windows[i].Task == "control" {
			moved.Windows[i].StartMillis = 970
			moved.Windows[i].Segment = 9
		}
	}
	sortWindows(moved.Windows)
	if vs := spec.Check(moved); len(vs) > 0 {
		t.Fatalf("moved schedule should satisfy the raw constraints: %v", vs)
	}
	if err := rep.Cert.Contains(moved); err == nil {
		t.Fatal("start outside the certified support accepted")
	}
}
