package rtos

import (
	"reflect"
	"testing"

	"dsr/internal/analysis/schedfeas"
)

// caseStudyCert certifies the paper's two-task frame under the given
// policy (the same spec the schedfeas tests use).
func caseStudyCert(t *testing.T, policy schedfeas.Policy) *schedfeas.Certificate {
	t.Helper()
	spec := &schedfeas.Spec{
		FrameMillis:    1000,
		CyclesPerMilli: 80_000,
		Tasks: []schedfeas.Task{
			{Name: "control", PeriodMillis: 1000, BudgetMillis: 30, PhaseMillis: 60,
				Criticality: 1, JitterMillis: -1},
			{Name: "processing", PeriodMillis: 100, BudgetMillis: 60, PhaseMillis: 0,
				Criticality: 0, JitterMillis: 40},
		},
	}
	rep := schedfeas.Analyze(spec, policy, schedfeas.Config{})
	if rep.Cert == nil {
		t.Fatalf("policy %v not certifiable: %v", policy, rep.Violations)
	}
	return rep.Cert
}

func fullPolicy() schedfeas.Policy {
	return schedfeas.Policy{SegmentChoice: true, PermuteOrder: true, SlotJitterMillis: 40}
}

func randomizedPair(t *testing.T) []*Partition {
	t.Helper()
	ctrl := loopPartition(t, "control", 100, HighCriticality)
	ctrl.PeriodMillis = 1000
	proc := loopPartition(t, "processing", 50, LowCriticality)
	proc.PeriodMillis = 100
	return []*Partition{ctrl, proc}
}

func TestRandomizedExecutiveRunsCertifiedFrames(t *testing.T) {
	ex, err := NewRandomizedExecutive(DefaultConfig(), randomizedPair(t), caseStudyCert(t, fullPolicy()), 7)
	if err != nil {
		t.Fatal(err)
	}
	acts, err := ex.RunMajorFrames(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) != 5*11 {
		t.Fatalf("activations=%d, want 55 (10 processing + 1 control per frame)", len(acts))
	}
	for i, a := range acts {
		if a.Overrun() {
			t.Fatalf("activation %d overran a certified window", i)
		}
	}
	// The control window must actually move between frames — that is the
	// whole point of the randomisation.
	offsets := map[int]bool{}
	for _, a := range byPartition(acts, "control") {
		offsets[a.OffsetMillis] = true
	}
	if len(offsets) < 2 {
		t.Errorf("control offsets %v constant across 5 frames", offsets)
	}
	// Stateless activation numbering: processing activations are
	// frame*10+k and appear in within-frame order.
	for i, a := range byPartition(acts, "processing") {
		if a.Activation != uint64(i) {
			t.Errorf("processing activation %d numbered %d", i, a.Activation)
		}
	}
}

func TestRandomizedExecutiveFramePurity(t *testing.T) {
	ex, err := NewRandomizedExecutive(DefaultConfig(), randomizedPair(t), caseStudyCert(t, fullPolicy()), 99)
	if err != nil {
		t.Fatal(err)
	}
	once, err := ex.RunFrame(3)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ex.RunFrame(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(once, again) {
		t.Fatal("RunFrame(3) is not a pure function of the frame index")
	}
	all, err := ex.RunMajorFrames(4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all[3*11:], once) {
		t.Fatal("RunMajorFrames frame 3 differs from RunFrame(3)")
	}
}

func TestRandomizedExecutiveMembership(t *testing.T) {
	ex, err := NewRandomizedExecutive(DefaultConfig(), randomizedPair(t), caseStudyCert(t, fullPolicy()), 1234)
	if err != nil {
		t.Fatal(err)
	}
	cert := ex.Certificate()
	for frame := 0; frame < 100; frame++ {
		fs, err := ex.DrawFrame(frame)
		if err != nil {
			t.Fatalf("frame %d: %v", frame, err)
		}
		if err := cert.Contains(fs); err != nil {
			t.Fatalf("frame %d outside certified support: %v", frame, err)
		}
	}
}

func TestSchedulerRejectsDuplicateNames(t *testing.T) {
	parts := randomizedPair(t)
	twin := loopPartition(t, "control", 10, LowCriticality)
	if _, err := NewRandomizedExecutive(DefaultConfig(), []*Partition{parts[0], twin},
		caseStudyCert(t, fullPolicy()), 1); err == nil {
		t.Fatal("two distinct partitions sharing a name accepted")
	}
	// The same partition owning several windows is legitimate — that is
	// how a short-period task gets multiple activations per frame — and
	// its activation number must advance per window.
	cert := certify(t, schedfeas.Task{Name: "control", PeriodMillis: 500, BudgetMillis: 10,
		Criticality: 1, JitterMillis: -1})
	ex, err := NewRandomizedExecutive(DefaultConfig(),
		[]*Partition{loopPartition(t, "control", 10, HighCriticality)}, cert, 1)
	if err != nil {
		t.Fatal(err)
	}
	acts, err := ex.RunMajorFrames(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) != 2 || acts[0].Activation != 0 || acts[1].Activation != 1 {
		t.Fatalf("multi-window activations %+v, want 0 then 1", acts)
	}
}

func TestRandomizedExecutiveValidation(t *testing.T) {
	parts := randomizedPair(t)
	cert := caseStudyCert(t, fullPolicy())
	if _, err := NewRandomizedExecutive(DefaultConfig(), parts, nil, 1); err == nil {
		t.Error("nil certificate accepted")
	}
	if _, err := NewRandomizedExecutive(Config{MajorFrameMillis: 500, CyclesPerMilli: 80_000}, parts, cert, 1); err == nil {
		t.Error("frame mismatch accepted")
	}
	if _, err := NewRandomizedExecutive(Config{MajorFrameMillis: 1000, CyclesPerMilli: 1}, parts, cert, 1); err == nil {
		t.Error("clock mismatch accepted")
	}
	if _, err := NewRandomizedExecutive(DefaultConfig(), parts[:1], cert, 1); err == nil {
		t.Error("missing partition accepted")
	}
	if _, err := NewRandomizedExecutive(DefaultConfig(), []*Partition{parts[0], parts[0]}, cert, 1); err == nil {
		t.Error("duplicate partition accepted")
	}
	ghost := loopPartition(t, "ghost", 10, LowCriticality)
	if _, err := NewRandomizedExecutive(DefaultConfig(), []*Partition{parts[0], ghost}, cert, 1); err == nil {
		t.Error("unknown partition standing in for a certified task accepted")
	}
	wrongPeriod := randomizedPair(t)
	wrongPeriod[1].PeriodMillis = 500
	if _, err := NewRandomizedExecutive(DefaultConfig(), wrongPeriod, cert, 1); err == nil {
		t.Error("period mismatch accepted")
	}
	if _, err := NewRandomizedExecutive(DefaultConfig(), []*Partition{parts[0], {Name: "processing"}}, cert, 1); err == nil {
		t.Error("runnerless partition accepted")
	}
}
