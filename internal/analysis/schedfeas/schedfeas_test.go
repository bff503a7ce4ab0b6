package schedfeas

import (
	"reflect"
	"testing"

	"dsr/internal/prng"
)

// caseStudySpec mirrors the paper's two-partition frame: a 1s major
// frame on the 80 MHz LEON3, the high-criticality control task (1s
// period, 30ms window, free release jitter) and the low-criticality
// image-processing task (100ms period, 60ms window, jitter bounded so
// it stays near its sensor cadence). Phases are the sched.Fit
// fixed-phase offsets (processing 0, control 60).
func caseStudySpec() *Spec {
	return &Spec{
		FrameMillis:    1000,
		CyclesPerMilli: 80_000,
		Tasks: []Task{
			{Name: "control", PeriodMillis: 1000, BudgetMillis: 30, PhaseMillis: 60,
				WCETCycles: 280_279, Criticality: 1, JitterMillis: -1},
			{Name: "processing", PeriodMillis: 100, BudgetMillis: 60, PhaseMillis: 0,
				WCETCycles: 1_500_000, Criticality: 0, JitterMillis: 40},
		},
	}
}

// fullPolicy is the E9 "sched-rand" cell: all three randomisation
// mechanisms on.
func fullPolicy() Policy {
	return Policy{SegmentChoice: true, PermuteOrder: true, SlotJitterMillis: 40}
}

func TestSpecValidate(t *testing.T) {
	if errs := caseStudySpec().Validate(); len(errs) > 0 {
		t.Fatalf("case-study spec invalid: %v", errs)
	}
	bad := []Spec{
		{FrameMillis: 0, CyclesPerMilli: 1, Tasks: []Task{{Name: "t", PeriodMillis: 10, BudgetMillis: 1}}},
		{FrameMillis: 100, CyclesPerMilli: 1},
		{FrameMillis: 100, CyclesPerMilli: 1, Tasks: []Task{{Name: "", PeriodMillis: 10, BudgetMillis: 1}}},
		{FrameMillis: 100, CyclesPerMilli: 1, Tasks: []Task{
			{Name: "a", PeriodMillis: 10, BudgetMillis: 1},
			{Name: "a", PeriodMillis: 10, BudgetMillis: 1}}},
		{FrameMillis: 100, CyclesPerMilli: 1, Tasks: []Task{{Name: "t", PeriodMillis: 30, BudgetMillis: 1}}}, // 30 ∤ 100
		{FrameMillis: 100, CyclesPerMilli: 1, Tasks: []Task{ // 25 not multiple of 10
			{Name: "a", PeriodMillis: 10, BudgetMillis: 1},
			{Name: "b", PeriodMillis: 25, BudgetMillis: 1}}},
		{FrameMillis: 100, CyclesPerMilli: 1, Tasks: []Task{{Name: "t", PeriodMillis: 10, BudgetMillis: 11}}},
		{FrameMillis: 100, CyclesPerMilli: 1, Tasks: []Task{{Name: "t", PeriodMillis: 10, BudgetMillis: 4, PhaseMillis: 8}}},
		{FrameMillis: 100, CyclesPerMilli: 1, Tasks: []Task{{Name: "t", PeriodMillis: 10, BudgetMillis: 1, JitterMillis: -2}}},
		{FrameMillis: 100, CyclesPerMilli: 1, Tasks: []Task{{Name: "t", PeriodMillis: 10, BudgetMillis: 1, StackBoundBytes: -1}}},
		{FrameMillis: 100, CyclesPerMilli: 1, Tasks: []Task{ // budget exceeds base segment
			{Name: "a", PeriodMillis: 10, BudgetMillis: 1},
			{Name: "b", PeriodMillis: 100, BudgetMillis: 20, PhaseMillis: 0}}},
	}
	for i, s := range bad {
		if errs := s.Validate(); len(errs) == 0 {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestDrawDetIsNominal(t *testing.T) {
	spec := caseStudySpec()
	fs, err := Draw(spec, Policy{}, prng.NewMWC(7))
	if err != nil {
		t.Fatal(err)
	}
	want := nominalSchedule(spec)
	if !reflect.DeepEqual(fs, want) {
		t.Fatalf("det draw != nominal:\n%+v\n%+v", fs, want)
	}
	if vs := spec.Check(fs); len(vs) > 0 {
		t.Fatalf("nominal schedule infeasible: %v", vs)
	}
	// 11 windows: 10 processing + 1 control.
	if len(fs.Windows) != 11 {
		t.Fatalf("got %d windows, want 11", len(fs.Windows))
	}
}

func TestDrawByteDeterministicPerSeed(t *testing.T) {
	spec := caseStudySpec()
	pol := fullPolicy()
	a, err := Draw(spec, pol, prng.NewMWC(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Draw(spec, pol, prng.NewMWC(42))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	// Over a handful of seeds the draws should not all collapse onto
	// one schedule.
	distinct := 0
	for seed := uint64(0); seed < 8; seed++ {
		fs, err := Draw(spec, pol, prng.NewMWC(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fs, a) {
			distinct++
		}
	}
	if distinct == 0 {
		t.Fatal("8 seeds all drew the same schedule")
	}
}

func TestDrawAlwaysFeasible(t *testing.T) {
	spec := caseStudySpec()
	for _, pol := range []Policy{
		{},
		{SlotJitterMillis: 40},
		{PermuteOrder: true},
		{SegmentChoice: true},
		fullPolicy(),
	} {
		for seed := uint64(0); seed < 50; seed++ {
			fs, err := Draw(spec, pol, prng.NewMWC(seed))
			if err != nil {
				t.Fatalf("%v seed %d: %v", pol, seed, err)
			}
			if vs := spec.Check(fs); len(vs) > 0 {
				t.Fatalf("%v seed %d drew infeasible schedule: %v\n%+v", pol, seed, vs, fs)
			}
		}
	}
}

func TestDrawRejectsInvalid(t *testing.T) {
	if _, err := Draw(&Spec{}, Policy{}, prng.NewMWC(1)); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := Draw(caseStudySpec(), Policy{SlotJitterMillis: -1}, prng.NewMWC(1)); err == nil {
		t.Error("negative jitter accepted")
	}
}

func TestDrawDeadEnd(t *testing.T) {
	// Three 40ms windows cannot share one 100ms segment: the third
	// placement dead-ends under a non-deterministic policy.
	spec := &Spec{
		FrameMillis:    100,
		CyclesPerMilli: 1000,
		Tasks: []Task{
			{Name: "a", PeriodMillis: 100, BudgetMillis: 40, PhaseMillis: 0, JitterMillis: -1},
			{Name: "b", PeriodMillis: 100, BudgetMillis: 40, PhaseMillis: 40, JitterMillis: -1},
			{Name: "c", PeriodMillis: 100, BudgetMillis: 40, PhaseMillis: 60, JitterMillis: -1},
		},
	}
	if _, err := Draw(spec, Policy{SlotJitterMillis: 5}, prng.NewMWC(3)); err == nil {
		t.Fatal("overcommitted segment drew successfully")
	}
}

func TestCheckCatchesTampering(t *testing.T) {
	spec := caseStudySpec()
	fs := nominalSchedule(spec)
	// Overlap: shift control onto processing's first window.
	tampered := *fs
	tampered.Windows = append([]PlacedWindow(nil), fs.Windows...)
	for i := range tampered.Windows {
		if tampered.Windows[i].Task == "control" {
			tampered.Windows[i].StartMillis = 10
			tampered.Windows[i].Segment = 0
		}
	}
	sortWindows(tampered.Windows)
	if vs := spec.Check(&tampered); len(vs) == 0 {
		t.Error("overlapping schedule accepted")
	}
	// Missing activation.
	short := &FrameSchedule{Windows: fs.Windows[:len(fs.Windows)-1]}
	if vs := spec.Check(short); len(vs) == 0 {
		t.Error("incomplete schedule accepted")
	}
	// Unknown task.
	alien := &FrameSchedule{Windows: []PlacedWindow{{Task: "ghost", BudgetMillis: 1}}}
	if vs := spec.Check(alien); len(vs) == 0 {
		t.Error("unknown task accepted")
	}
	// Jitter breach: processing activation 1 moved to the end of its
	// period (deviation 40 < start 140-100 yields deviation 40 — use 41).
	late := *fs
	late.Windows = append([]PlacedWindow(nil), fs.Windows...)
	for i := range late.Windows {
		if late.Windows[i].Task == "processing" && late.Windows[i].Activation == 1 {
			late.Windows[i].StartMillis = 141
			late.Windows[i].Segment = 1
		}
	}
	sortWindows(late.Windows)
	if vs := spec.Check(&late); len(vs) == 0 {
		t.Error("jitter breach accepted")
	}
}

func TestCheckCritOrder(t *testing.T) {
	spec := &Spec{
		FrameMillis:    100,
		CyclesPerMilli: 1000,
		CritOrdered:    true,
		Tasks: []Task{
			{Name: "hi", PeriodMillis: 100, BudgetMillis: 10, PhaseMillis: 0, Criticality: 1, JitterMillis: -1},
			{Name: "lo", PeriodMillis: 100, BudgetMillis: 10, PhaseMillis: 10, Criticality: 0, JitterMillis: -1},
		},
	}
	if vs := spec.Check(nominalSchedule(spec)); len(vs) > 0 {
		t.Fatalf("crit-ordered nominal rejected: %v", vs)
	}
	swapped := &FrameSchedule{Windows: []PlacedWindow{
		{Task: "lo", Activation: 0, StartMillis: 0, Segment: 0, BudgetMillis: 10},
		{Task: "hi", Activation: 0, StartMillis: 10, Segment: 0, BudgetMillis: 10},
	}}
	if vs := spec.Check(swapped); len(vs) == 0 {
		t.Error("low-before-high criticality order accepted")
	}
}

func TestPriorityOrder(t *testing.T) {
	spec := &Spec{
		FrameMillis:    100,
		CyclesPerMilli: 1,
		Tasks: []Task{
			{Name: "z-slow", PeriodMillis: 100, BudgetMillis: 1, Criticality: 0},
			{Name: "b-crit", PeriodMillis: 100, BudgetMillis: 1, Criticality: 5},
			{Name: "a-fast", PeriodMillis: 50, BudgetMillis: 1, Criticality: 0},
			{Name: "a-slow", PeriodMillis: 100, BudgetMillis: 1, Criticality: 0},
		},
	}
	var names []string
	for _, i := range spec.priorityOrder() {
		names = append(names, spec.Tasks[i].Name)
	}
	want := []string{"b-crit", "a-fast", "a-slow", "z-slow"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("priority order %v, want %v", names, want)
	}
}
