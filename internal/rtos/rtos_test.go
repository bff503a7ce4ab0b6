package rtos

import (
	"testing"

	"dsr/internal/analysis/schedfeas"
	"dsr/internal/isa"
	"dsr/internal/loader"
	"dsr/internal/mem"
	"dsr/internal/platform"
	"dsr/internal/prog"
	"dsr/internal/telemetry"
)

// loopProgram spins for roughly `iters` loop iterations then halts,
// returning iters in %o0.
func loopProgram(t *testing.T, name string, iters int32) *prog.Program {
	t.Helper()
	p := &prog.Program{Name: name, Entry: "main"}
	b := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.L0, 0).
		Label("loop").
		AddI(isa.L0, isa.L0, 1).
		CmpI(isa.L0, iters).
		Bl("loop").
		Mov(isa.O0, isa.L0).
		Halt()
	if err := p.AddFunction(b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	return p
}

// loopRunner hosts loopProgram on a platform of its own; every
// activation restores the booted snapshot (the partition reboot).
type loopRunner struct {
	name string
	plat *platform.Platform
	snap *platform.Snapshot
}

func (r *loopRunner) Name() string { return r.name }

func (r *loopRunner) Activate(uint64) error {
	r.plat.Restore(r.snap)
	return nil
}

func (r *loopRunner) Execute(budget mem.Cycles) (platform.RunResult, bool, error) {
	return r.plat.RunBudget(budget)
}

func loopPartition(t *testing.T, name string, iters int32, crit Criticality) *Partition {
	t.Helper()
	img, err := loader.Load(loopProgram(t, name, iters), loader.DefaultSequentialConfig())
	if err != nil {
		t.Fatal(err)
	}
	plat := platform.New(platform.ProximaLEON3())
	plat.LoadImage(img)
	return &Partition{
		Name:        name,
		Criticality: crit,
		Runner:      &loopRunner{name: name, plat: plat, snap: plat.Snapshot()},
	}
}

// byPartition filters activation records.
func byPartition(acts []Activation, name string) []Activation {
	var out []Activation
	for _, a := range acts {
		if a.Partition == name {
			out = append(out, a)
		}
	}
	return out
}

// certify analyses tasks on the case study's clock and frame under the
// deterministic policy, so every frame runs the nominal schedule.
func certify(t *testing.T, tasks ...schedfeas.Task) *schedfeas.Certificate {
	t.Helper()
	cfg := DefaultConfig()
	spec := &schedfeas.Spec{FrameMillis: cfg.MajorFrameMillis, CyclesPerMilli: cfg.CyclesPerMilli, Tasks: tasks}
	rep := schedfeas.Analyze(spec, schedfeas.Policy{}, schedfeas.Config{})
	if rep.Cert == nil {
		t.Fatalf("spec not certifiable: %v", rep.Violations)
	}
	return rep.Cert
}

// runRogueFrames runs two frames of a rogue processing partition in a
// 10ms window at offset 0 followed by a 100-iteration control partition
// in a 300ms window at offset 100ms, logging the executive's events.
func runRogueFrames(t *testing.T) ([]Activation, *telemetry.EventLog) {
	t.Helper()
	cert := certify(t,
		schedfeas.Task{Name: "processing", PeriodMillis: 1000, BudgetMillis: 10, JitterMillis: -1},
		schedfeas.Task{Name: "control", PeriodMillis: 1000, BudgetMillis: 300, PhaseMillis: 100,
			Criticality: 1, JitterMillis: -1})
	rogue := loopPartition(t, "processing", 100_000_000, LowCriticality)
	ctrl := loopPartition(t, "control", 100, HighCriticality)
	ex, err := NewRandomizedExecutive(DefaultConfig(), []*Partition{rogue, ctrl}, cert, 1)
	if err != nil {
		t.Fatal(err)
	}
	log := telemetry.NewEventLog(0)
	ex.SetEventLog(log)
	acts, err := ex.RunMajorFrames(2)
	if err != nil {
		t.Fatal(err)
	}
	return acts, log
}

func TestTemporalIsolationCutsOverrun(t *testing.T) {
	// A "malfunctioning" processing task that spins far beyond its window
	// must be cut off at the window end, and the control task must still
	// run. The rogue task declares no WCET bound, so the analyzer's
	// budget-fit check cannot reject it and the cut-off is exercised at
	// run time.
	acts, log := runRogueFrames(t)
	if len(acts) != 4 {
		t.Fatalf("activations=%d, want 4", len(acts))
	}
	for f := 0; f < 2; f++ {
		r, c := acts[2*f], acts[2*f+1]
		if r.Partition != "processing" || c.Partition != "control" {
			t.Fatalf("frame %d ran %s then %s", f, r.Partition, c.Partition)
		}
		if r.Completed {
			t.Errorf("frame %d: rogue partition not flagged as overrun", f)
		}
		if r.Cycles < r.Budget {
			t.Errorf("frame %d: overrun cut at %d cycles, before the %d-cycle budget", f, r.Cycles, r.Budget)
		}
		if !c.Completed || c.Result.ExitValue != 100 {
			t.Errorf("frame %d: control affected by rogue partition: completed=%v result=%d",
				f, c.Completed, c.Result.ExitValue)
		}
	}

	cfg := DefaultConfig()
	// Temporal isolation clamps the rogue span at start+budget: frame
	// f's window [0,10)ms ends at (f*1000+10)*80k cycles, where both its
	// overrun instant and its window end land.
	var overruns, ends int
	for _, e := range log.Events() {
		if e.Track != "processing" {
			if e.Kind == "rtos.overrun" {
				t.Errorf("overrun on track %s", e.Track)
			}
			continue
		}
		switch {
		case e.Kind == "rtos.overrun":
			if e.Phase != telemetry.PhaseInstant {
				t.Errorf("overrun emitted as phase %v, want instant", e.Phase)
			}
			want := (mem.Cycles(overruns)*mem.Cycles(cfg.MajorFrameMillis) + 10) * cfg.CyclesPerMilli
			if e.TS != want {
				t.Errorf("overrun %d at ts=%d, want %d (clamped window end)", overruns, e.TS, want)
			}
			overruns++
		case e.Kind == "rtos.window" && e.Phase == telemetry.PhaseEnd:
			want := (mem.Cycles(ends)*mem.Cycles(cfg.MajorFrameMillis) + 10) * cfg.CyclesPerMilli
			if e.TS != want {
				t.Errorf("rogue window %d ends at ts=%d, want %d", ends, e.TS, want)
			}
			ends++
		}
	}
	if overruns != 2 || ends != 2 {
		t.Errorf("rogue overrun instants/window ends %d/%d, want 2/2 (one per frame)", overruns, ends)
	}
}

func TestCriticalityString(t *testing.T) {
	if HighCriticality.String() != "high" || LowCriticality.String() != "low" {
		t.Error("criticality strings")
	}
}
