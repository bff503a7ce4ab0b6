package rtos

import (
	"bytes"
	"testing"

	"dsr/internal/analysis/schedfeas"
	"dsr/internal/mem"
	"dsr/internal/telemetry"
)

// The executive's telemetry contract: rtos.window spans pair begin/end
// per track and end at start+used, and the Chrome-trace export of a
// frame trace passes the same span validation dsrstat's validate
// command applies.

func TestSchedulerTelemetryChromeTrace(t *testing.T) {
	acts, log := runRogueFrames(t)
	if !acts[0].Overrun() || acts[1].Overrun() {
		t.Fatalf("expected rogue overrun + clean control, got %+v", acts)
	}
	// Raw event contract: one begin/end pair per window, overrun
	// instants (their timestamps are checked by
	// TestTemporalIsolationCutsOverrun) only for the rogue partition.
	var begins, ends, overruns int
	for _, e := range log.Events() {
		switch {
		case e.Kind == "rtos.window" && e.Phase == telemetry.PhaseBegin:
			begins++
		case e.Kind == "rtos.window" && e.Phase == telemetry.PhaseEnd:
			ends++
		case e.Kind == "rtos.overrun":
			if e.Phase != telemetry.PhaseInstant {
				t.Errorf("overrun emitted as phase %v, want instant", e.Phase)
			}
			if e.Track != "processing" {
				t.Errorf("overrun on track %s", e.Track)
			}
			overruns++
		}
	}
	if begins != 4 || ends != 4 {
		t.Errorf("window begin/end counts %d/%d, want 4/4", begins, ends)
	}
	if overruns != 2 {
		t.Errorf("overrun instants=%d, want 2 (one per frame)", overruns)
	}

	// The Chrome-trace export of the frames passes dsrstat-style span
	// validation (B/E pairing, nesting, monotonic timestamps per track).
	var buf bytes.Buffer
	if err := telemetry.NewDump(telemetry.NewRegistry(), log).WriteChromeTrace(&buf, 0); err != nil {
		t.Fatal(err)
	}
	spans, err := telemetry.ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("frame trace fails validation: %v", err)
	}
	if spans != 4 {
		t.Errorf("validated %d span pairs, want 4 (2 windows x 2 frames)", spans)
	}
}

func TestTelemetryCompletedEndsEarly(t *testing.T) {
	// A completing partition's span must end at start+used, strictly
	// before the window budget expires — the span length is the
	// partition's measured execution time, not the reservation.
	cert := certify(t, schedfeas.Task{Name: "control", PeriodMillis: 1000, BudgetMillis: 500,
		Criticality: 1, JitterMillis: -1})
	ex, err := NewRandomizedExecutive(DefaultConfig(),
		[]*Partition{loopPartition(t, "control", 100, HighCriticality)}, cert, 1)
	if err != nil {
		t.Fatal(err)
	}
	log := telemetry.NewEventLog(0)
	ex.SetEventLog(log)
	acts, err := ex.RunMajorFrames(1)
	if err != nil {
		t.Fatal(err)
	}
	var begin, end mem.Cycles
	for _, e := range log.Events() {
		switch {
		case e.Kind == "rtos.overrun":
			t.Error("completed run emitted an overrun instant")
		case e.Kind == "rtos.window" && e.Phase == telemetry.PhaseBegin:
			begin = e.TS
		case e.Kind == "rtos.window" && e.Phase == telemetry.PhaseEnd:
			end = e.TS
		}
	}
	if got := end - begin; got != acts[0].Cycles {
		t.Errorf("span length %d cycles, want measured %d", got, acts[0].Cycles)
	}
	if end >= begin+acts[0].Budget {
		t.Error("completed span consumed the whole budget")
	}
}

func TestRandomizedExecutiveTelemetryChromeTrace(t *testing.T) {
	ex, err := NewRandomizedExecutive(DefaultConfig(), randomizedPair(t), caseStudyCert(t, fullPolicy()), 5)
	if err != nil {
		t.Fatal(err)
	}
	log := telemetry.NewEventLog(0)
	ex.SetEventLog(log)
	if _, err := ex.RunMajorFrames(3); err != nil {
		t.Fatal(err)
	}
	// Begin timestamps must equal the drawn schedule's start offsets —
	// the trace is the adversary-visible arrival sequence.
	cfg := DefaultConfig()
	var begins []mem.Cycles
	for _, e := range log.Events() {
		if e.Kind == "rtos.window" && e.Phase == telemetry.PhaseBegin {
			begins = append(begins, e.TS)
		}
		if e.Kind == "rtos.overrun" {
			t.Error("certified schedule produced an overrun")
		}
	}
	idx := 0
	for frame := 0; frame < 3; frame++ {
		fs, err := ex.DrawFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range fs.Windows {
			want := (mem.Cycles(frame)*mem.Cycles(cfg.MajorFrameMillis) +
				mem.Cycles(w.StartMillis)) * cfg.CyclesPerMilli
			if begins[idx] != want {
				t.Fatalf("begin %d at ts=%d, want %d (%s start %dms)",
					idx, begins[idx], want, w.Task, w.StartMillis)
			}
			idx++
		}
	}
	var buf bytes.Buffer
	if err := telemetry.NewDump(telemetry.NewRegistry(), log).WriteChromeTrace(&buf, 0); err != nil {
		t.Fatal(err)
	}
	spans, err := telemetry.ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("randomized frame trace fails validation: %v", err)
	}
	if spans != 3*11 {
		t.Errorf("validated %d span pairs, want 33", spans)
	}
}
