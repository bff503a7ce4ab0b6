package telemetry

import (
	"reflect"
	"testing"

	"dsr/internal/mem"
)

// TestCaptureTakeReplay is the engine's event-merge primitive: events
// captured on a clockless worker log and replayed at the campaign
// clock must be indistinguishable from events emitted live into the
// campaign log.
func TestCaptureTakeReplay(t *testing.T) {
	emit := func(l *EventLog) {
		l.Emit("dsr", "dsr.reboot", PhaseInstant, Uint64("seed", 7))
		l.Emit("dsr", "dsr.reloc", PhaseInstant, String("func", "f1"))
		l.Emit("dsr", "dsr.reloc", PhaseInstant, String("func", "f2"))
	}

	// Live reference: a campaign log with a clock, events emitted
	// directly.
	var clock mem.Cycles = 12345
	live := NewEventLog(0)
	live.SetClock(func() mem.Cycles { return clock })
	emit(live)

	// Capture + replay: same events into a worker capture log, then
	// replayed at the same campaign clock position.
	replayed := NewEventLog(0)
	replayed.SetClock(func() mem.Cycles { return clock })
	capture := NewCaptureLog()
	emit(capture)
	replayed.ReplayAt(clock, capture.Take())

	if !reflect.DeepEqual(live.Events(), replayed.Events()) {
		t.Errorf("replayed events differ from live:\n live   %v\n replay %v",
			live.Events(), replayed.Events())
	}
}

// TestCaptureTakeResets checks Take drains the capture completely so
// consecutive runs on one worker produce independent captures with
// per-run sequence numbering.
func TestCaptureTakeResets(t *testing.T) {
	c := NewCaptureLog()
	c.Emit("t", "a", PhaseInstant)
	c.Emit("t", "b", PhaseInstant)
	first := c.Take()
	if len(first) != 2 {
		t.Fatalf("first take: %d events", len(first))
	}
	if c.Len() != 0 {
		t.Errorf("capture not drained: %d left", c.Len())
	}
	c.Emit("t", "c", PhaseInstant)
	second := c.Take()
	if len(second) != 1 {
		t.Fatalf("second take: %d events", len(second))
	}
	if second[0].Seq != 0 {
		t.Errorf("sequence did not restart: %d", second[0].Seq)
	}
	if got := c.Take(); got != nil {
		t.Errorf("empty take returned %v", got)
	}
}

// TestCaptureUnbounded checks capture logs never drop, unlike the ring.
func TestCaptureUnbounded(t *testing.T) {
	c := NewCaptureLog()
	const n = 10_000 // far beyond the default ring capacity
	for i := 0; i < n; i++ {
		c.Emit("t", "e", PhaseInstant)
	}
	if c.Len() != n || c.Dropped() != 0 {
		t.Errorf("capture len=%d dropped=%d, want %d/0", c.Len(), c.Dropped(), n)
	}
}

// TestReplayPreservesRingSemantics checks a replay into a small
// bounded ring drops the same way live emission would.
func TestReplayPreservesRingSemantics(t *testing.T) {
	mk := func() *EventLog { return NewEventLog(4) }
	live := mk()
	for i := 0; i < 6; i++ {
		live.EmitAt(mem.Cycles(i), "t", "e", PhaseInstant, Int("i", i))
	}
	replay := mk()
	c := NewCaptureLog()
	for i := 0; i < 6; i++ {
		c.EmitAt(mem.Cycles(i), "t", "e", PhaseInstant, Int("i", i))
	}
	replay.ReplayAt(0, c.Take())
	if !reflect.DeepEqual(live.Events(), replay.Events()) {
		t.Error("replayed ring contents differ from live emission")
	}
	if live.Dropped() != replay.Dropped() {
		t.Errorf("dropped counts differ: live %d replay %d", live.Dropped(), replay.Dropped())
	}
}

// TestReplayNilSafe checks the disabled-log path.
func TestReplayNilSafe(t *testing.T) {
	var l *EventLog
	l.ReplayAt(0, []Event{{Kind: "x"}})
	if l.Take() != nil {
		t.Error("nil Take")
	}
}
