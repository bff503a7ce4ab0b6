package telemetry

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dsr/internal/mem"
)

func TestCounterGaugeIdentity(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs", Labels{"series": "a"}).Add(2)
	r.Counter("runs", Labels{"series": "a"}).Inc()
	r.Counter("runs", Labels{"series": "b"}).Inc()
	if got := r.Counter("runs", Labels{"series": "a"}).Value(); got != 3 {
		t.Errorf("counter a = %d, want 3", got)
	}
	if got := r.Counter("runs", Labels{"series": "b"}).Value(); got != 1 {
		t.Errorf("counter b = %d, want 1", got)
	}
	r.Gauge("temp", nil).Set(1.5)
	r.Gauge("temp", nil).Set(2.5)
	if got := r.Gauge("temp", nil).Value(); got != 2.5 {
		t.Errorf("gauge = %g, want last value 2.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", nil, []float64{10, 100, 1000})
	for _, v := range []float64{5, 10, 11, 99, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 5125 {
		t.Errorf("count=%d sum=%g", h.Count(), h.Sum())
	}
	cum, _, _ := h.snapshot()
	want := []uint64{2, 4, 4} // <=10: {5,10}; <=100: +{11,99}; <=1000: same
	for i := range want {
		if cum[i] != want[i] {
			t.Errorf("cum[%d]=%d want %d", i, cum[i], want[i])
		}
	}
	// Bounds are fixed by the first registration of the name.
	h2 := r.Histogram("lat", Labels{"k": "v"}, []float64{1, 2})
	if got := len(h2.Bounds()); got != 3 {
		t.Errorf("second registration got %d bounds, want the fixed 3", got)
	}
}

func TestRegistrySnapshotDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("z", nil).Inc()
	r.Counter("a", Labels{"x": "2"}).Inc()
	r.Counter("a", Labels{"x": "1"}).Inc()
	r.Gauge("g", nil).Set(1)
	r.Histogram("h", nil, []float64{1}).Observe(0.5)
	s1, s2 := r.Snapshot(), r.Snapshot()
	if len(s1) != 5 {
		t.Fatalf("snapshot has %d metrics, want 5", len(s1))
	}
	for i := range s1 {
		if s1[i].Name != s2[i].Name || s1[i].Labels.canonical() != s2[i].Labels.canonical() {
			t.Fatalf("snapshot order not deterministic at %d", i)
		}
	}
	if s1[0].Name != "a" || s1[0].Labels["x"] != "1" {
		t.Errorf("first metric = %s{%s}, want a{x=1}", s1[0].Name, s1[0].Labels.canonical())
	}
}

func TestNilRegistryNoops(t *testing.T) {
	var r *Registry
	r.Counter("c", nil).Inc()
	r.Gauge("g", nil).Set(1)
	r.Histogram("h", nil, nil).Observe(1)
	if got := r.Snapshot(); got != nil {
		t.Errorf("nil registry snapshot = %v, want nil", got)
	}
	if n := testing.AllocsPerRun(100, func() {
		r.Counter("c", nil).Inc()
		r.Histogram("h", nil, nil).Observe(1)
	}); n != 0 {
		t.Errorf("nil registry allocates %g per op, want 0", n)
	}
}

func TestAttributionZeroValueUsable(t *testing.T) {
	// Regression: Component's zero value is CompBaseIssue, so the zero
	// Attribution must book to the charged component, not redirect.
	var a Attribution
	a.Charge(CompDRAM, 7)
	a.Charge(CompL2, 3)
	if got := a.Component(CompDRAM); got != 7 {
		t.Errorf("zero-value attribution booked DRAM charge to %d cycles, want 7", got)
	}
	if got := a.Component(CompBaseIssue); got != 0 {
		t.Errorf("zero-value attribution redirected %d cycles to base_issue", got)
	}
}

func TestAttributionHushOuterWins(t *testing.T) {
	a := NewAttribution()
	a.Charge(CompDL1, 3)
	// A window trap (outer span) around a DTLB walk (inner span): the
	// walk traffic's own bookings are dropped, the inner span books
	// nothing, and the outer span books its whole delta to the trap.
	a.Hush()
	a.Charge(CompDRAM, 10)
	a.Hush()
	a.Charge(CompBus, 4)
	a.Unhush(CompDTLBWalk, 14)
	a.Charge(CompDL1, 5)
	a.Unhush(CompWindowTrap, 25)
	a.Charge(CompDL1, 2)
	if got := a.Component(CompWindowTrap); got != 25 {
		t.Errorf("trap bucket = %d, want 25 (the outer span's delta)", got)
	}
	for _, c := range []Component{CompDTLBWalk, CompDRAM, CompBus} {
		if got := a.Component(c); got != 0 {
			t.Errorf("%s bucket = %d, want 0 (booked inside the span)", c, got)
		}
	}
	if got := a.Component(CompDL1); got != 5 {
		t.Errorf("dl1 bucket = %d, want 5 (only the charges outside the span)", got)
	}
	if a.Total() != 30 {
		t.Errorf("total = %d, want 30", a.Total())
	}
	// A lone span books to its own component, and Reset closes any
	// span left open.
	a.Hush()
	a.Unhush(CompStorePath, 6)
	if got := a.Component(CompStorePath); got != 6 {
		t.Errorf("store_path bucket = %d, want 6", got)
	}
	a.Hush()
	a.Reset()
	a.Charge(CompDRAM, 1)
	if a.Total() != 1 {
		t.Errorf("after Reset a charge booked %d cycles, want 1", a.Total())
	}
}

func TestAttributionSnapshotAggregation(t *testing.T) {
	a := NewAttribution()
	a.Charge(CompBaseIssue, 100)
	a.Charge(CompDRAM, 50)
	s := a.Snapshot()
	if !s.Valid || s.Total() != 150 {
		t.Fatalf("snapshot valid=%v total=%d", s.Valid, s.Total())
	}
	var agg AttributionSnapshot
	agg.Add(s)
	agg.Add(s)
	if agg.Total() != 300 || !agg.Valid {
		t.Errorf("aggregate total=%d valid=%v, want 300/true", agg.Total(), agg.Valid)
	}
	out := agg.Render()
	if !strings.Contains(out, "base_issue") || !strings.Contains(out, "66.7%") {
		t.Errorf("render missing rows:\n%s", out)
	}
	var nilAtt *Attribution
	if nilAtt.Snapshot().Valid {
		t.Error("nil attribution snapshot claims validity")
	}
}

func TestEventLogRing(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 6; i++ {
		l.EmitAt(mem.Cycles(i), "t", "k", PhaseInstant, Int("i", i))
	}
	if l.Len() != 4 || l.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 4/2", l.Len(), l.Dropped())
	}
	evs := l.Events()
	if evs[0].Seq != 2 || evs[3].Seq != 5 {
		t.Errorf("ring kept seqs %d..%d, want oldest-first 2..5", evs[0].Seq, evs[3].Seq)
	}
	if v, ok := evs[0].Attr("i"); !ok || v != "2" {
		t.Errorf("attr i = %q (%v)", v, ok)
	}
}

func TestEventLogClockAndNil(t *testing.T) {
	l := NewEventLog(8)
	var now mem.Cycles = 42
	l.SetClock(func() mem.Cycles { return now })
	l.Emit("t", "k", PhaseInstant)
	now = 99
	l.Emit("t", "k", PhaseInstant)
	evs := l.Events()
	if evs[0].TS != 42 || evs[1].TS != 99 {
		t.Errorf("clock stamps = %d, %d", evs[0].TS, evs[1].TS)
	}

	var nilLog *EventLog
	nilLog.Emit("t", "k", PhaseInstant)
	nilLog.SetClock(func() mem.Cycles { return 0 })
	if nilLog.Len() != 0 || nilLog.Dropped() != 0 || nilLog.Events() != nil {
		t.Error("nil log is not inert")
	}
	if n := testing.AllocsPerRun(100, func() {
		nilLog.Emit("t", "k", PhaseInstant)
	}); n != 0 {
		t.Errorf("nil log allocates %g per emit, want 0", n)
	}
}

// TestAttrFormatting pins the strconv-built attribute values to the
// fmt verbs they replaced: %d for the integer helpers, %g for Float.
func TestAttrFormatting(t *testing.T) {
	for _, v := range []uint64{0, 1, 1 << 53, math.MaxUint64} {
		if got, want := Uint64("k", v).Value, fmt.Sprintf("%d", v); got != want {
			t.Errorf("Uint64(%d) = %q, want %q", v, got, want)
		}
		if got, want := Cycles("k", mem.Cycles(v)).Value, fmt.Sprintf("%d", v); got != want {
			t.Errorf("Cycles(%d) = %q, want %q", v, got, want)
		}
	}
	for _, v := range []int{0, 7, -1, -42, math.MaxInt, math.MinInt} {
		if got, want := Int("k", v).Value, fmt.Sprintf("%d", v); got != want {
			t.Errorf("Int(%d) = %q, want %q", v, got, want)
		}
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -2.5, 0.42, 1e-7, 1e20, 1e21, 123456789,
		math.SmallestNonzeroFloat64, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, want := Float("k", v).Value, fmt.Sprintf("%g", v); got != want {
			t.Errorf("Float(%v) = %q, want %q", v, got, want)
		}
	}
}
