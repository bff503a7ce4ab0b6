package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestSpanKindRoundTrip(t *testing.T) {
	for k := SpanKind(0); k < numSpanKinds; k++ {
		got, err := ParseSpanKind(k.String())
		if err != nil {
			t.Fatalf("ParseSpanKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("ParseSpanKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := ParseSpanKind("nonsense"); err == nil {
		t.Fatal("ParseSpanKind accepted unknown kind")
	}
}

func TestTracerNilSafeZeroAlloc(t *testing.T) {
	var tr *Tracer
	w := tr.Worker(3)
	if w != nil {
		t.Fatal("nil tracer returned non-nil worker")
	}
	allocs := testing.AllocsPerRun(100, func() {
		m := w.Begin(SpanRun, 7)
		w.End(m)
		_ = tr.Now()
		_ = tr.Spans()
		_ = tr.LiveWorkers()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %.1f per op, want 0", allocs)
	}
}

func TestTracerSpansAndRunInheritance(t *testing.T) {
	tr := NewTracer()
	w := tr.Worker(0)

	run := w.Begin(SpanRun, 42)
	boot := w.Begin(SpanBoot, -1) // inherits run 42
	w.End(boot)
	exec := w.Begin(SpanExecute, -1)
	w.End(exec)
	w.End(run)

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(spans), spans)
	}
	byKind := map[string]Span{}
	for _, s := range spans {
		byKind[s.Kind] = s
	}
	for _, kind := range []string{"run", "boot", "execute"} {
		s, ok := byKind[kind]
		if !ok {
			t.Fatalf("missing %s span", kind)
		}
		if s.Run != 42 {
			t.Errorf("%s span run = %d, want 42 (inherited)", kind, s.Run)
		}
		if s.Worker != 0 {
			t.Errorf("%s span worker = %d, want 0", kind, s.Worker)
		}
	}
	// Parent sorts before children at the same start; nesting holds.
	if n, err := ValidateSpans(spans); err != nil || n != 3 {
		t.Fatalf("ValidateSpans = %d, %v", n, err)
	}
	// Run bookkeeping for live reads.
	live := tr.LiveWorkers()
	if len(live) != 1 || live[0].Runs != 1 || live[0].State != "idle" {
		t.Fatalf("LiveWorkers = %+v", live)
	}
}

func TestTracerUnbalancedEndCloses(t *testing.T) {
	tr := NewTracer()
	w := tr.Worker(1)
	run := w.Begin(SpanRun, 5)
	w.Begin(SpanBoot, -1) // never explicitly ended
	w.End(run)            // must close boot implicitly
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if _, err := ValidateSpans(spans); err != nil {
		t.Fatalf("ValidateSpans: %v", err)
	}
	if kind, _ := w.liveState(); kind != 0 {
		t.Fatal("worker not idle after closing all spans")
	}
}

// TestTracerLiveState: a full tracer and a live-only one book the same
// live state (innermost span, run, completed runs); only the full one
// keeps the span timeline.
func TestTracerLiveState(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tr    *Tracer
		spans int
	}{{"full", NewTracer(), 2}, {"live", NewLiveTracer(), 0}} {
		tr := tc.tr
		w := tr.Worker(2)
		run := w.Begin(SpanRun, 9)
		boot := w.Begin(SpanBoot, -1)
		live := tr.LiveWorkers()
		if len(live) != 1 || live[0].State != "boot" || live[0].Run != 9 {
			t.Fatalf("%s: live during boot = %+v", tc.name, live)
		}
		w.End(boot)
		live = tr.LiveWorkers()
		if live[0].State != "run" || live[0].Run != 9 {
			t.Fatalf("%s: live after boot end = %+v", tc.name, live)
		}
		w.End(run)
		if live = tr.LiveWorkers(); live[0].State != "idle" || live[0].Run != -1 || live[0].Runs != 1 {
			t.Fatalf("%s: live after run end = %+v", tc.name, live)
		}
		if spans := tr.Spans(); len(spans) != tc.spans || (tc.spans == 0 && spans != nil) {
			t.Fatalf("%s: tracer kept spans %+v, want %d", tc.name, spans, tc.spans)
		}
	}
}

func TestValidateSpansRejectsPartialOverlap(t *testing.T) {
	bad := []Span{
		{Worker: 0, Run: 0, Kind: "run", Start: 0, Dur: 100},
		{Worker: 0, Run: 1, Kind: "boot", Start: 50, Dur: 100}, // crosses run end
	}
	if _, err := ValidateSpans(bad); err == nil {
		t.Fatal("ValidateSpans accepted partially overlapping spans")
	}
	if _, err := ValidateSpans([]Span{{Kind: "bogus"}}); err == nil {
		t.Fatal("ValidateSpans accepted unknown kind")
	}
	if _, err := ValidateSpans([]Span{{Kind: "run", Start: -1}}); err == nil {
		t.Fatal("ValidateSpans accepted negative start")
	}
}

// synthSpans builds a plausible 2-worker campaign timeline.
func synthSpans() []Span {
	var spans []Span
	spans = append(spans, Span{Worker: -1, Run: -1, Kind: "campaign", Start: 0, Dur: 1000})
	for w := 0; w < 2; w++ {
		base := int64(10)
		spans = append(spans, Span{Worker: w, Run: -1, Kind: "worker", Start: base, Dur: 900})
		spans = append(spans, Span{Worker: w, Run: -1, Kind: "setup", Start: base, Dur: 50})
		cur := base + 50
		for r := 0; r < 3; r++ {
			run := w*3 + r
			spans = append(spans, Span{Worker: w, Run: run, Kind: "claim", Start: cur, Dur: 5})
			cur += 5
			spans = append(spans, Span{Worker: w, Run: run, Kind: "run", Start: cur, Dur: 200})
			spans = append(spans, Span{Worker: w, Run: run, Kind: "boot", Start: cur, Dur: 40})
			spans = append(spans, Span{Worker: w, Run: run, Kind: "reloc", Start: cur + 40, Dur: 30})
			spans = append(spans, Span{Worker: w, Run: run, Kind: "execute", Start: cur + 70, Dur: 120})
			cur += 200
		}
	}
	for r := 0; r < 6; r++ {
		spans = append(spans, Span{Worker: -1, Run: r, Kind: "merge.wait", Start: int64(100 + r*120), Dur: 100})
		spans = append(spans, Span{Worker: -1, Run: r, Kind: "merge", Start: int64(200 + r*120), Dur: 20})
	}
	return spans
}

func TestAnalyzeSpansReport(t *testing.T) {
	rep, err := AnalyzeSpans(synthSpans())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalRuns != 6 {
		t.Fatalf("TotalRuns = %d, want 6", rep.TotalRuns)
	}
	if len(rep.Workers) != 2 {
		t.Fatalf("workers = %d, want 2", len(rep.Workers))
	}
	w0 := rep.Workers[0]
	if w0.Runs != 3 || w0.BusyNs != 600 || w0.BootNs != 120 || w0.RelocNs != 90 || w0.ExecNs != 360 {
		t.Fatalf("worker 0 stats wrong: %+v", w0)
	}
	if w0.ClaimNs != 15 || w0.SetupNs != 50 {
		t.Fatalf("worker 0 claim/setup wrong: %+v", w0)
	}
	if rep.MergeNs != 120 || rep.MergeWaitNs != 600 {
		t.Fatalf("merge stats wrong: %+v", rep)
	}
	if rep.ClaimMax != 5 {
		t.Fatalf("claim max = %d, want 5", rep.ClaimMax)
	}
	out := rep.Render()
	for _, want := range []string{"bottleneck:", "worker", "claim latency", "phase totals"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestBottleneckHeuristics(t *testing.T) {
	cases := []struct {
		name string
		rep  SpanReport
		want string
	}{
		{"merge", SpanReport{CampaignNs: 1000, MergeNs: 600,
			Workers: []WorkerStats{{SpanNs: 1000, BusyNs: 300, Busy: 0.3}}}, BottleneckMerge},
		{"setup", SpanReport{CampaignNs: 1000, SetupNs: 400,
			Workers: []WorkerStats{{SpanNs: 1000, SetupNs: 400, BusyNs: 300, Busy: 0.3}}}, BottleneckConstruction},
		{"claim", SpanReport{CampaignNs: 1000,
			Workers: []WorkerStats{{SpanNs: 1000, ClaimNs: 300, BusyNs: 300, Busy: 0.3}}}, BottleneckClaim},
		{"alloc", SpanReport{CampaignNs: 1000,
			Workers: []WorkerStats{{SpanNs: 1000, BusyNs: 900, Busy: 0.9}}}, BottleneckMemoryPressure},
		{"tail", SpanReport{CampaignNs: 1000,
			Workers: []WorkerStats{{SpanNs: 1000, BusyNs: 300, Busy: 0.3, IdleNs: 700}}}, BottleneckImbalance},
	}
	for _, c := range cases {
		if got := c.rep.BottleneckClass(); got != c.want {
			t.Errorf("%s: BottleneckClass() = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestSpanJSONLRoundTrip(t *testing.T) {
	d := &Dump{Spans: synthSpans()}
	var buf bytes.Buffer
	if err := d.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Spans) != len(d.Spans) {
		t.Fatalf("round-trip %d spans, want %d", len(back.Spans), len(d.Spans))
	}
	for i := range d.Spans {
		if back.Spans[i] != d.Spans[i] {
			t.Fatalf("span %d: %+v != %+v", i, back.Spans[i], d.Spans[i])
		}
	}
}

func TestWriteSpanTraceValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSpanTrace(&buf, synthSpans()); err != nil {
		t.Fatal(err)
	}
	pairs, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("span trace fails chrome validation: %v", err)
	}
	if pairs == 0 {
		t.Fatal("no span pairs in chrome trace")
	}
	if !strings.Contains(buf.String(), "worker 1") || !strings.Contains(buf.String(), "campaign") {
		t.Fatal("missing thread names in span trace")
	}
}

func TestTracerSpansFromLiveTracerValidate(t *testing.T) {
	tr := NewTracer()
	camp := tr.Worker(-1).Begin(SpanCampaign, -1)
	for w := 0; w < 3; w++ {
		wt := tr.Worker(w)
		ws := wt.Begin(SpanWorker, -1)
		setup := wt.Begin(SpanSetup, -1)
		wt.End(setup)
		for r := 0; r < 4; r++ {
			cl := wt.Begin(SpanClaim, w*4+r)
			wt.End(cl)
			run := wt.Begin(SpanRun, w*4+r)
			b := wt.Begin(SpanBoot, -1)
			wt.End(b)
			e := wt.Begin(SpanExecute, -1)
			wt.End(e)
			wt.End(run)
		}
		wt.End(ws)
	}
	tr.Worker(-1).End(camp)

	spans := tr.Spans()
	if _, err := ValidateSpans(spans); err != nil {
		t.Fatalf("live tracer spans invalid: %v", err)
	}
	rep, err := AnalyzeSpans(spans)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalRuns != 12 || len(rep.Workers) != 3 {
		t.Fatalf("report = %d runs / %d workers, want 12/3", rep.TotalRuns, len(rep.Workers))
	}
	var buf bytes.Buffer
	if err := WriteSpanTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("live span trace fails chrome validation: %v", err)
	}
}
