package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"dsr/internal/mem"
)

// sampleDump builds a dump covering every metric kind (with and without
// labels) and an event stream with spans, instants and attributes.
func sampleDump() *Dump {
	r := NewRegistry()
	r.Counter("dsr_runs_total", Labels{"series": "Sw Rand"}).Add(500)
	r.Counter("plain_total", nil).Add(7)
	r.Gauge("last_seed", Labels{"series": "Sw Rand"}).Set(41.5)
	h := r.Histogram("run_cycles", Labels{"series": "Sw Rand"}, []float64{100, 1000, 10000})
	for _, v := range []float64{90, 110, 900, 2500, 50000} {
		h.Observe(v)
	}

	l := NewEventLog(64)
	l.EmitAt(0, "run", "run", PhaseBegin, Uint64("seed", 1), String("series", "Sw Rand"))
	l.EmitAt(10, "run", "uoa", PhaseBegin)
	l.EmitAt(90, "run", "dsr.reloc", PhaseInstant, Hex("new", 0x4000), Cycles("cost", 12))
	l.EmitAt(200, "run", "uoa", PhaseEnd)
	l.EmitAt(250, "run", "run", PhaseEnd)
	l.EmitAt(300, "mbpta", "mbpta.iid", PhaseInstant, Float("ks_p", 0.42))
	return NewDump(r, l)
}

func TestJSONLRoundTrip(t *testing.T) {
	d := sampleDump()
	var buf bytes.Buffer
	if err := d.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !MetricsEqual(d.Metrics, back.Metrics) {
		t.Error("jsonl round-trip changed the metrics")
	}
	// JSONL is the only format that carries events: require exact
	// structural equality, not just counts.
	if !reflect.DeepEqual(d.Events, back.Events) {
		t.Errorf("jsonl round-trip changed the events:\n got %+v\nwant %+v", back.Events, d.Events)
	}
}

// refWriteJSONL is the reflective JSONL encoder WriteJSONL replaced: a
// json.Encoder over one jsonlRecord per metric, event and span.
func refWriteJSONL(d *Dump) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range d.Metrics {
		if err := enc.Encode(jsonlRecord{Record: "metric", Metric: &d.Metrics[i]}); err != nil {
			return nil, err
		}
	}
	for i := range d.Events {
		if err := enc.Encode(jsonlRecord{Record: "event", Event: &d.Events[i]}); err != nil {
			return nil, err
		}
	}
	for i := range d.Spans {
		if err := enc.Encode(jsonlRecord{Record: "span", Span: &d.Spans[i]}); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// campaignDump is the dump of a runs-long campaign as serve.Run records
// it: UoA on most runs, attribution on every run, the default event
// ring (so a 1000-run campaign keeps its last 4,096 events).
func campaignDump(runs int) *Dump {
	c := NewCampaign(0)
	for i := 0; i < runs; i++ {
		var att Attribution
		att.Charge(CompBaseIssue, mem.Cycles(60000+i))
		att.Charge(CompDRAM, mem.Cycles(9000+7*i%500))
		if i%3 == 0 {
			att.Charge(CompBus, mem.Cycles(300+i%17))
		}
		rec := RunRecord{Series: "uoa", Index: i, Seed: uint64(i)*0x9E3779B97F4A7C15 + 1,
			Cycles: att.Total(), Attribution: att.Snapshot()}
		if i%4 != 0 {
			rec.UoA = float64(rec.Cycles) * 0.8
		}
		c.RecordRun(rec)
	}
	return c.Dump()
}

// TestWriteJSONLMatchesEncodingJSON: the append encoder writes the
// reflective encoder's bytes for every record shape — labelled and
// unlabelled metrics, histograms, floats on both sides of the 'f'/'e'
// switch, negative zero (omitted, as omitempty omits it), strings that
// need escaping, events with and without track and attributes, spans —
// and fails where it fails, on a non-finite value.
func TestWriteJSONLMatchesEncodingJSON(t *testing.T) {
	d := sampleDump()
	d.Metrics = append(d.Metrics,
		Metric{Kind: KindGauge, Name: "uoa<&>", Labels: Labels{"z": "last", "a": "x\"y", "m": "café\u2028", "q\n": ""},
			Value: 1e-7},
		Metric{Kind: KindGauge, Name: "huge", Value: -1e21},
		Metric{Kind: KindGauge, Name: "negzero", Labels: Labels{}, Value: math.Copysign(0, -1)},
		Metric{Kind: KindHistogram, Name: "h", Bounds: []float64{1e-9, 0.5, 123456789, 5e300},
			Counts: []uint64{0, 3, math.MaxUint64}, Sum: 2.5e-6, Count: 7},
		Metric{Kind: KindHistogram, Name: "empty", Bounds: []float64{}, Counts: []uint64{}},
	)
	d.Events = append(d.Events,
		Event{Seq: math.MaxUint64, TS: 1 << 62, Kind: "k\x01", Phase: PhaseInstant,
			Attrs: []Attr{{Key: "<k>", Value: "\xff"}, {Key: "", Value: ""}}},
		Event{Kind: "no.attrs", Phase: PhaseEnd, Attrs: []Attr{}},
	)
	d.Spans = []Span{
		{Worker: -1, Run: -1, Kind: "campaign", Start: 0, Dur: 123456789},
		{Worker: 1, Run: 42, Kind: "execute", Start: -5, Dur: 0},
	}
	for name, dump := range map[string]*Dump{"sample": d, "campaign": campaignDump(300), "empty": {}} {
		var got bytes.Buffer
		if err := dump.WriteJSONL(&got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := refWriteJSONL(dump)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: WriteJSONL bytes differ from encoding/json\n got %s\nwant %s", name, got.Bytes(), want)
		}
	}

	for _, bad := range []Metric{
		{Kind: KindGauge, Name: "nan", Value: math.NaN()},
		{Kind: KindHistogram, Name: "inf", Bounds: []float64{1, math.Inf(1)}, Counts: []uint64{1, 2}},
		{Kind: KindHistogram, Name: "sum", Bounds: []float64{1}, Counts: []uint64{1}, Sum: math.Inf(-1), Count: 1},
	} {
		dump := &Dump{Metrics: []Metric{bad}}
		_, werr := refWriteJSONL(dump)
		err := dump.WriteJSONL(io.Discard)
		if werr == nil || err == nil || err.Error() != "telemetry: jsonl: "+werr.Error() {
			t.Errorf("%s: WriteJSONL err %v, encoding/json err %v", bad.Name, err, werr)
		}
	}
}

// BenchmarkWriteJSONL is the job-end telemetry export of a 1000-run
// serve job: 4,096 retained events plus the campaign's metrics.
func BenchmarkWriteJSONL(b *testing.B) {
	d := campaignDump(1000)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := d.WriteJSONL(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(d.Metrics)+len(d.Events)), "records")
}

func TestCSVRoundTrip(t *testing.T) {
	d := sampleDump()
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "kind,name,labels,") {
		t.Errorf("csv header missing: %q", buf.String()[:40])
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !MetricsEqual(d.Metrics, back.Metrics) {
		t.Error("csv round-trip changed the metrics")
	}
}

func TestPrometheusRoundTrip(t *testing.T) {
	d := sampleDump()
	var buf bytes.Buffer
	if err := d.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, w := range []string{
		"# TYPE dsr_runs_total counter",
		"# TYPE run_cycles histogram",
		`run_cycles_bucket{le="+Inf",series="Sw Rand"} 5`,
		`run_cycles_count{series="Sw Rand"} 5`,
		"plain_total 7",
	} {
		if !strings.Contains(text, w) {
			t.Errorf("exposition missing %q:\n%s", w, text)
		}
	}
	back, err := ReadPrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if !MetricsEqual(d.Metrics, back.Metrics) {
		t.Errorf("prometheus round-trip changed the metrics:\n got %+v\nwant %+v", back.Metrics, d.Metrics)
	}
}

func TestMetricsEqualDetectsDrift(t *testing.T) {
	a := sampleDump().Metrics
	b := sampleDump().Metrics
	if !MetricsEqual(a, b) {
		t.Fatal("identical dumps compare unequal")
	}
	// Order-insensitive.
	rev := append([]Metric(nil), a...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if !MetricsEqual(a, rev) {
		t.Error("reordered metrics compare unequal")
	}
	b[0].Value++
	if MetricsEqual(a, b) {
		t.Error("value drift not detected")
	}
}

func TestChromeTraceValid(t *testing.T) {
	d := sampleDump()
	var buf bytes.Buffer
	if err := d.WriteChromeTrace(&buf, 0); err != nil {
		t.Fatal(err)
	}
	// Schema check: it must parse and satisfy the span invariants.
	spans, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if spans != 2 { // run and uoa
		t.Errorf("validated %d span pairs, want 2", spans)
	}
	// Structure check: thread-name metadata + cycle->us conversion.
	var tf struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	names := 0
	for _, e := range tf.TraceEvents {
		if e.Ph == "M" {
			names++
			continue
		}
		if e.Name == "mbpta.iid" && e.Ts != 300/DefaultCyclesPerMicro {
			t.Errorf("ts = %g us, want %g", e.Ts, 300/DefaultCyclesPerMicro)
		}
		if e.Ph == "i" && e.S != "t" {
			t.Errorf("instant %s missing scope", e.Name)
		}
	}
	if names != 2 { // "run" and "mbpta" tracks
		t.Errorf("%d thread_name rows, want 2", names)
	}
}

func TestValidateChromeTraceRejectsBadTraces(t *testing.T) {
	// The writer sanitizes its own output (ring truncation, see
	// TestWriteChromeTraceRingTruncation), so bad traces are built as
	// raw trace JSON: the validator guards foreign files too.
	mk := func(events ...TraceEvent) []byte {
		b, err := json.Marshal(traceFile{TraceEvents: events})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name   string
		events []TraceEvent
		want   string
	}{
		{"unmatched end", []TraceEvent{
			{Name: "a", Ph: "E", Ts: 0, Pid: 1, Tid: 1},
		}, "without open B"},
		{"left open", []TraceEvent{
			{Name: "a", Ph: "B", Ts: 0, Pid: 1, Tid: 1},
		}, "left open"},
		{"bad nesting", []TraceEvent{
			{Name: "a", Ph: "B", Ts: 0, Pid: 1, Tid: 1},
			{Name: "b", Ph: "B", Ts: 1, Pid: 1, Tid: 1},
			{Name: "a", Ph: "E", Ts: 2, Pid: 1, Tid: 1},
		}, "bad nesting"},
		{"non-monotonic", []TraceEvent{
			{Name: "a", Ph: "i", S: "t", Ts: 100, Pid: 1, Tid: 1},
			{Name: "b", Ph: "i", S: "t", Ts: 50, Pid: 1, Tid: 1},
		}, "not monotonic"},
	}
	for _, tc := range cases {
		if _, err := ValidateChromeTrace(bytes.NewReader(mk(tc.events...))); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if _, err := ValidateChromeTrace(strings.NewReader("not json")); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// TestWriteChromeTraceRingTruncation: the event log is a bounded ring,
// so a dump can start with an end whose begin was evicted, or stop with
// a begin whose end never arrived. The writer must still produce a
// schema-valid trace: orphan ends dropped, dangling begins closed.
func TestWriteChromeTraceRingTruncation(t *testing.T) {
	d := &Dump{Events: []Event{
		{TS: 10, Track: "t", Kind: "run", Phase: PhaseEnd}, // begin evicted
		{TS: 20, Track: "t", Kind: "run", Phase: PhaseBegin},
		{TS: 25, Track: "t", Kind: "uoa", Phase: PhaseInstant},
		{TS: 30, Track: "t", Kind: "run", Phase: PhaseEnd},
		{TS: 40, Track: "t", Kind: "run", Phase: PhaseBegin}, // end never recorded
	}}
	var buf bytes.Buffer
	if err := d.WriteChromeTrace(&buf, 0); err != nil {
		t.Fatal(err)
	}
	spans, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("truncated ring produced an invalid trace: %v", err)
	}
	if spans != 2 { // the complete pair + the defensively closed begin
		t.Errorf("trace has %d span pairs, want 2", spans)
	}
}

func TestCampaignRecordRun(t *testing.T) {
	c := NewCampaign(128)
	var att Attribution
	att.Charge(CompBaseIssue, 600)
	att.Charge(CompDRAM, 400)
	c.RecordRun(RunRecord{
		Series: "s", Index: 0, Seed: 9,
		Cycles: 1000, UoA: 900, Attribution: att.Snapshot(),
	})
	c.RecordRun(RunRecord{Series: "s", Index: 1, Seed: 10, Cycles: 500, UoA: 450})
	if got := c.Registry.Counter("dsr_runs_total", Labels{"series": "s"}).Value(); got != 2 {
		t.Errorf("dsr_runs_total = %d, want 2", got)
	}
	if got := c.Registry.Counter("dsr_run_cycles_total", Labels{"series": "s"}).Value(); got != 1500 {
		t.Errorf("dsr_run_cycles_total = %d, want 1500", got)
	}
	if got := c.Registry.Counter("dsr_attributed_cycles_total",
		Labels{"series": "s", "component": "dram_stall"}).Value(); got != 400 {
		t.Errorf("attributed dram cycles = %d, want 400", got)
	}
	if c.Now() != 1500 {
		t.Errorf("campaign clock = %d, want 1500", c.Now())
	}
	// The event stream must render to a schema-valid trace.
	var buf bytes.Buffer
	if err := NewDump(c.Registry, c.Events).WriteChromeTrace(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateChromeTrace(&buf); err != nil {
		t.Errorf("campaign trace invalid: %v", err)
	}
}
