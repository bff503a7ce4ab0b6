package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"testing"

	"dsr/internal/mem"
)

// traceOracleFile is the Object Format wrapper the oracles encode.
type traceOracleFile struct {
	TraceEvents     []TraceEvent      `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// chromeTraceOracle is the encoding/json Chrome trace writer that
// WriteChromeTrace replaced: it builds a file of TraceEvents and
// encodes it with json.Encoder.SetIndent("", " "). The append encoder
// must write exactly its bytes (FuzzChromeTrace).
func chromeTraceOracle(d *Dump, w io.Writer, cyclesPerMicro float64) error {
	if cyclesPerMicro <= 0 {
		cyclesPerMicro = DefaultCyclesPerMicro
	}
	tids := map[string]int{}
	var order []string
	for _, e := range d.Events {
		if _, ok := tids[e.Track]; !ok {
			tids[e.Track] = len(tids) + 1
			order = append(order, e.Track)
		}
	}
	tf := traceOracleFile{
		DisplayTimeUnit: "ms",
		OtherData:       map[string]string{"generator": "dsr internal/telemetry"},
		TraceEvents:     make([]TraceEvent, 0, len(d.Events)+len(order)),
	}
	// Thread-name metadata rows so the UI shows track names.
	for _, track := range order {
		name := track
		if name == "" {
			name = "events"
		}
		tf.TraceEvents = append(tf.TraceEvents, TraceEvent{
			Name: "thread_name", Cat: "__metadata", Ph: "M", Pid: 1, Tid: tids[track],
			Args: map[string]string{"name": name},
		})
	}
	openByTid := map[int][]string{}
	lastTsByTid := map[int]float64{}
	for _, e := range d.Events {
		te := TraceEvent{
			Name: e.Kind,
			Cat:  kindCategory(e.Kind),
			Ph:   string(rune(e.Phase)),
			Ts:   float64(e.TS) / cyclesPerMicro,
			Pid:  1,
			Tid:  tids[e.Track],
		}
		if e.Phase == PhaseInstant {
			te.S = "t"
		}
		switch e.Phase {
		case PhaseBegin:
			openByTid[te.Tid] = append(openByTid[te.Tid], e.Kind)
		case PhaseEnd:
			stack := openByTid[te.Tid]
			if len(stack) == 0 || stack[len(stack)-1] != e.Kind {
				continue // begin evicted from the ring
			}
			openByTid[te.Tid] = stack[:len(stack)-1]
		}
		lastTsByTid[te.Tid] = te.Ts
		if len(e.Attrs) > 0 {
			te.Args = make(map[string]string, len(e.Attrs))
			for _, a := range e.Attrs {
				te.Args[a.Key] = a.Value
			}
		}
		tf.TraceEvents = append(tf.TraceEvents, te)
	}
	// Close anything still open (an interrupted recording) at its
	// track's last timestamp, innermost first.
	for _, track := range order {
		tid := tids[track]
		stack := openByTid[tid]
		for i := len(stack) - 1; i >= 0; i-- {
			tf.TraceEvents = append(tf.TraceEvents, TraceEvent{
				Name: stack[i], Cat: kindCategory(stack[i]), Ph: "E",
				Ts: lastTsByTid[tid], Pid: 1, Tid: tid,
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(tf); err != nil {
		return fmt.Errorf("telemetry: chrome trace: %w", err)
	}
	return nil
}

// spanTraceOracle is the encoding/json span trace writer that
// WriteSpanTrace replaced (see chromeTraceOracle).
func spanTraceOracle(w io.Writer, spans []Span) error {
	byWorker := map[int][]Span{}
	var ids []int
	for _, s := range spans {
		if _, ok := byWorker[s.Worker]; !ok {
			ids = append(ids, s.Worker)
		}
		byWorker[s.Worker] = append(byWorker[s.Worker], s)
	}
	sort.Ints(ids)
	tf := traceOracleFile{
		DisplayTimeUnit: "ms",
		OtherData:       map[string]string{"generator": "dsr internal/telemetry (spans)"},
	}
	for ti, id := range ids {
		tid := ti + 1
		name := fmt.Sprintf("worker %d", id)
		if id < 0 {
			name = "campaign"
		}
		tf.TraceEvents = append(tf.TraceEvents, TraceEvent{
			Name: "thread_name", Cat: "__metadata", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]string{"name": name},
		})
		track := byWorker[id]
		SortSpans(track)
		// Emit properly nested B/E pairs: close every open span that
		// ends at or before the next span's start, defensively clamping
		// children to their parent's end so the E stack always matches.
		type openSpan struct {
			name string
			end  float64
		}
		var open []openSpan
		emit := func(ph, name string, ts float64, args map[string]string) {
			tf.TraceEvents = append(tf.TraceEvents, TraceEvent{
				Name: name, Cat: "campaign", Ph: ph, Ts: ts, Pid: 1, Tid: tid, Args: args,
			})
		}
		for i := range track {
			s := &track[i]
			start := float64(s.Start) / 1e3
			end := float64(s.End()) / 1e3
			for len(open) > 0 && open[len(open)-1].end <= start {
				top := open[len(open)-1]
				open = open[:len(open)-1]
				emit("E", top.name, top.end, nil)
			}
			if len(open) > 0 && end > open[len(open)-1].end {
				end = open[len(open)-1].end
			}
			if end < start {
				end = start
			}
			var args map[string]string
			if s.Run >= 0 {
				args = map[string]string{"run": fmt.Sprint(s.Run)}
			}
			emit("B", s.Kind, start, args)
			open = append(open, openSpan{name: s.Kind, end: end})
		}
		for len(open) > 0 {
			top := open[len(open)-1]
			open = open[:len(open)-1]
			emit("E", top.name, top.end, nil)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(tf); err != nil {
		return fmt.Errorf("telemetry: span trace: %w", err)
	}
	return nil
}

// checkTraceWriters holds WriteChromeTrace and WriteSpanTrace to their
// encoding/json oracles: the same bytes, or the same error and nothing
// written.
func checkTraceWriters(t *testing.T, d *Dump, cyclesPerMicro float64, spans []Span) {
	t.Helper()
	check := func(what string, write, oracle func(io.Writer) error) {
		t.Helper()
		var got, want bytes.Buffer
		gerr, werr := write(&got), oracle(&want)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("%s: error %v, want %v", what, gerr, werr)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: append encoder wrote\n%s\nwant\n%s", what, got.Bytes(), want.Bytes())
		}
	}
	check("chrome trace",
		func(w io.Writer) error { return d.WriteChromeTrace(w, cyclesPerMicro) },
		func(w io.Writer) error { return chromeTraceOracle(d, w, cyclesPerMicro) })
	check("span trace",
		func(w io.Writer) error { return WriteSpanTrace(w, spans) },
		func(w io.Writer) error { return spanTraceOracle(w, spans) })
}

// fuzzTraceInputs decodes ops into an event log and a span list. The
// first byte picks the ring capacity (1-16, or unbounded when zero), so
// long inputs evict the begins of B/E pairs; each further three bytes
// are one event (phase, track and kind; timestamp step; attribute count
// and choice, repeated keys included) and each two bytes one span
// (worker -1..2, run -2..2, overlapping starts and durations). kind and
// val are spliced in as a kind, an attribute key and an attribute
// value, so escaped and non-ASCII strings reach every string field.
func fuzzTraceInputs(ops []byte, kind, val string) (*Dump, []Span) {
	if len(ops) == 0 {
		return &Dump{}, nil
	}
	capacity := 1 << 20
	if ops[0] != 0 {
		capacity = 1 + int(ops[0]%16)
	}
	log := NewEventLog(capacity)
	tracks := []string{"", "dsr", "tr\u00e4ck <&>"}
	kinds := []string{kind, "run", "dsr.reboot", "x\"y.\u00e9"}
	keys := []string{"name", val, "func", "name"}
	var ts mem.Cycles
	evs := ops[1:]
	for i := 0; i+2 < len(evs); i += 3 {
		a, b, c := evs[i], evs[i+1], evs[i+2]
		phase := []Phase{PhaseBegin, PhaseEnd, PhaseInstant, Phase(b)}[a%4]
		ts += mem.Cycles(b) * 37
		var attrs []Attr
		for j := 0; j < int(c%4); j++ {
			attrs = append(attrs, Attr{Key: keys[(int(c>>2)+j)%len(keys)], Value: val + string(rune('a'+j))})
		}
		log.EmitAt(ts, tracks[(a>>2)%3], kinds[(a>>4)%4], phase, attrs...)
	}
	var spans []Span
	for i := 0; i+1 < len(ops); i += 2 {
		x, y := ops[i], ops[i+1]
		spans = append(spans, Span{
			Worker: int(x%4) - 1,
			Run:    int(y%5) - 2,
			Kind:   kinds[(x>>2)%4],
			Start:  int64(x>>4) * 1500,
			Dur:    int64(y) * 301,
		})
	}
	return &Dump{Events: log.Events()}, spans
}

// FuzzChromeTrace holds the append-encoded trace writers to the
// encoding/json writers they replaced, byte for byte, on generated
// event logs and span lists: escaped and non-ASCII kinds, tracks and
// attribute values, events without attributes, ring-truncated B/E logs,
// the campaign track (worker -1), and the timestamp scale (a NaN or
// overflowing scale is an error in both).
func FuzzChromeTrace(f *testing.F) {
	f.Add([]byte{0, 0x10, 5, 3, 0x11, 2, 0, 0x12, 9, 0x47, 0x21, 1, 0}, "run", "caf\u00e9 <&>", 0.0)
	f.Add([]byte{3, 0x10, 5, 3, 0x10, 2, 6, 0x11, 9, 7, 0x11, 2, 0, 0x12, 1, 1, 0x13, 1, 2}, "k\"\\\n", "\u2028\xff", 80.0)
	f.Add([]byte{1, 0, 1, 0, 1, 1, 0, 2, 4, 0, 1, 1}, "", "", 1e-320)
	f.Add([]byte{0, 2, 7, 5, 0x62, 1, 1}, "a.b", "v", math.NaN())
	f.Add([]byte{}, "run", "v", 0.5)
	// A repeated attribute key (the args map keeps the last value).
	f.Add([]byte{0, 0x12, 5, 15, 0x12, 1, 11}, "run", "v", 0.0)
	f.Fuzz(func(t *testing.T, ops []byte, kind, val string, cyclesPerMicro float64) {
		d, spans := fuzzTraceInputs(ops, kind, val)
		checkTraceWriters(t, d, cyclesPerMicro, spans)
	})
}

// TestTraceWritersMatchOracleOnCampaign runs both writers on a recorded
// campaign and on the synthetic span timeline.
func TestTraceWritersMatchOracleOnCampaign(t *testing.T) {
	c := NewCampaign(0)
	c.RecordRun(RunRecord{Series: "dsr", Index: 0, Cycles: 1200})
	c.Events.EmitAt(10, "dsr", "dsr.reboot", PhaseInstant, String("layout", "7"), Uint64("seed", 3))
	c.RecordRun(RunRecord{Series: "dsr", Index: 1, Seed: 9, Cycles: 1300})
	checkTraceWriters(t, NewDump(c.Registry, c.Events), 0, synthSpans())
}
