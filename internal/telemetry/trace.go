package telemetry

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"dsr/internal/jsonenc"
)

// TraceEvent is one Chrome trace_event record (the JSON Array / Object
// format consumed by chrome://tracing and Perfetto).
type TraceEvent struct {
	Name string `json:"name"`
	// Cat is the event category (we use the dotted kind prefix).
	Cat string `json:"cat"`
	// Ph is the phase: "B"/"E" span brackets or "i" instants.
	Ph string `json:"ph"`
	// Ts is the timestamp in microseconds.
	Ts float64 `json:"ts"`
	// Pid/Tid place the event on a timeline row; we map the campaign to
	// one process and each track to one thread.
	Pid int `json:"pid"`
	Tid int `json:"tid"`
	// S is the instant-event scope ("t" thread), required by the schema
	// for ph=="i".
	S string `json:"s,omitempty"`
	// Args carries the event attributes.
	Args map[string]string `json:"args,omitempty"`
}

// traceFile is the part of the Object Format wrapper (which Perfetto
// and chrome://tracing both accept and which allows metadata) that
// ValidateChromeTrace reads; the writers append the whole file,
// displayTimeUnit and otherData included (traceEnc).
type traceFile struct {
	TraceEvents []TraceEvent `json:"traceEvents"`
}

// DefaultCyclesPerMicro converts simulated cycles to trace microseconds:
// the case study's 80 MHz LEON3 runs 80 cycles per microsecond.
const DefaultCyclesPerMicro = 80.0

// WriteChromeTrace renders the event log as a Chrome trace_event JSON
// file: every track becomes a thread row, B/E events become nested
// spans, instants become 'i' marks, and timestamps are converted from
// simulated cycles at cyclesPerMicro (0 selects the 80 MHz default).
// Load the output in chrome://tracing or https://ui.perfetto.dev.
//
// The event log is a bounded ring, so its oldest record can sit in the
// middle of a B/E pair; to keep the output schema-valid the writer
// drops end events whose begin was evicted and closes any begin left
// open at the tail.
func (d *Dump) WriteChromeTrace(w io.Writer, cyclesPerMicro float64) error {
	if cyclesPerMicro <= 0 {
		cyclesPerMicro = DefaultCyclesPerMicro
	}
	tids := map[string]int{}
	var order []string
	for i := range d.Events {
		if track := d.Events[i].Track; tids[track] == 0 {
			tids[track] = len(tids) + 1
			order = append(order, track)
		}
	}
	t := newTraceEnc(len(d.Events)+len(order), 272)
	// Thread-name metadata rows so the UI shows track names.
	for _, track := range order {
		name := track
		if name == "" {
			name = "events"
		}
		t.event("thread_name", "__metadata", "M", 0, tids[track], false, []Attr{{Key: "name", Value: name}})
	}
	// Per tid (index): the kinds of the open B events, and the last
	// timestamp.
	open := make([][]string, len(order)+1)
	lastTs := make([]float64, len(order)+1)
	var args []Attr
	for i := range d.Events {
		e := &d.Events[i]
		tid := tids[e.Track]
		switch e.Phase {
		case PhaseBegin:
			open[tid] = append(open[tid], e.Kind)
		case PhaseEnd:
			stack := open[tid]
			if len(stack) == 0 || stack[len(stack)-1] != e.Kind {
				continue // begin evicted from the ring
			}
			open[tid] = stack[:len(stack)-1]
		}
		ts := float64(e.TS) / cyclesPerMicro
		lastTs[tid] = ts
		args = argsOf(args[:0], e.Attrs)
		t.event(e.Kind, kindCategory(e.Kind), phaseString(e.Phase), ts, tid, e.Phase == PhaseInstant, args)
	}
	// Close anything still open (an interrupted recording) at its
	// track's last timestamp, innermost first.
	for _, track := range order {
		tid := tids[track]
		stack := open[tid]
		for i := len(stack) - 1; i >= 0; i-- {
			t.event(stack[i], kindCategory(stack[i]), "E", lastTs[tid], tid, false, nil)
		}
	}
	if err := t.finish(w, "[]", "dsr internal/telemetry"); err != nil {
		return fmt.Errorf("telemetry: chrome trace: %w", err)
	}
	return nil
}

// WriteSpanTrace renders a host wall-time span timeline (Tracer.Spans)
// as a Chrome trace_event JSON file: one thread row per worker (the
// campaign/merge track is "campaign"), spans as nested B/E pairs, and
// timestamps in microseconds since the tracer epoch. The output passes
// ValidateChromeTrace and loads in chrome://tracing / Perfetto — this
// is the worker-timeline artifact `make obs-smoke` uploads.
func WriteSpanTrace(w io.Writer, spans []Span) error {
	// Worker rows in ascending worker id, each in SortSpans order.
	sorted := slices.Clone(spans)
	slices.SortStableFunc(sorted, func(a, b Span) int {
		return cmp.Or(cmp.Compare(a.Worker, b.Worker), cmp.Compare(a.Start, b.Start),
			cmp.Compare(b.Dur, a.Dur), strings.Compare(a.Kind, b.Kind))
	})
	t := newTraceEnc(2*len(sorted), 144)
	type openSpan struct {
		name string
		end  float64
	}
	var (
		open []openSpan
		args [1]Attr
	)
	for lo, tid := 0, 1; lo < len(sorted); tid++ {
		id := sorted[lo].Worker
		hi := lo + 1
		for hi < len(sorted) && sorted[hi].Worker == id {
			hi++
		}
		name := "campaign"
		if id >= 0 {
			name = "worker " + strconv.Itoa(id)
		}
		t.event("thread_name", "__metadata", "M", 0, tid, false, []Attr{{Key: "name", Value: name}})
		// Emit properly nested B/E pairs: close every open span that
		// ends at or before the next span's start, defensively clamping
		// children to their parent's end so the E stack always matches.
		for i := lo; i < hi; i++ {
			s := &sorted[i]
			start := float64(s.Start) / 1e3
			end := float64(s.End()) / 1e3
			for len(open) > 0 && open[len(open)-1].end <= start {
				top := open[len(open)-1]
				open = open[:len(open)-1]
				t.event(top.name, "campaign", "E", top.end, tid, false, nil)
			}
			if len(open) > 0 && end > open[len(open)-1].end {
				end = open[len(open)-1].end
			}
			if end < start {
				end = start
			}
			var a []Attr
			if s.Run >= 0 {
				args[0] = Attr{Key: "run", Value: strconv.Itoa(s.Run)}
				a = args[:]
			}
			t.event(s.Kind, "campaign", "B", start, tid, false, a)
			open = append(open, openSpan{name: s.Kind, end: end})
		}
		for len(open) > 0 {
			top := open[len(open)-1]
			open = open[:len(open)-1]
			t.event(top.name, "campaign", "E", top.end, tid, false, nil)
		}
		lo = hi
	}
	if err := t.finish(w, "null", "dsr internal/telemetry (spans)"); err != nil {
		return fmt.Errorf("telemetry: span trace: %w", err)
	}
	return nil
}

// traceEnc appends a Chrome trace file into one buffer: exactly the
// bytes json.Encoder with SetIndent("", " ") writes for a traceFile
// (fields in declaration order, omitempty applied, args keys sorted,
// strings and floats as encoding/json writes them), without building
// the TraceEvent slice or the args maps. FuzzChromeTrace holds both
// writers to the encoding/json ones.
type traceEnc struct {
	b      []byte
	events int   // traceEvents elements appended so far
	err    error // the first timestamp encoding error (a non-finite ts)
}

// newTraceEnc sizes the buffer for about events elements of perEvent
// bytes each and opens the file.
func newTraceEnc(events, perEvent int) *traceEnc {
	t := &traceEnc{b: make([]byte, 0, 128+events*perEvent)}
	t.b = append(t.b, "{\n \"traceEvents\": "...)
	return t
}

// event appends one trace event; s:"t" marks an instant (thread scope),
// and args, sorted by key without repeats, may be empty.
func (t *traceEnc) event(name, cat, ph string, ts float64, tid int, instant bool, args []Attr) {
	if t.events == 0 {
		t.b = append(t.b, "[\n  {\n   \"name\": "...)
	} else {
		t.b = append(t.b, ",\n  {\n   \"name\": "...)
	}
	t.events++
	t.b = jsonenc.String(t.b, name)
	t.b = append(t.b, ",\n   \"cat\": "...)
	t.b = jsonenc.String(t.b, cat)
	t.b = append(t.b, ",\n   \"ph\": "...)
	t.b = jsonenc.String(t.b, ph)
	t.b = append(t.b, ",\n   \"ts\": "...)
	var err error
	if t.b, err = jsonenc.Float(t.b, ts); err != nil && t.err == nil {
		t.err = err
	}
	t.b = append(t.b, ",\n   \"pid\": 1,\n   \"tid\": "...)
	t.b = strconv.AppendInt(t.b, int64(tid), 10)
	if instant {
		t.b = append(t.b, ",\n   \"s\": \"t\""...)
	}
	if len(args) > 0 {
		t.b = append(t.b, ",\n   \"args\": {"...)
		for i, a := range args {
			if i > 0 {
				t.b = append(t.b, ',')
			}
			t.b = append(t.b, "\n    "...)
			t.b = jsonenc.String(t.b, a.Key)
			t.b = append(t.b, ": "...)
			t.b = jsonenc.String(t.b, a.Value)
		}
		t.b = append(t.b, "\n   }"...)
	}
	t.b = append(t.b, "\n  }"...)
}

// finish closes the file — empty is what an empty event list encodes
// as ("[]" for an empty slice, "null" for a nil one) and generator the
// otherData generator — and writes it to w in one call. After an
// encoding error it writes nothing, as json.Encoder does.
func (t *traceEnc) finish(w io.Writer, empty, generator string) error {
	if t.err != nil {
		return t.err
	}
	if t.events == 0 {
		t.b = append(t.b, empty...)
	} else {
		t.b = append(t.b, "\n ]"...)
	}
	t.b = append(t.b, ",\n \"displayTimeUnit\": \"ms\",\n \"otherData\": {\n  \"generator\": "...)
	t.b = jsonenc.String(t.b, generator)
	t.b = append(t.b, "\n }\n}\n"...)
	_, err := w.Write(t.b)
	return err
}

// argsOf appends attrs to dst as the args map encodes them: sorted by
// key, and for a repeated key only the last value, which is the one a
// map keeps.
func argsOf(dst, attrs []Attr) []Attr {
	dst = append(dst, attrs...)
	slices.SortStableFunc(dst, func(a, b Attr) int { return strings.Compare(a.Key, b.Key) })
	out := dst[:0]
	for i := range dst {
		if i+1 < len(dst) && dst[i+1].Key == dst[i].Key {
			continue
		}
		out = append(out, dst[i])
	}
	return out
}

// phaseString is the trace phase of p: string(rune(p)), without the
// allocation for the phases the log records.
func phaseString(p Phase) string {
	switch p {
	case PhaseBegin:
		return "B"
	case PhaseEnd:
		return "E"
	case PhaseInstant:
		return "i"
	}
	return string(rune(p))
}

// kindCategory returns the dotted prefix of an event kind ("dsr.reboot"
// → "dsr"), used as the trace category.
func kindCategory(kind string) string {
	for i := 0; i < len(kind); i++ {
		if kind[i] == '.' {
			return kind[:i]
		}
	}
	return kind
}

// ValidateChromeTrace parses a Chrome trace JSON document and checks the
// trace_event schema invariants the viewers rely on:
//
//   - every event has a known phase (B, E, i, M) and non-negative ts;
//   - per (pid, tid), timestamps are monotonically non-decreasing;
//   - per (pid, tid), B and E events are properly nested and matched
//     (every E closes the innermost open B of the same name; no E
//     without an open B; no B left open at the end).
//
// It returns the number of span pairs checked.
func ValidateChromeTrace(r io.Reader) (spans int, err error) {
	var tf traceFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tf); err != nil {
		return 0, fmt.Errorf("telemetry: trace validate: %w", err)
	}
	type tidKey struct{ pid, tid int }
	lastTs := map[tidKey]float64{}
	open := map[tidKey][]string{}
	// Events in the file are ordered per track by construction; viewers
	// sort by ts anyway, so validate in ts order per track.
	byTrack := map[tidKey][]TraceEvent{}
	var tracks []tidKey
	for _, e := range tf.TraceEvents {
		k := tidKey{e.Pid, e.Tid}
		if _, ok := byTrack[k]; !ok {
			tracks = append(tracks, k)
		}
		byTrack[k] = append(byTrack[k], e)
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].pid != tracks[j].pid {
			return tracks[i].pid < tracks[j].pid
		}
		return tracks[i].tid < tracks[j].tid
	})
	for _, k := range tracks {
		for i, e := range byTrack[k] {
			switch e.Ph {
			case "M":
				continue
			case "B", "E", "i":
			default:
				return spans, fmt.Errorf("telemetry: trace validate: pid=%d tid=%d event %d: unknown phase %q",
					k.pid, k.tid, i, e.Ph)
			}
			if e.Ts < 0 {
				return spans, fmt.Errorf("telemetry: trace validate: pid=%d tid=%d event %d (%s): negative ts %g",
					k.pid, k.tid, i, e.Name, e.Ts)
			}
			if e.Ts < lastTs[k] {
				return spans, fmt.Errorf("telemetry: trace validate: pid=%d tid=%d event %d (%s): ts %g < previous %g (not monotonic)",
					k.pid, k.tid, i, e.Name, e.Ts, lastTs[k])
			}
			lastTs[k] = e.Ts
			switch e.Ph {
			case "B":
				open[k] = append(open[k], e.Name)
			case "E":
				stack := open[k]
				if len(stack) == 0 {
					return spans, fmt.Errorf("telemetry: trace validate: pid=%d tid=%d event %d: E %q without open B",
						k.pid, k.tid, i, e.Name)
				}
				top := stack[len(stack)-1]
				if top != e.Name {
					return spans, fmt.Errorf("telemetry: trace validate: pid=%d tid=%d event %d: E %q closes open B %q (bad nesting)",
						k.pid, k.tid, i, e.Name, top)
				}
				open[k] = stack[:len(stack)-1]
				spans++
			}
		}
		if n := len(open[k]); n > 0 {
			return spans, fmt.Errorf("telemetry: trace validate: pid=%d tid=%d: %d B event(s) left open (first: %q)",
				k.pid, k.tid, n, open[k][0])
		}
	}
	return spans, nil
}
