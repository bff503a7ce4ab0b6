package telemetry

import (
	"fmt"
	"strconv"
	"strings"

	"dsr/internal/mem"
)

// Phase classifies an event for timeline rendering, following the Chrome
// trace_event phases: 'B' opens a span, 'E' closes the innermost open
// span of the same track, 'i' is an instant event.
type Phase byte

// Event phases.
const (
	PhaseBegin   Phase = 'B'
	PhaseEnd     Phase = 'E'
	PhaseInstant Phase = 'i'
)

// Attr is one key/value attribute of an event. Values are stored as
// strings to keep the log allocation-bounded and the codec trivial;
// helpers format the common types.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Uint64 builds an integer attribute.
func Uint64(k string, v uint64) Attr { return Attr{Key: k, Value: strconv.FormatUint(v, 10)} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: strconv.Itoa(v)} }

// Hex builds a hexadecimal address attribute.
func Hex(k string, v mem.Addr) Attr { return Attr{Key: k, Value: fmt.Sprintf("%#x", uint64(v))} }

// Float builds a float attribute, formatted as %g formats it.
func Float(k string, v float64) Attr { return Attr{Key: k, Value: strconv.FormatFloat(v, 'g', -1, 64)} }

// Cycles builds a cycle-count attribute.
func Cycles(k string, v mem.Cycles) Attr {
	return Attr{Key: k, Value: strconv.FormatUint(uint64(v), 10)}
}

// Event is one structured runtime event.
type Event struct {
	// Seq is the global emission order (assigned by the log).
	Seq uint64 `json:"seq"`
	// TS is the event's position on the campaign clock, in simulated
	// cycles (see EventLog.SetClock); 0 when no clock is installed.
	TS mem.Cycles `json:"ts"`
	// Track groups events into timeline rows (partition name, campaign
	// series, analysis stage).
	Track string `json:"track,omitempty"`
	// Kind is the dotted event type, e.g. "dsr.reboot", "rtos.window",
	// "mbpta.iid".
	Kind  string `json:"kind"`
	Phase Phase  `json:"phase"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// Attr returns the value of the named attribute and whether it exists.
func (e *Event) Attr(key string) (string, bool) {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// String renders the event for humans.
func (e *Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d @%d [%s] %c %s", e.Seq, uint64(e.TS), e.Track, byte(e.Phase), e.Kind)
	for _, a := range e.Attrs {
		fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
	}
	return b.String()
}

// EventLog is a bounded ring buffer of structured events. A nil
// *EventLog is the disabled log: Emit and friends no-op without
// allocating, so emitters need no guards.
type EventLog struct {
	ring    []Event
	start   int // index of oldest
	n       int // live count
	seq     uint64
	dropped uint64
	clock   func() mem.Cycles
	// unbounded turns the ring into an append-only buffer (capture
	// mode): nothing is ever dropped, so a shard's events replay into
	// the campaign log exactly as the sequential path would have emitted
	// them.
	unbounded bool
}

// NewEventLog returns a log retaining at most capacity events (oldest
// dropped first).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = 4096
	}
	return &EventLog{ring: make([]Event, capacity)}
}

// NewCaptureLog returns an unbounded append-only log. The campaign
// engine hands one to each worker so runtime events (reboots,
// relocations) emitted during a shard's runs are captured losslessly;
// Take drains the capture between runs and ReplayAt re-emits it into
// the campaign log during the canonical-order merge.
func NewCaptureLog() *EventLog {
	return &EventLog{unbounded: true}
}

// SetClock installs the campaign clock: a function returning the current
// position in simulated cycles, read at each emission. Nil-safe.
func (l *EventLog) SetClock(f func() mem.Cycles) {
	if l != nil {
		l.clock = f
	}
}

// Enabled reports whether emissions on this log are recorded; nil-safe.
// Hot emitters should guard their Emit calls with it: the Attr helpers
// format their values eagerly, so building an Emit's arguments costs
// allocations even when the log is nil and the event would be dropped.
func (l *EventLog) Enabled() bool { return l != nil }

// Emit appends an event stamped with the campaign clock; nil-safe.
func (l *EventLog) Emit(track, kind string, phase Phase, attrs ...Attr) {
	if l == nil {
		return
	}
	var ts mem.Cycles
	if l.clock != nil {
		ts = l.clock()
	}
	l.EmitAt(ts, track, kind, phase, attrs...)
}

// EmitAt appends an event with an explicit timestamp; nil-safe.
func (l *EventLog) EmitAt(ts mem.Cycles, track, kind string, phase Phase, attrs ...Attr) {
	if l == nil {
		return
	}
	e := Event{Seq: l.seq, TS: ts, Track: track, Kind: kind, Phase: phase, Attrs: attrs}
	l.seq++
	if l.unbounded {
		l.ring = append(l.ring, e)
		l.n++
		return
	}
	if l.n == len(l.ring) {
		l.ring[l.start] = e
		l.start = (l.start + 1) % len(l.ring)
		l.dropped++
		return
	}
	l.ring[(l.start+l.n)%len(l.ring)] = e
	l.n++
}

// Len returns the number of retained events; nil-safe (0).
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	return l.n
}

// Dropped returns how many events the ring discarded; nil-safe (0).
func (l *EventLog) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.dropped
}

// Events returns the retained events oldest-first; nil-safe (nil).
func (l *EventLog) Events() []Event {
	if l == nil || l.n == 0 {
		return nil
	}
	out := make([]Event, l.n)
	for i := 0; i < l.n; i++ {
		out[i] = l.ring[(l.start+i)%len(l.ring)]
	}
	return out
}

// Take returns the retained events oldest-first and resets the log for
// the next capture window (sequence numbering restarts at zero). It is
// the per-run drain of a capture log; nil-safe (nil).
func (l *EventLog) Take() []Event {
	if l == nil || l.n == 0 {
		return nil
	}
	out := l.Events()
	if l.unbounded {
		l.ring = nil
	}
	l.start, l.n, l.seq, l.dropped = 0, 0, 0, 0
	return out
}

// ReplayAt re-emits captured events into l, offset to the timestamp ts
// and re-sequenced by l's own counter; tracks, kinds, phases and
// attributes are preserved. This is the campaign engine's merge
// primitive: events captured on a worker's shard replay into the
// campaign log exactly as if they had been emitted live at ts (shard
// captures carry relative timestamps, normally zero, which ReplayAt
// shifts onto the campaign clock). Nil-safe.
func (l *EventLog) ReplayAt(ts mem.Cycles, events []Event) {
	if l == nil {
		return
	}
	for i := range events {
		e := &events[i]
		l.EmitAt(ts+e.TS, e.Track, e.Kind, e.Phase, e.Attrs...)
	}
}
