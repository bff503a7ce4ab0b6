package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the host-side counterpart of the simulated-cycle event
// log: hierarchical wall-time span tracing of the campaign engine
// itself. Where the event log answers "what did the simulated platform
// do, in cycles", spans answer "where did the host spend its wall
// time running the campaign" — per worker, per run, per phase — which
// is what the parallel-scaling analysis (`dsrstat workers`) and the
// live observability server (internal/obs) are built on.
//
// The clock is the host monotonic clock (time.Since of the tracer
// epoch), so spans are comparable across workers and immune to wall
// clock adjustments. Everything is nil-safe: every method on a nil
// *Tracer or *WorkerTracer is a no-op that allocates nothing, so the
// campaign hot path costs nothing when tracing is disabled.

// SpanKind classifies a span. The hierarchy is
//
//	campaign            (worker -1: the whole Execute call)
//	├── merge.wait      (worker -1: waiting for the next canonical result)
//	├── merge           (worker -1: one run's canonical-order merge)
//	└── worker          (worker w: the worker goroutine's lifetime)
//	    ├── setup       (newWorker: platform + runtime construction)
//	    ├── claim       (claiming the next run index, incl. lock wait)
//	    └── run         (one run end to end)
//	        ├── boot    (platform reset, seed, layout draw)
//	        ├── reloc   (image rebuild, load, metadata writes)
//	        └── execute (simulated execution of the measured run)
type SpanKind uint8

// Span kinds.
const (
	SpanCampaign SpanKind = iota
	SpanWorker
	SpanSetup
	SpanClaim
	SpanRun
	SpanBoot
	SpanReloc
	SpanExecute
	SpanMerge
	SpanMergeWait
	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	"campaign", "worker", "setup", "claim", "run",
	"boot", "reloc", "execute", "merge", "merge.wait",
}

// String returns the canonical kind name.
func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return fmt.Sprintf("spankind(%d)", uint8(k))
}

// ParseSpanKind inverts SpanKind.String.
func ParseSpanKind(s string) (SpanKind, error) {
	for k, name := range spanKindNames {
		if name == s {
			return SpanKind(k), nil
		}
	}
	return 0, fmt.Errorf("telemetry: unknown span kind %q", s)
}

// Span is one completed interval on the tracer's monotonic clock.
type Span struct {
	// Worker is the worker id the span belongs to; -1 is the campaign
	// track (the Execute caller's goroutine: campaign + merge spans).
	Worker int `json:"worker"`
	// Run is the canonical run index, or -1 when the span is not scoped
	// to one run (worker, setup, campaign).
	Run int `json:"run"`
	// Kind is the canonical kind name (see SpanKind).
	Kind string `json:"kind"`
	// Start is the span start in nanoseconds since the tracer epoch.
	Start int64 `json:"start_ns"`
	// Dur is the span duration in nanoseconds.
	Dur int64 `json:"dur_ns"`
}

// End returns the span end in nanoseconds since the tracer epoch.
func (s *Span) End() int64 { return s.Start + s.Dur }

// SpanMark is an open span handle returned by WorkerTracer.Begin and
// closed by WorkerTracer.End. It is a plain value (no allocation).
type SpanMark struct {
	start int64
	kind  SpanKind
	run   int32
	depth int32 // stack depth at Begin; 0 marks the disabled tracer
	live  bool
}

// Tracer owns the campaign's span timeline: a monotonic epoch plus one
// WorkerTracer per worker id (the campaign/merge track is worker -1).
// A nil *Tracer is the disabled tracer; Worker returns nil and every
// span operation no-ops without allocating.
type Tracer struct {
	epoch time.Time
	// liveOnly drops every closed span once its live counters are
	// booked: the tracer serves LiveWorkers and keeps no timeline.
	liveOnly bool

	mu      sync.Mutex
	workers map[int]*WorkerTracer
}

// NewTracer returns an enabled tracer with its epoch at now that keeps
// the full span timeline (see Spans).
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), workers: map[int]*WorkerTracer{}}
}

// NewLiveTracer returns an enabled tracer that keeps only the live
// worker state LiveWorkers reads: its Spans is always nil, so a
// long-lived campaign (a dsrserve job, a dsrrun -http session) holds
// no memory in proportion to its run count.
func NewLiveTracer() *Tracer {
	t := NewTracer()
	t.liveOnly = true
	return t
}

// Now returns nanoseconds since the tracer epoch on the host monotonic
// clock; nil-safe (0).
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch).Nanoseconds()
}

// Worker returns the tracer track for the given worker id, creating it
// on first use. The call is idempotent — the campaign engine and the
// run functions resolve the same id to the same track — and nil-safe
// (a nil tracer returns a nil *WorkerTracer whose methods no-op).
func (t *Tracer) Worker(id int) *WorkerTracer {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	w, ok := t.workers[id]
	if !ok {
		w = &WorkerTracer{t: t, id: id}
		t.workers[id] = w
	}
	return w
}

// Spans merges every worker track into one timeline, sorted by
// (Start, longer-first, Worker) so parents precede their children —
// the cross-worker merge that makes the trace exportable as a single
// artefact (metrics need none: Campaign.RecordRun books them in the
// campaign's canonical-order merge). Nil-safe (nil), and nil on a
// NewLiveTracer, which keeps no timeline.
// It is safe to call while workers are still recording; each track is
// snapshot under its own lock.
func (t *Tracer) Spans() []Span {
	if t == nil || t.liveOnly {
		return nil
	}
	t.mu.Lock()
	ids := make([]int, 0, len(t.workers))
	for id := range t.workers {
		ids = append(ids, id)
	}
	tracks := make([]*WorkerTracer, 0, len(ids))
	sort.Ints(ids)
	for _, id := range ids {
		tracks = append(tracks, t.workers[id])
	}
	t.mu.Unlock()

	var out []Span
	for _, w := range tracks {
		out = append(out, w.Spans()...)
	}
	SortSpans(out)
	return out
}

// SortSpans sorts spans into the canonical export order: by Start,
// then longer spans first (parents before children at equal start),
// then by worker and kind for full determinism at exact ties.
func SortSpans(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := &spans[i], &spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Dur != b.Dur {
			return a.Dur > b.Dur
		}
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		return a.Kind < b.Kind
	})
}

// WorkerLive is one worker's live state, read lock-free for the
// observability server's /campaign snapshot.
type WorkerLive struct {
	Worker int    `json:"worker"`
	State  string `json:"state"`   // current innermost span kind, or "idle"
	Run    int    `json:"run"`     // current run index, -1 when none
	Runs   uint64 `json:"runs"`    // completed run spans
	BusyNs int64  `json:"busy_ns"` // accumulated run-span time
}

// LiveWorkers returns the live state of every worker track (campaign
// track -1 included), sorted by worker id; nil-safe (nil).
func (t *Tracer) LiveWorkers() []WorkerLive {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	ids := make([]int, 0, len(t.workers))
	for id := range t.workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	tracks := make([]*WorkerTracer, 0, len(ids))
	for _, id := range ids {
		tracks = append(tracks, t.workers[id])
	}
	t.mu.Unlock()

	out := make([]WorkerLive, 0, len(tracks))
	for _, w := range tracks {
		kind, run := w.liveState()
		state := "idle"
		if kind != 0 {
			state = SpanKind(kind - 1).String()
		}
		out = append(out, WorkerLive{
			Worker: w.id, State: state, Run: run,
			Runs: w.runs.Load(), BusyNs: w.busy.Load(),
		})
	}
	return out
}

// WorkerTracer records the spans of one worker. Begin/End maintain a
// stack of open spans so nested phases (boot inside run) inherit the
// enclosing run index, and so the live state always names the
// innermost open span. All methods are nil-safe no-ops on a nil
// receiver, which is what a disabled tracer hands out.
type WorkerTracer struct {
	t  *Tracer
	id int

	mu    sync.Mutex
	spans []Span
	stack []SpanMark

	// state packs the innermost open span for lock-free live reads:
	// (run+2)<<8 | (kind+1); 0 means idle.
	state atomic.Uint64
	runs  atomic.Uint64 // completed SpanRun count
	busy  atomic.Int64  // accumulated SpanRun nanoseconds
}

// Begin opens a span of the given kind. run is the canonical run index
// the span belongs to, or -1 to inherit it from the enclosing open
// span (how boot/reloc spans inside Runtime.Reboot learn their run).
// Nil-safe: returns a dead mark that End ignores.
func (w *WorkerTracer) Begin(kind SpanKind, run int) SpanMark {
	if w == nil {
		return SpanMark{}
	}
	w.mu.Lock()
	if run < 0 {
		if n := len(w.stack); n > 0 {
			run = int(w.stack[n-1].run)
		}
	}
	m := SpanMark{start: w.t.Now(), kind: kind, run: int32(run), depth: int32(len(w.stack)), live: true}
	w.stack = append(w.stack, m)
	w.state.Store(packLive(kind, run))
	w.mu.Unlock()
	return m
}

// End closes a span opened by Begin, recording it. Any spans opened
// after m and not yet ended are closed implicitly at the same instant
// (defensive; balanced callers never hit this). Nil-safe, and a no-op
// for the dead mark a nil tracer hands out.
func (w *WorkerTracer) End(m SpanMark) {
	if w == nil || !m.live {
		return
	}
	now := w.t.Now()
	w.mu.Lock()
	// Pop the stack back to the mark's depth, recording any unbalanced
	// inner spans as ending now.
	for len(w.stack) > int(m.depth) {
		top := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		w.record(top, now)
	}
	if n := len(w.stack); n > 0 {
		top := w.stack[n-1]
		w.state.Store(packLive(top.kind, int(top.run)))
	} else {
		w.state.Store(0)
	}
	w.mu.Unlock()
}

// record books one closed span; called with w.mu held.
func (w *WorkerTracer) record(m SpanMark, end int64) {
	dur := end - m.start
	if dur < 0 {
		dur = 0
	}
	if m.kind == SpanRun {
		w.runs.Add(1)
		w.busy.Add(dur)
	}
	if w.t.liveOnly {
		return
	}
	w.spans = append(w.spans, Span{
		Worker: w.id, Run: int(m.run), Kind: m.kind.String(),
		Start: m.start, Dur: dur,
	})
}

// Spans returns a snapshot of the track's completed spans; nil-safe.
func (w *WorkerTracer) Spans() []Span {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Span(nil), w.spans...)
}

// liveState reads the packed live state.
func (w *WorkerTracer) liveState() (kindPlus1 uint64, run int) {
	s := w.state.Load()
	if s == 0 {
		return 0, -1
	}
	return s & 0xff, int(s>>8) - 2
}

func packLive(kind SpanKind, run int) uint64 {
	return uint64(run+2)<<8 | uint64(kind) + 1
}

// ValidateSpans checks the span schema invariants the exporters and
// the worker report rely on:
//
//   - every kind parses, Start and Dur are non-negative, Worker and
//     Run are >= -1;
//   - per worker track, spans are properly nested: two spans either
//     do not overlap or one contains the other (no partial overlap).
//
// It returns the number of spans checked.
func ValidateSpans(spans []Span) (int, error) {
	byWorker := map[int][]Span{}
	var workers []int
	for i := range spans {
		s := &spans[i]
		if _, err := ParseSpanKind(s.Kind); err != nil {
			return 0, fmt.Errorf("telemetry: span validate: span %d: %w", i, err)
		}
		if s.Start < 0 || s.Dur < 0 {
			return 0, fmt.Errorf("telemetry: span validate: span %d (%s): negative start/dur (%d, %d)",
				i, s.Kind, s.Start, s.Dur)
		}
		if s.Worker < -1 || s.Run < -1 {
			return 0, fmt.Errorf("telemetry: span validate: span %d (%s): bad worker/run (%d, %d)",
				i, s.Kind, s.Worker, s.Run)
		}
		if _, ok := byWorker[s.Worker]; !ok {
			workers = append(workers, s.Worker)
		}
		byWorker[s.Worker] = append(byWorker[s.Worker], *s)
	}
	sort.Ints(workers)
	for _, w := range workers {
		track := byWorker[w]
		SortSpans(track)
		var open []Span // stack of enclosing spans
		for i := range track {
			s := &track[i]
			for len(open) > 0 && open[len(open)-1].End() <= s.Start {
				open = open[:len(open)-1]
			}
			if len(open) > 0 && s.End() > open[len(open)-1].End() {
				p := &open[len(open)-1]
				return 0, fmt.Errorf("telemetry: span validate: worker %d: %s [%d,%d) partially overlaps %s [%d,%d)",
					w, s.Kind, s.Start, s.End(), p.Kind, p.Start, p.End())
			}
			open = append(open, *s)
		}
	}
	return len(spans), nil
}
