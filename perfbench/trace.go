package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// recorder keeps the spans of a traced run in memory, one track per
// goroutine that records. A nil *recorder hands out nil tracks, and
// every method of a nil *track is a no-op, so the untraced code paths
// pay a nil check and nothing else.
type recorder struct {
	epoch  time.Time
	mu     sync.Mutex
	tracks []*track
}

// track is the span list of one goroutine; spans nest properly on it.
type track struct {
	rec   *recorder
	spans []span
}

// span is one call into a layer, timed on the host monotonic clock in
// nanoseconds since the recorder's epoch.
type span struct {
	layer      string
	start, end int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newTrack returns a fresh track for the calling goroutine.
func (r *recorder) newTrack() *track {
	if r == nil {
		return nil
	}
	t := &track{rec: r}
	r.mu.Lock()
	r.tracks = append(r.tracks, t)
	r.mu.Unlock()
	return t
}

// fork returns a new track of the same recorder, for another goroutine.
func (t *track) fork() *track {
	if t == nil {
		return nil
	}
	return t.rec.newTrack()
}

// begin opens a span of the named layer and returns its handle.
func (t *track) begin(layer string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{layer: layer, start: int64(time.Since(t.rec.epoch))})
	return len(t.spans) - 1
}

// end closes span id, which must be the innermost open span.
func (t *track) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.rec.epoch))
}

// waitLayers are spans in which their goroutine blocks on others: they
// receive wall time only while no other track does real work.
var waitLayers = map[string]bool{
	"campaign.execute": true,
	"serve.wait":       true,
}

// layerTotals is what a traced run yields per layer.
type layerTotals struct {
	// self is each layer's share of wall time in seconds: every instant
	// is split evenly between the tracks doing work at that instant and,
	// within a track, given to its innermost open span.
	self map[string]float64
	// durs holds every span's own duration in seconds, for counts,
	// percentiles and busy times.
	durs map[string][]float64
	// covered is the wall time during which any span was open.
	covered float64
}

// analyse sweeps every span of every track in time order and divides
// wall time between layers. Because each instant covered by some span
// is handed out exactly once, the self times sum to covered; the caller
// checks that against its own timing of the outermost spans.
func (r *recorder) analyse() layerTotals {
	type event struct {
		at    int64
		end   bool
		track int
		span  int
	}
	var evs []event
	out := layerTotals{self: map[string]float64{}, durs: map[string][]float64{}}
	for ti, t := range r.tracks {
		for si, s := range t.spans {
			evs = append(evs, event{s.start, false, ti, si}, event{s.end, true, ti, si})
			out.durs[s.layer] = append(out.durs[s.layer], float64(s.end-s.start)/1e9)
		}
	}
	// Ends sort before starts at the same instant; nested starts in
	// begin order and nested ends in reverse, so every pop matches.
	sort.Slice(evs, func(a, b int) bool {
		ea, eb := evs[a], evs[b]
		if ea.at != eb.at {
			return ea.at < eb.at
		}
		if ea.end != eb.end {
			return ea.end
		}
		if ea.track != eb.track {
			return ea.track < eb.track
		}
		if ea.end {
			return ea.span > eb.span
		}
		return ea.span < eb.span
	})
	stacks := make([][]int, len(r.tracks))
	var last int64
	for _, ev := range evs {
		if dt := ev.at - last; dt > 0 {
			r.attribute(stacks, float64(dt)/1e9, &out)
		}
		last = ev.at
		if ev.end {
			st := stacks[ev.track]
			stacks[ev.track] = st[:len(st)-1]
		} else {
			stacks[ev.track] = append(stacks[ev.track], ev.span)
		}
	}
	return out
}

// attribute hands one interval of dt seconds to the innermost spans of
// the working tracks, or to a waiting span when no track works.
func (r *recorder) attribute(stacks [][]int, dt float64, out *layerTotals) {
	var working, waiting []string
	for ti, st := range stacks {
		if len(st) == 0 {
			continue
		}
		layer := r.tracks[ti].spans[st[len(st)-1]].layer
		if waitLayers[layer] {
			waiting = append(waiting, layer)
		} else {
			working = append(working, layer)
		}
	}
	if len(working) == 0 {
		working = waiting
	}
	if len(working) == 0 {
		return
	}
	out.covered += dt
	share := dt / float64(len(working))
	for _, l := range working {
		out.self[l] += share
	}
}

// sum adds the raw durations of a layer's spans.
func (lt layerTotals) sum(layer string) float64 {
	s := 0.0
	for _, d := range lt.durs[layer] {
		s += d
	}
	return s
}

// mean returns the average (0 for an empty sample).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median returns the middle value (0 for an empty sample).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (0 when
// empty); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
