// Package attack implements the dynamic side of the leakage-soundness
// argument: simulated cache attackers that observe a victim run on the
// LEON3 platform and reduce what they saw to a canonical observation
// key. The campaign engine runs many victim executions; the number of
// distinct keys lower-bounds the information the corresponding channel
// actually carries, and the leakage-soundness gate checks that
// log2(#distinct keys) never exceeds the static bound from
// internal/analysis/leak.
//
// Two observers are modeled, matching the analyzer's attacker models:
//
//   - Prime+probe: the attacker reads the final per-set occupancies of
//     IL1, DL1 and L2 after the victim ran from a flushed state
//     (platform.Run flushes first, so the occupancies are victim-only).
//     Deterministic builds give set attribution (the vector key);
//     randomised builds do not, so the observation is the per-cache
//     sorted occupancy multiset (the multiset key).
//
//   - Evict+time, at event granularity: a TraceRecorder attached via
//     cache.SetObserver hashes the victim's full per-access
//     (write, set, hit) event sequence per cache level.
//
// Both observations are pure functions of (layout seed, input), so
// campaign results are byte-identical at any worker count.
package attack

import (
	"math"
	"sort"
	"strconv"

	"dsr/internal/cache"
	"dsr/internal/mem"
	"dsr/internal/platform"
)

// FNV-1a 64-bit parameters (stable across runs and platforms).
const (
	fnvOffset uint64 = 0xcbf29ce484222325
	fnvPrime  uint64 = 0x100000001b3
)

// TraceRecorder is a cache.Observer that folds the access-event
// sequence into an order-sensitive FNV-1a hash. OnAccess allocates
// nothing and takes a handful of integer operations, so attaching a
// recorder perturbs only simulated-time-free bookkeeping (the
// simulator's reported cycles never depend on observers).
type TraceRecorder struct {
	hash   uint64
	events uint64
}

var _ cache.Observer = (*TraceRecorder)(nil)

// NewTraceRecorder returns a recorder in its reset state.
func NewTraceRecorder() *TraceRecorder {
	return &TraceRecorder{hash: fnvOffset}
}

// OnAccess implements cache.Observer.
func (r *TraceRecorder) OnAccess(write bool, set int, hit bool) {
	var tag uint64
	if write {
		tag |= 1
	}
	if hit {
		tag |= 2
	}
	h := r.hash
	h = (h ^ tag) * fnvPrime
	h = (h ^ uint64(uint32(set))) * fnvPrime
	r.hash = h
	r.events++
}

// Reset returns the recorder to its initial state (call between runs).
func (r *TraceRecorder) Reset() { r.hash, r.events = fnvOffset, 0 }

// Sum is the hash of the event sequence seen since the last Reset.
func (r *TraceRecorder) Sum() uint64 { return r.hash }

// Events is the number of events seen since the last Reset.
func (r *TraceRecorder) Events() uint64 { return r.events }

// TraceSample is one cache level's recorded trace digest.
type TraceSample struct {
	Hash   uint64 `json:"hash"`
	Events uint64 `json:"events"`
}

// Observation is everything both attackers saw in one victim run.
type Observation struct {
	// Final per-set occupancies (prime+probe).
	IL1, DL1, L2 []int
	// Per-cache access-event digests (evict+time).
	IL1Trace, DL1Trace, L2Trace TraceSample
	// Cycles is the run's cycle count (the timing side information both
	// attackers get for free).
	Cycles mem.Cycles
}

// Probe wires trace recorders into a platform's three cache levels and
// snapshots observations after victim runs.
type Probe struct {
	plat         *platform.Platform
	il1, dl1, l2 *TraceRecorder
}

// Attach installs fresh recorders on plat's IL1, DL1 and L2. The
// recorders see victim traffic only if the caller resets them after
// boot-time activity (Reset) — platform.Run's initial cache flush
// generates no events, so Reset right before the run is sufficient.
func Attach(plat *platform.Platform) *Probe {
	p := &Probe{
		plat: plat,
		il1:  NewTraceRecorder(),
		dl1:  NewTraceRecorder(),
		l2:   NewTraceRecorder(),
	}
	plat.IL1.SetObserver(p.il1)
	plat.DL1.SetObserver(p.dl1)
	plat.L2.SetObserver(p.l2)
	return p
}

// Reset clears all three recorders; call immediately before the
// observed victim run.
func (p *Probe) Reset() {
	p.il1.Reset()
	p.dl1.Reset()
	p.l2.Reset()
}

// Snapshot captures the observation after a victim run.
func (p *Probe) Snapshot(cycles mem.Cycles) Observation {
	return Observation{
		IL1:      p.plat.IL1.Occupancies(),
		DL1:      p.plat.DL1.Occupancies(),
		L2:       p.plat.L2.Occupancies(),
		IL1Trace: TraceSample{Hash: p.il1.Sum(), Events: p.il1.Events()},
		DL1Trace: TraceSample{Hash: p.dl1.Sum(), Events: p.dl1.Events()},
		L2Trace:  TraceSample{Hash: p.l2.Sum(), Events: p.l2.Events()},
		Cycles:   cycles,
	}
}

// PrimeProbeKey reduces the occupancy observation to its canonical
// key. attributable=true models the attacker against a deterministic
// build (set indices carry victim information: the vector key);
// attributable=false models the randomised builds, where a fresh
// secret-independent layout per run makes set indices placement noise
// (the per-cache sorted multiset key).
func (o *Observation) PrimeProbeKey(attributable bool) string {
	buf := make([]byte, 0, 4*(len(o.IL1)+len(o.DL1)+len(o.L2))+8)
	appendCache := func(tag byte, occ []int) {
		buf = append(buf, tag, ':')
		if !attributable {
			occ = append([]int(nil), occ...)
			sort.Sort(sort.Reverse(sort.IntSlice(occ)))
			// Trailing zeros carry no multiset information beyond the
			// (fixed) set count.
			for len(occ) > 0 && occ[len(occ)-1] == 0 {
				occ = occ[:len(occ)-1]
			}
		}
		for _, n := range occ {
			buf = strconv.AppendInt(buf, int64(n), 10)
			buf = append(buf, ',')
		}
		buf = append(buf, ';')
	}
	appendCache('i', o.IL1)
	appendCache('d', o.DL1)
	appendCache('l', o.L2)
	return string(buf)
}

// TraceKey reduces the event-sequence observation to its canonical key.
func (o *Observation) TraceKey() string {
	buf := make([]byte, 0, 3*20)
	for _, t := range []TraceSample{o.IL1Trace, o.DL1Trace, o.L2Trace} {
		buf = strconv.AppendUint(buf, t.Hash, 16)
		buf = append(buf, '/')
		buf = strconv.AppendUint(buf, t.Events, 10)
		buf = append(buf, ';')
	}
	return string(buf)
}

// CyclesKey is the pure timing observation (whole-run evict+time).
func (o *Observation) CyclesKey() string {
	return strconv.FormatUint(uint64(o.Cycles), 10)
}

// DistinctBits converts a distinct-observation count into measured
// bits of leakage (log2 of the class count).
func DistinctBits(n int) float64 {
	if n <= 1 {
		return 0
	}
	return math.Log2(float64(n))
}
