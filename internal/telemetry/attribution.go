package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"dsr/internal/mem"
)

// Component names one architectural destination of execution cycles.
// The attribution profiler partitions a run's total cycle count over
// these components under a hard conservation invariant: the sum of all
// component buckets equals the platform's cycle counter exactly.
type Component int

// Attribution components. CompBaseIssue..CompDSR partition the cycle
// counter; CompNone marks "no override active".
const (
	// CompNone is the sentinel "no component" (no override active).
	CompNone Component = iota - 1

	// CompBaseIssue is the one base cycle charged per instruction.
	CompBaseIssue Component = iota - 1
	// CompLoadStore is the pipeline's own load-use and store-issue
	// cycles (independent of the hierarchy latency).
	CompLoadStore
	// CompBranch is the taken-branch penalty.
	CompBranch
	// CompIntOp is multi-cycle integer execution (mul/div).
	CompIntOp
	// CompFPUBase is the fixed FPU operation latency.
	CompFPUBase
	// CompFPUJitter is the value-dependent extra latency of fdiv/fsqrt —
	// the paper's "maximum jitter of 3 cycles" source (§VI).
	CompFPUJitter
	// CompIL1 is the IL1 self-latency of instruction fetches.
	CompIL1
	// CompDL1 is the DL1 self-latency of data reads.
	CompDL1
	// CompBus is the AMBA AHB bus self-latency (arbitration, transfer,
	// and any modelled co-runner interference).
	CompBus
	// CompL2 is the unified L2 self-latency.
	CompL2
	// CompDRAM is the SDRAM controller latency.
	CompDRAM
	// CompStorePath is the visible (not store-buffer-hidden) portion of
	// the write-through store path, hierarchy latency included.
	CompStorePath
	// CompITLBWalk is instruction-side translation: ITLB hit latency plus
	// the full cost of page-table walks it triggers.
	CompITLBWalk
	// CompDTLBWalk is the data-side counterpart.
	CompDTLBWalk
	// CompWindowTrap is register-window overflow/underflow handling: trap
	// overhead plus the complete cost of the 16-word spills and fills.
	CompWindowTrap
	// CompIPoint is RVS instrumentation-point (timestamp store) cost.
	CompIPoint
	// CompDSR is cycle cost charged by the DSR runtime inside the
	// measured window (lazy relocation, §III.B.1).
	CompDSR

	// NumComponents is the bucket count.
	NumComponents
)

var componentNames = [NumComponents]string{
	"base_issue", "load_store_issue", "branch", "int_op", "fpu_base",
	"fpu_jitter", "il1_stall", "dl1_stall", "bus", "l2_stall", "dram_stall",
	"store_path", "itlb_walk", "dtlb_walk", "window_trap", "ipoint", "dsr_runtime",
}

func (c Component) String() string {
	if c >= 0 && c < NumComponents {
		return componentNames[c]
	}
	return fmt.Sprintf("Component(%d)", int(c))
}

// ComponentByName returns the component with the given name, or
// CompNone if unknown.
func ComponentByName(name string) Component {
	for i, n := range componentNames {
		if n == name {
			return Component(i)
		}
	}
	return CompNone
}

// Attribution accumulates cycles per component for one run. A nil
// *Attribution is the disabled profiler: every method no-ops (or returns
// zero) and nothing allocates — the zero-overhead-when-disabled path.
//
// The attribution protocol is built for a synchronous, single-threaded
// hierarchy: components book their *self* latency (total minus whatever
// deeper levels booked during the same transaction), so the sum of all
// bookings during a memory transaction equals exactly the latency the
// CPU is charged. Overrides redirect all bookings inside a span (a TLB
// walk, a window trap, the store path) to a single component, keeping
// the partition exact while matching the architectural cause.
type Attribution struct {
	buckets [NumComponents]mem.Cycles
	total   mem.Cycles
	// override/overridden: the active booking redirect. A separate bool
	// keeps the zero value of Attribution usable (Component's zero value
	// is CompBaseIssue, not CompNone).
	override   Component
	overridden bool
	// suspended disables booking entirely; used while the DSR runtime
	// issues its own cache traffic whose cost is charged separately.
	suspended bool
}

// NewAttribution returns an enabled, zeroed profiler. The zero value of
// Attribution is equally usable; the constructor exists for symmetry
// with the rest of the package.
func NewAttribution() *Attribution {
	return &Attribution{}
}

// Reset zeroes every bucket (one attribution per measured run); nil-safe.
func (a *Attribution) Reset() {
	if a == nil {
		return
	}
	a.buckets = [NumComponents]mem.Cycles{}
	a.total = 0
	a.override = CompNone
	a.overridden = false
	a.suspended = false
}

// Charge books n cycles to comp, or to the active override; nil-safe.
func (a *Attribution) Charge(comp Component, n mem.Cycles) {
	if a == nil || a.suspended || n == 0 {
		return
	}
	if a.overridden {
		comp = a.override
	}
	a.buckets[comp] += n
	a.total += n
}

// Rebate removes n cycles from comp (or the active override): the
// store-buffer-hidden portion of a store's hierarchy latency is booked
// by the store's L1 access and the probes below it but never charged to
// the cycle counter, so it must be taken back out to preserve
// conservation. Nil-safe.
func (a *Attribution) Rebate(comp Component, n mem.Cycles) {
	if a == nil || a.suspended || n == 0 {
		return
	}
	if a.overridden {
		comp = a.override
	}
	if a.buckets[comp] < n || a.total < n {
		panic(fmt.Sprintf("telemetry: rebate of %d from %s underflows (bucket=%d)",
			n, comp, a.buckets[comp]))
	}
	a.buckets[comp] -= n
	a.total -= n
}

// SetOverride activates comp as the booking destination unless an outer
// override is already active (outer wins: a TLB walk inside a window
// trap is trap cost). It returns the previous override, to be passed to
// ClearOverride, and the effective destination. Nil-safe.
func (a *Attribution) SetOverride(comp Component) (prev, eff Component) {
	if a == nil {
		return CompNone, comp
	}
	if !a.overridden {
		a.override = comp
		a.overridden = true
		return CompNone, comp
	}
	return a.override, a.override
}

// ClearOverride restores the override returned by SetOverride; nil-safe.
func (a *Attribution) ClearOverride(prev Component) {
	if a == nil {
		return
	}
	if prev == CompNone {
		a.overridden = false
		a.override = CompNone
		return
	}
	a.override = prev
	a.overridden = true
}

// Suspend stops all booking until Resume; nil-safe. The CPU suspends
// attribution while the DSR call hook runs, then books the hook's whole
// cycle delta to CompDSR — the hook's direct cache traffic must not be
// double-booked.
func (a *Attribution) Suspend() {
	if a != nil {
		a.suspended = true
	}
}

// Resume re-enables booking; nil-safe.
func (a *Attribution) Resume() {
	if a != nil {
		a.suspended = false
	}
}

// Total returns the cycles booked so far across all components;
// nil-safe (0).
func (a *Attribution) Total() mem.Cycles {
	if a == nil {
		return 0
	}
	return a.total
}

// Component returns one bucket; nil-safe (0).
func (a *Attribution) Component(c Component) mem.Cycles {
	if a == nil || c < 0 || c >= NumComponents {
		return 0
	}
	return a.buckets[c]
}

// Snapshot returns a value copy of the per-component buckets; nil-safe
// (zero value).
func (a *Attribution) Snapshot() AttributionSnapshot {
	if a == nil {
		return AttributionSnapshot{}
	}
	return AttributionSnapshot{Buckets: a.buckets, Valid: true}
}

// AttributionSnapshot is an immutable per-run attribution record.
type AttributionSnapshot struct {
	Buckets [NumComponents]mem.Cycles
	// Valid distinguishes a real snapshot from the zero value of a
	// disabled profiler.
	Valid bool
}

// Total returns the sum of all buckets.
func (s AttributionSnapshot) Total() mem.Cycles {
	var t mem.Cycles
	for _, v := range s.Buckets {
		t += v
	}
	return t
}

// Component returns one bucket.
func (s AttributionSnapshot) Component(c Component) mem.Cycles {
	if c < 0 || c >= NumComponents {
		return 0
	}
	return s.Buckets[c]
}

// Add accumulates another snapshot (campaign aggregation).
func (s *AttributionSnapshot) Add(o AttributionSnapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	s.Valid = s.Valid || o.Valid
}

// Render formats the snapshot as an aligned table of non-zero components
// with percentages, largest first.
func (s AttributionSnapshot) Render() string {
	total := s.Total()
	type row struct {
		c Component
		v mem.Cycles
	}
	rows := make([]row, 0, NumComponents)
	for c := Component(0); c < NumComponents; c++ {
		if s.Buckets[c] > 0 {
			rows = append(rows, row{c, s.Buckets[c]})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].v != rows[j].v {
			return rows[i].v > rows[j].v
		}
		return rows[i].c < rows[j].c
	})
	var b strings.Builder
	fmt.Fprintf(&b, "cycle attribution (total %d):\n", total)
	for _, r := range rows {
		pct := 0.0
		if total > 0 {
			pct = float64(r.v) / float64(total) * 100
		}
		fmt.Fprintf(&b, "  %-18s %12d  %5.1f%%\n", r.c, r.v, pct)
	}
	return b.String()
}

// Probe is a mem.Backend interposer that books the wrapped level's
// self-latency: the latency the level returns minus whatever deeper
// probes booked during the same (synchronous, nested) transaction. A
// chain of probes therefore books exactly the latency of the level it
// fronts; the CPU applies the same rule to its own L1 accesses, so each
// access books exactly what the CPU charges — the conservation
// invariant's hierarchy half.
type Probe struct {
	next mem.Backend
	att  *Attribution
	comp Component
}

// NewProbe wraps next, booking its self-latency to comp in att.
func NewProbe(next mem.Backend, att *Attribution, comp Component) *Probe {
	if next == nil || att == nil {
		panic("telemetry: NewProbe needs a backend and an attribution")
	}
	return &Probe{next: next, att: att, comp: comp}
}

// Read implements mem.Backend.
func (p *Probe) Read(addr mem.Addr, size int) mem.Cycles {
	start := p.att.total
	lat := p.next.Read(addr, size)
	p.att.Charge(p.comp, lat-(p.att.total-start))
	return lat
}

// Write implements mem.Backend.
func (p *Probe) Write(addr mem.Addr, size int) mem.Cycles {
	start := p.att.total
	lat := p.next.Write(addr, size)
	p.att.Charge(p.comp, lat-(p.att.total-start))
	return lat
}
