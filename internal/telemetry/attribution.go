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
// counter.
const (
	// CompBaseIssue is the one base cycle charged per instruction.
	CompBaseIssue Component = iota
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

// Attribution accumulates cycles per component for one run. A nil
// *Attribution is the disabled profiler: every method no-ops (or returns
// zero) and nothing allocates — the zero-overhead-when-disabled path.
//
// The attribution protocol is built for a synchronous, single-threaded
// hierarchy: each level books its own *self* latency — the cycles it
// adds to a transaction, not those of the deeper levels it reaches — so
// the bookings of one memory transaction add up to exactly the latency
// the CPU is charged. A hushed span (Hush … Unhush) gives a whole stretch
// of work — a page-table walk, a window trap, the store path, the DSR
// call hook — to one component: inside it every booking is dropped, and
// at its end the outermost open span books the stretch's whole cycle
// delta with one Charge. Spans nest, and the outer one wins: a TLB walk
// inside a window trap is trap cost.
type Attribution struct {
	buckets [NumComponents]mem.Cycles
	total   mem.Cycles
	// hushed counts the open hushed spans; Charge books nothing while it
	// is non-zero.
	hushed int
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
	*a = Attribution{}
}

// Charge books n cycles to comp, unless a hushed span is open; nil-safe.
func (a *Attribution) Charge(comp Component, n mem.Cycles) {
	if a == nil || a.hushed != 0 || n == 0 {
		return
	}
	a.buckets[comp] += n
	a.total += n
}

// Hush opens a hushed span: until the matching Unhush, Charge books
// nothing. Nil-safe.
func (a *Attribution) Hush() {
	if a != nil {
		a.hushed++
	}
}

// Unhush closes the innermost hushed span, whose whole cycle delta is n.
// The outermost span books n to comp; an inner span books nothing,
// since its cycles are part of the delta its outer span books. Nil-safe.
func (a *Attribution) Unhush(comp Component, n mem.Cycles) {
	if a == nil {
		return
	}
	a.hushed--
	a.Charge(comp, n)
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
