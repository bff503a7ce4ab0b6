// Package schedfeas is a sound static feasibility analyzer for the
// schedule space of a *randomized* cyclic executive — the second
// randomisation axis next to DSR's memory-layout randomisation
// (TaskShuffler++, arXiv:1911.07726; REORDER, arXiv:1806.01393). The
// paper's process derives "a timing bound for each software unit
// together with a scheduling of those software units"; once the
// executive draws a fresh schedule every major frame, that scheduling
// argument must cover every schedule the randomizer can emit, not one
// fixed window table.
//
// The package owns both halves of the contract:
//
//   - Draw (draw.go) is the seed-driven randomizer itself: given a task
//     set, a randomisation policy and a prng.Source it produces one
//     major frame's schedule, byte-deterministically per seed. The
//     randomized executive in internal/rtos runs exactly this code.
//
//   - Analyze (analyze.go) statically explores Draw's *entire* support:
//     it enumerates the randomizer's decision tree (segment selection ×
//     window order × slack-gap jitter, the latter characterised
//     symbolically as per-window start intervals), proves every
//     reachable schedule feasible — no overlap, every window inside its
//     period, criticality order, per-task release-jitter bounds, WCET
//     fits budget — or pinpoints a concrete violating draw, and reports
//     the schedule entropy and the per-task guessing entropy of
//     inter-arrival inference (the TaskShuffler++ metric).
//
// A Certificate is only issued when the whole support is feasible; the
// executive refuses construction without one and membership-checks
// every frame it draws against the certified support (the CI soundness
// gate replays that check over hundreds of seeded frames).
package schedfeas

import (
	"fmt"
	"sort"

	"dsr/internal/mem"
)

// Task is one schedulable unit of the randomized executive.
type Task struct {
	Name string `json:"name"`
	// PeriodMillis is the activation period. Every period must divide
	// FrameMillis and be a multiple of the shortest period (the base
	// segment the randomizer works in).
	PeriodMillis int `json:"period_millis"`
	// BudgetMillis is the partition window reserved per activation.
	BudgetMillis int `json:"budget_millis"`
	// PhaseMillis is the task's nominal offset within its period — the
	// deterministic baseline placement the zero Policy replays every
	// frame. Release jitter is measured against k*Period + Phase.
	PhaseMillis int `json:"phase_millis"`
	// WCETCycles is the per-activation execution-time bound the window
	// must accommodate (pWCET quantile or static bound); 0 skips the
	// budget-fit check.
	WCETCycles float64 `json:"wcet_cycles,omitempty"`
	// Criticality orders tasks (higher = more critical): it fixes the
	// randomizer's placement priority and, when Spec.CritOrdered is
	// set, constrains intra-segment window order.
	Criticality int `json:"criticality"`
	// JitterMillis bounds the release jitter: every activation start
	// must satisfy |start - (k*Period + Phase)| <= JitterMillis.
	// -1 leaves the start unconstrained within the period interval.
	JitterMillis int `json:"jitter_millis"`
	// StackBoundBytes / StackBudgetBytes carry the PR-1 call-graph
	// stack analysis into the feasibility verdict: when both are set,
	// the static worst-case stack excursion must fit the partition's
	// stack allocation (randomising the schedule does not change the
	// layout randomisation's stack obligation). Zero disables the check.
	StackBoundBytes  int `json:"stack_bound_bytes,omitempty"`
	StackBudgetBytes int `json:"stack_budget_bytes,omitempty"`
}

// Spec is the task set plus the frame the executive cycles through.
type Spec struct {
	// FrameMillis is the major frame length.
	FrameMillis int `json:"frame_millis"`
	// CyclesPerMilli converts window budgets to cycle budgets (80_000
	// on the case study's 80 MHz LEON3).
	CyclesPerMilli mem.Cycles `json:"cycles_per_milli"`
	// CritOrdered, when set, requires that within any base segment no
	// window starts before a strictly more critical window of the same
	// segment — the mixed-criticality ordering constraint.
	CritOrdered bool   `json:"crit_ordered,omitempty"`
	Tasks       []Task `json:"tasks"`
}

// Policy selects which randomisation the executive applies per major
// frame. The zero Policy is the deterministic baseline: every window at
// its nominal phase.
type Policy struct {
	// SegmentChoice lets a task whose period spans several base
	// segments draw which segment hosts each activation (slot
	// selection), instead of the segment containing its nominal phase.
	SegmentChoice bool `json:"segment_choice,omitempty"`
	// PermuteOrder draws a uniform permutation of the windows assigned
	// to a segment (within equal-criticality groups when the spec is
	// CritOrdered), instead of the canonical priority order.
	PermuteOrder bool `json:"permute_order,omitempty"`
	// SlotJitterMillis bounds the random idle gap inserted before each
	// window when a segment is laid out (offset jitter): each gap is
	// drawn uniformly from [0, min(SlotJitterMillis, remaining slack)].
	SlotJitterMillis int `json:"slot_jitter_millis,omitempty"`
}

// Deterministic reports whether the policy admits exactly the baseline
// schedule.
func (p Policy) Deterministic() bool {
	return !p.SegmentChoice && !p.PermuteOrder && p.SlotJitterMillis == 0
}

func (p Policy) String() string {
	if p.Deterministic() {
		return "det"
	}
	s := ""
	if p.SegmentChoice {
		s += "+slots"
	}
	if p.PermuteOrder {
		s += "+permute"
	}
	if p.SlotJitterMillis > 0 {
		s += fmt.Sprintf("+jitter%d", p.SlotJitterMillis)
	}
	return s[1:]
}

// PlacedWindow is one activation's window in a drawn frame schedule.
type PlacedWindow struct {
	Task string `json:"task"`
	// Activation is the within-frame activation index (0..Frame/Period-1).
	Activation  int `json:"activation"`
	StartMillis int `json:"start_millis"`
	// Segment is the base segment hosting the window.
	Segment int `json:"segment"`
	// BudgetMillis mirrors the task budget for convenience.
	BudgetMillis int `json:"budget_millis"`
}

// FrameSchedule is one major frame's drawn schedule, windows in
// ascending start order.
type FrameSchedule struct {
	Windows []PlacedWindow `json:"windows"`
}

// Violation describes one way a concrete schedule breaks the task-set
// constraints.
type Violation struct {
	Task       string `json:"task"`
	Activation int    `json:"activation"`
	Reason     string `json:"reason"`
	// Schedule is the offending frame schedule (set by the analyzer
	// when it pinpoints a reachable violating draw).
	Schedule *FrameSchedule `json:"schedule,omitempty"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s activation %d: %s", v.Task, v.Activation, v.Reason)
}

// task returns the named task and whether it exists.
func (s *Spec) task(name string) (Task, bool) {
	for _, t := range s.Tasks {
		if t.Name == name {
			return t, true
		}
	}
	return Task{}, false
}

// SegmentMillis is the base segment length: the shortest period.
func (s *Spec) SegmentMillis() int {
	min := 0
	for _, t := range s.Tasks {
		if min == 0 || t.PeriodMillis < min {
			min = t.PeriodMillis
		}
	}
	return min
}

// Segments is the number of base segments per major frame.
func (s *Spec) Segments() int {
	if sl := s.SegmentMillis(); sl > 0 {
		return s.FrameMillis / sl
	}
	return 0
}

// Activations returns how many activations the named task has per
// major frame.
func (s *Spec) Activations(t Task) int { return s.FrameMillis / t.PeriodMillis }

// Validate checks the spec's structural invariants. It returns every
// problem found (empty = valid).
func (s *Spec) Validate() []string {
	var errs []string
	add := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Sprintf(format, args...))
	}
	if s.FrameMillis <= 0 {
		add("non-positive major frame %dms", s.FrameMillis)
	}
	if s.CyclesPerMilli <= 0 {
		add("non-positive clock rate %d cycles/ms", s.CyclesPerMilli)
	}
	if len(s.Tasks) == 0 {
		add("empty task set")
		return errs
	}
	seen := map[string]bool{}
	segLen := s.SegmentMillis()
	for _, t := range s.Tasks {
		if t.Name == "" {
			add("task with empty name")
			continue
		}
		if seen[t.Name] {
			add("duplicate task %q", t.Name)
		}
		seen[t.Name] = true
		if t.PeriodMillis <= 0 {
			add("task %q: non-positive period %dms", t.Name, t.PeriodMillis)
			continue
		}
		if t.BudgetMillis <= 0 {
			add("task %q: non-positive budget %dms", t.Name, t.BudgetMillis)
			continue
		}
		if t.BudgetMillis > t.PeriodMillis {
			add("task %q: budget %dms exceeds period %dms", t.Name, t.BudgetMillis, t.PeriodMillis)
		}
		if s.FrameMillis > 0 && s.FrameMillis%t.PeriodMillis != 0 {
			add("task %q: period %dms does not divide the %dms major frame", t.Name, t.PeriodMillis, s.FrameMillis)
		}
		if segLen > 0 && t.PeriodMillis%segLen != 0 {
			add("task %q: period %dms is not a multiple of the %dms base segment", t.Name, t.PeriodMillis, segLen)
		}
		if t.BudgetMillis > segLen && segLen > 0 {
			add("task %q: budget %dms exceeds the %dms base segment", t.Name, t.BudgetMillis, segLen)
		}
		if t.PhaseMillis < 0 || t.PhaseMillis+t.BudgetMillis > t.PeriodMillis {
			add("task %q: phase %dms leaves no room for the %dms budget in the %dms period",
				t.Name, t.PhaseMillis, t.BudgetMillis, t.PeriodMillis)
		}
		if t.JitterMillis < -1 {
			add("task %q: jitter bound %d (want >= -1)", t.Name, t.JitterMillis)
		}
		if t.WCETCycles < 0 {
			add("task %q: negative WCET bound", t.Name)
		}
		if t.StackBoundBytes < 0 || t.StackBudgetBytes < 0 {
			add("task %q: negative stack bound or budget", t.Name)
		}
	}
	return errs
}

// Check verifies a concrete frame schedule against the task-set
// constraints — the definition of the feasible set:
//
//  1. windows sorted, inside the frame, non-overlapping;
//  2. each task has exactly one activation per period interval, and
//     every window lies entirely within its activation's period;
//  3. per-task release jitter |start - (k*Period + Phase)| <= Jitter;
//  4. CritOrdered (when set): within a base segment, no window starts
//     before a strictly more critical window;
//  5. WCET fits the cycle budget of the window.
//
// It returns every violation found (nil = feasible).
func (s *Spec) Check(fs *FrameSchedule) []Violation {
	var vs []Violation
	bad := func(task string, act int, format string, args ...interface{}) {
		vs = append(vs, Violation{Task: task, Activation: act, Reason: fmt.Sprintf(format, args...)})
	}
	segLen := s.SegmentMillis()
	end := 0
	prev := ""
	seen := map[string]map[int]bool{}
	for i, w := range fs.Windows {
		t, ok := s.task(w.Task)
		if !ok {
			bad(w.Task, w.Activation, "not in the task set")
			continue
		}
		if w.BudgetMillis != t.BudgetMillis {
			bad(w.Task, w.Activation, "budget %dms != task budget %dms", w.BudgetMillis, t.BudgetMillis)
		}
		if w.StartMillis < 0 || w.StartMillis+t.BudgetMillis > s.FrameMillis {
			bad(w.Task, w.Activation, "window [%d,%d)ms outside the %dms frame",
				w.StartMillis, w.StartMillis+t.BudgetMillis, s.FrameMillis)
			continue
		}
		if i > 0 && w.StartMillis < end {
			bad(w.Task, w.Activation, "overlaps previous window (%s ends at %dms, start %dms)",
				prev, end, w.StartMillis)
		}
		end = w.StartMillis + t.BudgetMillis
		prev = w.Task
		if segLen > 0 && w.Segment != w.StartMillis/segLen {
			bad(w.Task, w.Activation, "segment %d does not contain start %dms", w.Segment, w.StartMillis)
		}
		// Period containment.
		acts := s.Activations(t)
		if w.Activation < 0 || w.Activation >= acts {
			bad(w.Task, w.Activation, "activation out of range [0,%d)", acts)
			continue
		}
		lo, hi := w.Activation*t.PeriodMillis, (w.Activation+1)*t.PeriodMillis
		if w.StartMillis < lo || w.StartMillis+t.BudgetMillis > hi {
			bad(w.Task, w.Activation, "window [%d,%d)ms escapes period interval [%d,%d)ms",
				w.StartMillis, w.StartMillis+t.BudgetMillis, lo, hi)
		}
		// Release jitter against the nominal phase.
		if t.JitterMillis >= 0 {
			nominal := w.Activation*t.PeriodMillis + t.PhaseMillis
			dev := w.StartMillis - nominal
			if dev < 0 {
				dev = -dev
			}
			if dev > t.JitterMillis {
				bad(w.Task, w.Activation, "release jitter %dms exceeds bound %dms (nominal %dms, start %dms)",
					dev, t.JitterMillis, nominal, w.StartMillis)
			}
		}
		// WCET fit.
		if t.WCETCycles > 0 && t.WCETCycles > float64(t.BudgetMillis)*float64(s.CyclesPerMilli) {
			bad(w.Task, w.Activation, "WCET %.0f cycles exceeds the %d-cycle window budget",
				t.WCETCycles, mem.Cycles(t.BudgetMillis)*s.CyclesPerMilli)
		}
		if seen[w.Task] == nil {
			seen[w.Task] = map[int]bool{}
		}
		if seen[w.Task][w.Activation] {
			bad(w.Task, w.Activation, "duplicate activation")
		}
		seen[w.Task][w.Activation] = true
	}
	// Completeness: one activation per task per period.
	for _, t := range s.Tasks {
		for k := 0; k < s.Activations(t); k++ {
			if !seen[t.Name][k] {
				bad(t.Name, k, "activation missing from the schedule")
			}
		}
	}
	// Criticality order within segments.
	if s.CritOrdered && segLen > 0 {
		// minCritSeen tracks the least criticality already started per
		// segment; criticality must be non-increasing within a segment.
		minCritSeen := map[int]int{}
		for _, w := range fs.Windows {
			t, ok := s.task(w.Task)
			if !ok {
				continue
			}
			if m, ok := minCritSeen[w.Segment]; ok && t.Criticality > m {
				bad(w.Task, w.Activation,
					"criticality %d window follows a less critical one in segment %d", t.Criticality, w.Segment)
			}
			if m, ok := minCritSeen[w.Segment]; !ok || t.Criticality < m {
				minCritSeen[w.Segment] = t.Criticality
			}
		}
	}
	return vs
}

// priorityOrder returns the task indices in the randomizer's placement
// order: decreasing criticality, then increasing period, then name.
func (s *Spec) priorityOrder() []int {
	idx := make([]int, len(s.Tasks))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ta, tb := s.Tasks[idx[a]], s.Tasks[idx[b]]
		if ta.Criticality != tb.Criticality {
			return ta.Criticality > tb.Criticality
		}
		if ta.PeriodMillis != tb.PeriodMillis {
			return ta.PeriodMillis < tb.PeriodMillis
		}
		return ta.Name < tb.Name
	})
	return idx
}

// Equal reports whether two specs describe the same task set (used by
// the executive to verify a certificate matches its configuration).
func (s *Spec) Equal(o *Spec) bool {
	if s.FrameMillis != o.FrameMillis || s.CyclesPerMilli != o.CyclesPerMilli ||
		s.CritOrdered != o.CritOrdered || len(s.Tasks) != len(o.Tasks) {
		return false
	}
	for i := range s.Tasks {
		if s.Tasks[i] != o.Tasks[i] {
			return false
		}
	}
	return true
}
