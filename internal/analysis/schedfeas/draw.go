package schedfeas

import (
	"fmt"
	"sort"

	"dsr/internal/prng"
)

// Draw produces one major frame's schedule from the policy's draw
// stream. It is the generative definition of the randomizer's support:
// the randomized executive in internal/rtos runs exactly this function
// every frame, and Analyze explores exactly this function's decision
// tree — there is one implementation to certify, not two to keep in
// sync.
//
// The draw works at millisecond granularity in two stages over base
// segments (segment length = shortest period, which every period is a
// multiple of):
//
//	Stage A — segment assignment. Tasks are visited in priority order
//	(decreasing criticality, then increasing period, then name); each
//	activation k draws a host segment among the segments of its period
//	interval that still have capacity (only the nominal segment — the
//	one containing k*Period+Phase — is eligible unless
//	Policy.SegmentChoice). The draw is taken with prng.Intn even when
//	a single candidate remains, so the stream shape depends only on
//	the spec and policy, never on earlier outcomes.
//
//	Stage B — per-segment layout. Each segment's windows are put in
//	canonical priority order, permuted if Policy.PermuteOrder (within
//	equal-criticality groups when the spec is CritOrdered), then
//	gap-packed from the segment base: before each window an idle gap
//	is drawn uniformly from [0, min(SlotJitterMillis, remaining
//	slack)] — again always drawing, even when the range is {0}.
//
// A fully deterministic policy consumes no randomness and returns the
// nominal schedule (every window at k*Period+Phase) — the det baseline
// of the deterministic cyclic executive.
//
// Draw fails when a dead-end is reached: some activation has no
// candidate segment left. Analyze treats every reachable dead-end as an
// infeasibility, so a certified (spec, policy) never errors here.
func Draw(spec *Spec, policy Policy, src prng.Source) (*FrameSchedule, error) {
	if errs := spec.Validate(); len(errs) > 0 {
		return nil, fmt.Errorf("schedfeas: invalid spec: %s", errs[0])
	}
	if policy.SlotJitterMillis < 0 {
		return nil, fmt.Errorf("schedfeas: negative slot jitter %d", policy.SlotJitterMillis)
	}
	if policy.Deterministic() {
		return nominalSchedule(spec), nil
	}
	assign, err := drawAssignment(spec, policy, src)
	if err != nil {
		return nil, err
	}
	var ws []PlacedWindow
	for seg, refs := range assign {
		if len(refs) == 0 {
			continue
		}
		ordered := orderRefs(spec, policy, refs, src)
		ws = append(ws, layoutSegment(spec, policy, seg, ordered, src)...)
	}
	sortWindows(ws)
	return &FrameSchedule{Windows: ws}, nil
}

// winRef identifies one (task, activation) window during drawing and
// analysis.
type winRef struct {
	task int // index into Spec.Tasks
	act  int
}

// nominalSchedule is the deterministic baseline: every activation at
// its phase.
func nominalSchedule(spec *Spec) *FrameSchedule {
	segLen := spec.SegmentMillis()
	var ws []PlacedWindow
	for _, t := range spec.Tasks {
		for k := 0; k < spec.Activations(t); k++ {
			start := k*t.PeriodMillis + t.PhaseMillis
			ws = append(ws, PlacedWindow{
				Task:         t.Name,
				Activation:   k,
				StartMillis:  start,
				Segment:      start / segLen,
				BudgetMillis: t.BudgetMillis,
			})
		}
	}
	sortWindows(ws)
	return &FrameSchedule{Windows: ws}
}

// candidateSegments lists the segments that may host activation k of t,
// given the per-segment budget already committed in used. Without
// SegmentChoice only the nominal segment is eligible; with it, any
// segment of the activation's period interval. Either way a segment
// must have capacity for the window's budget.
func candidateSegments(spec *Spec, policy Policy, t Task, k int, used []int) []int {
	segLen := spec.SegmentMillis()
	var cands []int
	if !policy.SegmentChoice {
		seg := (k*t.PeriodMillis + t.PhaseMillis) / segLen
		if used[seg]+t.BudgetMillis <= segLen {
			cands = append(cands, seg)
		}
		return cands
	}
	lo := k * t.PeriodMillis / segLen
	hi := (k + 1) * t.PeriodMillis / segLen
	for seg := lo; seg < hi; seg++ {
		if used[seg]+t.BudgetMillis <= segLen {
			cands = append(cands, seg)
		}
	}
	return cands
}

// drawAssignment runs stage A: one host segment per activation, in
// priority order.
func drawAssignment(spec *Spec, policy Policy, src prng.Source) ([][]winRef, error) {
	nseg := spec.Segments()
	used := make([]int, nseg)
	assign := make([][]winRef, nseg)
	for _, ti := range spec.priorityOrder() {
		t := spec.Tasks[ti]
		for k := 0; k < spec.Activations(t); k++ {
			cands := candidateSegments(spec, policy, t, k, used)
			if len(cands) == 0 {
				return nil, fmt.Errorf("schedfeas: dead-end draw: no segment can host %s activation %d",
					t.Name, k)
			}
			seg := cands[prng.Intn(src, len(cands))]
			used[seg] += t.BudgetMillis
			assign[seg] = append(assign[seg], winRef{task: ti, act: k})
		}
	}
	return assign, nil
}

// orderGroups partitions a segment's windows (which arrive in priority
// order, hence non-increasing criticality) into the runs the permuter
// may shuffle within: one run per criticality level when the spec is
// CritOrdered, a single run otherwise.
func orderGroups(spec *Spec, refs []winRef) [][2]int {
	if !spec.CritOrdered {
		return [][2]int{{0, len(refs)}}
	}
	var groups [][2]int
	start := 0
	for start < len(refs) {
		end := start + 1
		for end < len(refs) &&
			spec.Tasks[refs[end].task].Criticality == spec.Tasks[refs[start].task].Criticality {
			end++
		}
		groups = append(groups, [2]int{start, end})
		start = end
	}
	return groups
}

// orderRefs runs the ordering half of stage B: canonical priority order,
// permuted within the allowed groups when the policy asks for it.
func orderRefs(spec *Spec, policy Policy, refs []winRef, src prng.Source) []winRef {
	out := append([]winRef(nil), refs...)
	if !policy.PermuteOrder {
		return out
	}
	for _, g := range orderGroups(spec, refs) {
		n := g[1] - g[0]
		if n < 2 {
			continue
		}
		perm := make([]int, n)
		prng.PermInto(src, perm)
		for i := 0; i < n; i++ {
			out[g[0]+i] = refs[g[0]+perm[i]]
		}
	}
	return out
}

// layoutSegment runs the placement half of stage B: gap-packing from
// the segment base with bounded uniform idle gaps.
func layoutSegment(spec *Spec, policy Policy, seg int, refs []winRef, src prng.Source) []PlacedWindow {
	segLen := spec.SegmentMillis()
	base := seg * segLen
	sum := 0
	for _, r := range refs {
		sum += spec.Tasks[r.task].BudgetMillis
	}
	slack := segLen - sum
	cursor := base
	out := make([]PlacedWindow, 0, len(refs))
	for _, r := range refs {
		t := spec.Tasks[r.task]
		maxGap := slack
		if policy.SlotJitterMillis < maxGap {
			maxGap = policy.SlotJitterMillis
		}
		gap := prng.Intn(src, maxGap+1)
		cursor += gap
		slack -= gap
		out = append(out, PlacedWindow{
			Task:         t.Name,
			Activation:   r.act,
			StartMillis:  cursor,
			Segment:      seg,
			BudgetMillis: t.BudgetMillis,
		})
		cursor += t.BudgetMillis
	}
	return out
}

func sortWindows(ws []PlacedWindow) {
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].StartMillis != ws[j].StartMillis {
			return ws[i].StartMillis < ws[j].StartMillis
		}
		return ws[i].Task < ws[j].Task
	})
}
