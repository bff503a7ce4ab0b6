package schedfeas

import (
	"fmt"
	"math"
	"sort"

	"dsr/internal/analysis"
)

// pass is the diagnostic pass name, following the lint-pass convention.
const pass = "schedfeas"

// Config bounds the analyzer's enumeration. The analyzer is sound, not
// best-effort: when a cap is exceeded it refuses (Report.Refused) rather
// than sampling the space, exactly like the WCET analyzer's refusal
// discipline.
type Config struct {
	// MaxAssignments caps the number of stage-A segment-assignment
	// leaves explored exhaustively. 0 means 4096.
	MaxAssignments int
	// MaxOrders caps the number of window orders enumerated per
	// segment. 0 means 120 (5!).
	MaxOrders int
	// MaxViolations caps how many pinpointed violating draws are
	// collected before the search stops recording (the verdict is
	// already infeasible). 0 means 8.
	MaxViolations int
}

func (c Config) maxAssignments() int {
	if c.MaxAssignments > 0 {
		return c.MaxAssignments
	}
	return 4096
}

func (c Config) maxOrders() int {
	if c.MaxOrders > 0 {
		return c.MaxOrders
	}
	return 120
}

func (c Config) maxViolations() int {
	if c.MaxViolations > 0 {
		return c.MaxViolations
	}
	return 8
}

// TaskReport is the per-task inference-resistance verdict: how hard the
// TaskShuffler++ adversary — one inferring a task's arrival offsets from
// observation — has to work against this policy.
type TaskReport struct {
	Task string `json:"task"`
	// OffsetBits is the Shannon entropy (bits) of the task's start
	// offset within its period, aggregated over activations and draws.
	OffsetBits float64 `json:"offset_bits"`
	// GuessingEntropy is the expected number of guesses an optimal
	// adversary needs to hit the realised offset (1 for a deterministic
	// schedule) — the guessing-entropy metric of TaskShuffler++.
	GuessingEntropy float64 `json:"guessing_entropy"`
	// DistinctOffsets counts the reachable start offsets.
	DistinctOffsets int `json:"distinct_offsets"`
}

// SupportInterval is one certified start-time range: in every reachable
// schedule, the window of (Task, Activation) starts within one of its
// intervals.
type SupportInterval struct {
	Task       string `json:"task"`
	Activation int    `json:"activation"`
	// LoMillis..HiMillis is the inclusive start-time range.
	LoMillis int `json:"lo_millis"`
	HiMillis int `json:"hi_millis"`
}

// Certificate is the analyzer's proof object: issued only when the
// randomizer's entire support is feasible. The randomized executive
// refuses construction without one and checks every drawn frame against
// it via Contains.
type Certificate struct {
	Spec        Spec    `json:"spec"`
	Policy      Policy  `json:"policy"`
	EntropyBits float64 `json:"entropy_bits"`
	// Support lists, per (task, activation), the union of start-time
	// intervals reachable by the randomizer. Membership is checked
	// marginally per window — a sound over-approximation of the joint
	// support (every drawable schedule passes; a hand-built schedule
	// mixing extremes from different draws may also pass).
	Support []SupportInterval `json:"support"`
}

// Contains reports whether fs is feasible and inside the certified
// support; nil means yes.
func (c *Certificate) Contains(fs *FrameSchedule) error {
	if vs := c.Spec.Check(fs); len(vs) > 0 {
		return fmt.Errorf("schedfeas: schedule violates the task-set constraints: %s", vs[0])
	}
	for _, w := range fs.Windows {
		ok := false
		for _, s := range c.Support {
			if s.Task == w.Task && s.Activation == w.Activation &&
				w.StartMillis >= s.LoMillis && w.StartMillis <= s.HiMillis {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("schedfeas: %s activation %d start %dms outside the certified support",
				w.Task, w.Activation, w.StartMillis)
		}
	}
	return nil
}

// Report is the analyzer's verdict over the whole randomized-schedule
// space.
type Report struct {
	Spec   Spec   `json:"spec"`
	Policy Policy `json:"policy"`
	// Feasible is true when every schedule the randomizer can draw
	// satisfies the task-set constraints (and the enumeration was not
	// refused).
	Feasible bool `json:"feasible"`
	// Refused is true when the assignment or order space exceeded the
	// configured caps; the analyzer then refuses soundly instead of
	// sampling, and no certificate is issued.
	Refused bool `json:"refused,omitempty"`
	// Assignments counts the stage-A segment-assignment leaves.
	Assignments int `json:"assignments"`
	// Schedules counts the distinct reachable schedules (draws map
	// bijectively onto schedules: distinct segment assignments, window
	// orders or cumulative-gap vectors each produce distinct start
	// vectors).
	Schedules float64 `json:"schedules"`
	// EntropyBits is the Shannon entropy of the schedule distribution —
	// the schedule-randomisation counterpart of the layout entropy the
	// DSR side reports.
	EntropyBits float64               `json:"entropy_bits"`
	Tasks       []TaskReport          `json:"tasks"`
	Violations  []Violation           `json:"violations,omitempty"`
	Diags       []analysis.Diagnostic `json:"diags,omitempty"`
	// Cert is the feasibility certificate, non-nil exactly when
	// Feasible.
	Cert *Certificate `json:"certificate,omitempty"`
}

func (r *Report) diagf(sev analysis.Severity, format string, args ...interface{}) {
	r.Diags = append(r.Diags, analysis.Diagnostic{
		Pass: pass, Sev: sev, Index: -1, Msg: fmt.Sprintf(format, args...),
	})
}

// Analyze statically explores the entire space of schedules Draw can
// emit for (spec, policy) and proves it feasible or pinpoints a
// reachable violating draw. It never fails: structural problems are
// reported as diagnostics on an infeasible report.
//
// The exploration mirrors Draw exactly. Stage-A segment assignments are
// enumerated exhaustively (the tree is small: one draw per activation,
// capped by Config.MaxAssignments with sound refusal). Per leaf, each
// segment's window orders are enumerated (capped per segment), and the
// gap-packing stage is characterised symbolically: after i gap draws
// bounded by J with total slack S, the cumulative gap C_i ranges over
// exactly [0, min((i+1)*J, S)] — every integer in between is reachable —
// so the window at position i starts in [base+prefix_i, base+prefix_i +
// min((i+1)*J, S)]. Jitter-bound checks are evaluated on those interval
// extremes; period containment, overlap-freedom, frame containment and
// criticality order hold by construction of the gap-packing layout and
// are re-verified on every pinpointed schedule via Spec.Check (and, in
// the soundness gate, on every simulated draw).
func Analyze(spec *Spec, policy Policy, cfg Config) *Report {
	rep := &Report{Spec: *spec, Policy: policy}
	if errs := spec.Validate(); len(errs) > 0 {
		for _, e := range errs {
			rep.diagf(analysis.Error, "invalid spec: %s", e)
		}
		return rep
	}
	if policy.SlotJitterMillis < 0 {
		rep.diagf(analysis.Error, "invalid policy: negative slot jitter %d", policy.SlotJitterMillis)
		return rep
	}
	a := &analyzer{
		spec:   spec,
		policy: policy,
		cfg:    cfg,
		rep:    rep,
		segLen: spec.SegmentMillis(),
		used:   make([]int, spec.Segments()),
		assign: make([][]winRef, spec.Segments()),
		supp:   map[supKey][][2]int{},
		hist:   map[string]map[int]float64{},
		gaps:   map[[2]int]*gapInfo{},
	}
	for _, ti := range spec.priorityOrder() {
		t := spec.Tasks[ti]
		for k := 0; k < spec.Activations(t); k++ {
			a.order = append(a.order, winRef{task: ti, act: k})
		}
	}

	// Per-task resource checks are draw-independent: the WCET bound and
	// the static stack bound must fit the window budget and stack
	// allocation in *every* schedule, randomized or not.
	for _, t := range spec.Tasks {
		if budget := float64(t.BudgetMillis) * float64(spec.CyclesPerMilli); t.WCETCycles > budget {
			rep.diagf(analysis.Error, "task %q: WCET %.0f cycles exceeds the %.0f-cycle window budget",
				t.Name, t.WCETCycles, budget)
			rep.Violations = append(rep.Violations, Violation{
				Task: t.Name, Activation: -1,
				Reason: fmt.Sprintf("WCET %.0f cycles exceeds the %.0f-cycle window budget", t.WCETCycles, budget),
			})
		}
		if t.StackBoundBytes > 0 && t.StackBudgetBytes > 0 && t.StackBoundBytes > t.StackBudgetBytes {
			rep.diagf(analysis.Error, "task %q: stack bound %dB exceeds the %dB partition allocation",
				t.Name, t.StackBoundBytes, t.StackBudgetBytes)
			rep.Violations = append(rep.Violations, Violation{
				Task: t.Name, Activation: -1,
				Reason: fmt.Sprintf("stack bound %dB exceeds the %dB allocation", t.StackBoundBytes, t.StackBudgetBytes),
			})
		}
	}

	if policy.Deterministic() {
		a.detLeaf()
	} else {
		a.dfs(0, 1, 0)
	}

	if a.refused {
		rep.Refused = true
		rep.diagf(analysis.Warning,
			"refused: enumeration exceeds the configured caps (%d assignments, %d orders/segment) — raise Config limits or shrink the policy",
			cfg.maxAssignments(), cfg.maxOrders())
	}
	rep.Assignments = a.leaves
	rep.Schedules = a.schedules
	rep.EntropyBits = a.entropyBits
	rep.Feasible = !rep.Refused && len(rep.Violations) == 0
	rep.Tasks = a.taskReports()
	if rep.Feasible {
		rep.Cert = &Certificate{
			Spec:        *spec,
			Policy:      policy,
			EntropyBits: rep.EntropyBits,
			Support:     a.supportIntervals(),
		}
	}
	return rep
}

type supKey struct {
	task string
	act  int
}

type analyzer struct {
	spec   *Spec
	policy Policy
	cfg    Config
	rep    *Report
	segLen int
	order  []winRef // flattened (task, activation) draw order
	used   []int
	assign [][]winRef

	leaves      int
	schedules   float64
	entropyBits float64
	refused     bool

	supp map[supKey][][2]int
	hist map[string]map[int]float64
	gaps map[[2]int]*gapInfo
}

// violate records a pinpointed violation (bounded by MaxViolations).
func (a *analyzer) violate(v Violation) {
	if len(a.rep.Violations) < a.cfg.maxViolations() {
		a.rep.Violations = append(a.rep.Violations, v)
	}
}

func (a *analyzer) addSupport(task string, act, lo, hi int) {
	k := supKey{task, act}
	a.supp[k] = append(a.supp[k], [2]int{lo, hi})
}

func (a *analyzer) addMass(task string, offset int, w float64) {
	h := a.hist[task]
	if h == nil {
		h = map[int]float64{}
		a.hist[task] = h
	}
	h[offset] += w
}

// detLeaf analyses the single deterministic schedule.
func (a *analyzer) detLeaf() {
	fs := nominalSchedule(a.spec)
	a.leaves = 1
	a.schedules = 1
	for _, v := range a.spec.Check(fs) {
		v.Schedule = fs
		a.violate(v)
	}
	for _, w := range fs.Windows {
		t, _ := a.spec.task(w.Task)
		a.addSupport(w.Task, w.Activation, w.StartMillis, w.StartMillis)
		a.addMass(w.Task, w.StartMillis-w.Activation*t.PeriodMillis, 1)
	}
}

// dfs enumerates stage-A segment assignments, mirroring drawAssignment.
func (a *analyzer) dfs(i int, prob, pathBits float64) {
	if a.refused {
		return
	}
	if i == len(a.order) {
		a.leaves++
		if a.leaves > a.cfg.maxAssignments() {
			a.refused = true
			return
		}
		a.leaf(prob, pathBits)
		return
	}
	r := a.order[i]
	t := a.spec.Tasks[r.task]
	cands := candidateSegments(a.spec, a.policy, t, r.act, a.used)
	if len(cands) == 0 {
		// Draw would error here at runtime: a reachable dead-end is an
		// infeasibility of the (spec, policy) pair.
		a.violate(Violation{
			Task: t.Name, Activation: r.act,
			Reason: "randomizer dead-end: no segment with remaining capacity can host the window",
		})
		return
	}
	bits := math.Log2(float64(len(cands)))
	for _, seg := range cands {
		a.used[seg] += t.BudgetMillis
		a.assign[seg] = append(a.assign[seg], r)
		a.dfs(i+1, prob/float64(len(cands)), pathBits+bits)
		a.assign[seg] = a.assign[seg][:len(a.assign[seg])-1]
		a.used[seg] -= t.BudgetMillis
	}
}

// leaf analyses one complete segment assignment.
func (a *analyzer) leaf(prob, pathBits float64) {
	totalBits := pathBits
	count := 1.0
	for seg := range a.assign {
		refs := a.assign[seg]
		if len(refs) == 0 {
			continue
		}
		segBits, segCount, ok := a.segment(seg, refs, prob)
		if !ok {
			return
		}
		totalBits += segBits
		count *= segCount
	}
	a.entropyBits += prob * totalBits
	a.schedules += count
}

// segment analyses one segment of one leaf: order enumeration plus the
// symbolic gap characterisation. Returns the segment's entropy
// contribution in bits and its schedule count, or ok=false on refusal.
func (a *analyzer) segment(seg int, refs []winRef, prob float64) (bits, count float64, ok bool) {
	groups := orderGroups(a.spec, refs)
	norders := 1
	if a.policy.PermuteOrder {
		for _, g := range groups {
			for n := g[1] - g[0]; n > 1; n-- {
				norders *= n
				if norders > a.cfg.maxOrders() {
					a.refused = true
					return 0, 0, false
				}
			}
		}
	}
	sum := 0
	for _, r := range refs {
		sum += a.spec.Tasks[r.task].BudgetMillis
	}
	slack := a.segLen - sum
	gi := a.gapInfo(len(refs), slack)
	orderWeight := prob / float64(norders)

	a.forEachOrder(refs, groups, func(order []winRef) {
		base := seg * a.segLen
		prefix := 0
		for pos, r := range order {
			t := a.spec.Tasks[r.task]
			hiC := slack
			if j := (pos + 1) * a.policy.SlotJitterMillis; j < hiC {
				hiC = j
			}
			lo := base + prefix
			hi := lo + hiC
			if t.JitterMillis >= 0 {
				nominal := r.act*t.PeriodMillis + t.PhaseMillis
				if lo < nominal-t.JitterMillis {
					a.violate(Violation{
						Task: t.Name, Activation: r.act,
						Reason: fmt.Sprintf("release jitter %dms exceeds bound %dms (nominal %dms, reachable start %dms)",
							nominal-lo, t.JitterMillis, nominal, lo),
						Schedule: a.materialize(seg, order, pos, 0),
					})
				}
				if hi > nominal+t.JitterMillis {
					a.violate(Violation{
						Task: t.Name, Activation: r.act,
						Reason: fmt.Sprintf("release jitter %dms exceeds bound %dms (nominal %dms, reachable start %dms)",
							hi-nominal, t.JitterMillis, nominal, hi),
						Schedule: a.materialize(seg, order, pos, hiC),
					})
				}
			}
			a.addSupport(t.Name, r.act, lo, hi)
			for c, p := range gi.cum[pos] {
				if p > 0 {
					a.addMass(t.Name, lo+c-r.act*t.PeriodMillis, orderWeight*p)
				}
			}
			prefix += t.BudgetMillis
		}
	})
	return math.Log2(float64(norders)) + gi.bits, float64(norders) * gi.count, true
}

// forEachOrder enumerates every window order the permuter can draw:
// the canonical order when the policy does not permute, otherwise all
// permutations within each group (criticality runs under CritOrdered,
// the whole segment otherwise), composed across groups.
func (a *analyzer) forEachOrder(refs []winRef, groups [][2]int, fn func([]winRef)) {
	if !a.policy.PermuteOrder {
		fn(refs)
		return
	}
	order := append([]winRef(nil), refs...)
	var rec func(g int)
	rec = func(g int) {
		if g == len(groups) {
			fn(order)
			return
		}
		lo, hi := groups[g][0], groups[g][1]
		var perm func(i int)
		perm = func(i int) {
			if i == hi {
				rec(g + 1)
				return
			}
			for j := i; j < hi; j++ {
				order[i], order[j] = order[j], order[i]
				perm(i + 1)
				order[i], order[j] = order[j], order[i]
			}
		}
		perm(lo)
	}
	rec(0)
}

// materialize builds the concrete violating schedule: the current
// assignment with canonical orders and zero gaps everywhere, except the
// violating segment which uses the given order and the greedy gap
// vector reaching cumulative gap target at position pos — the exact
// draw the report pinpoints.
func (a *analyzer) materialize(vseg int, vorder []winRef, pos, target int) *FrameSchedule {
	var ws []PlacedWindow
	for seg := range a.assign {
		refs := a.assign[seg]
		if len(refs) == 0 {
			continue
		}
		ord := refs
		gaps := make([]int, len(refs))
		if seg == vseg {
			ord = vorder
			rem := target
			for j := 0; j <= pos && j < len(gaps) && rem > 0; j++ {
				g := a.policy.SlotJitterMillis
				if g > rem {
					g = rem
				}
				gaps[j] = g
				rem -= g
			}
		}
		cursor := seg * a.segLen
		for j, r := range ord {
			t := a.spec.Tasks[r.task]
			cursor += gaps[j]
			ws = append(ws, PlacedWindow{
				Task:         t.Name,
				Activation:   r.act,
				StartMillis:  cursor,
				Segment:      seg,
				BudgetMillis: t.BudgetMillis,
			})
			cursor += t.BudgetMillis
		}
	}
	sortWindows(ws)
	return &FrameSchedule{Windows: ws}
}

// gapInfo is the symbolic characterisation of the gap-packing draws for
// a segment with m windows and the given slack: the distribution of the
// cumulative gap before each window, the Shannon entropy of the gap
// vector and the number of distinct gap vectors. It depends only on
// (m, slack, J), so it is memoised across leaves and orders.
type gapInfo struct {
	// cum[i][c] = P(cumulative gap before window i equals c).
	cum   [][]float64
	bits  float64
	count float64
}

func (a *analyzer) gapInfo(m, slack int) *gapInfo {
	key := [2]int{m, slack}
	if gi, ok := a.gaps[key]; ok {
		return gi
	}
	gi := &gapInfo{}
	j := a.policy.SlotJitterMillis
	prob := []float64{1} // P(cumulative = c) before the next draw
	cnt := []float64{1}  // #gap prefixes reaching cumulative c
	for i := 0; i < m; i++ {
		nextP := make([]float64, slack+1)
		nextC := make([]float64, slack+1)
		for c := 0; c < len(prob); c++ {
			p := prob[c]
			if p == 0 && cnt[c] == 0 {
				continue
			}
			n := slack - c
			if j < n {
				n = j
			}
			n++ // choices: gap in [0, min(J, slack-c)]
			gi.bits += p * math.Log2(float64(n))
			for g := 0; g < n; g++ {
				nextP[c+g] += p / float64(n)
				nextC[c+g] += cnt[c]
			}
		}
		gi.cum = append(gi.cum, nextP)
		prob, cnt = nextP, nextC
	}
	gi.count = 0
	for _, c := range cnt {
		gi.count += c
	}
	if m == 0 {
		gi.count = 1
	}
	a.gaps[key] = gi
	return gi
}

// taskReports folds the offset histograms into the per-task
// inference-resistance metrics, in spec task order.
func (a *analyzer) taskReports() []TaskReport {
	var out []TaskReport
	for _, t := range a.spec.Tasks {
		tr := TaskReport{Task: t.Name}
		h := a.hist[t.Name]
		// Fold in sorted offset order: float accumulation must not
		// depend on map iteration, or two Analyze calls on the same spec
		// would disagree in the last ULP of the entropy metrics.
		offs := make([]int, 0, len(h))
		for off := range h {
			offs = append(offs, off)
		}
		sort.Ints(offs)
		var total float64
		for _, off := range offs {
			total += h[off]
		}
		if total > 0 {
			ps := make([]float64, 0, len(h))
			for _, off := range offs {
				if p := h[off]; p > 0 {
					ps = append(ps, p/total)
				}
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(ps)))
			for i, p := range ps {
				tr.GuessingEntropy += float64(i+1) * p
				tr.OffsetBits -= p * math.Log2(p)
			}
			tr.DistinctOffsets = len(ps)
		}
		out = append(out, tr)
	}
	return out
}

// supportIntervals merges the collected per-(task, activation) start
// intervals into sorted disjoint unions.
func (a *analyzer) supportIntervals() []SupportInterval {
	keys := make([]supKey, 0, len(a.supp))
	for k := range a.supp {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].task != keys[j].task {
			return keys[i].task < keys[j].task
		}
		return keys[i].act < keys[j].act
	})
	var out []SupportInterval
	for _, k := range keys {
		spans := a.supp[k]
		sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
		merged := spans[:1]
		for _, s := range spans[1:] {
			last := &merged[len(merged)-1]
			if s[0] <= last[1]+1 {
				if s[1] > last[1] {
					last[1] = s[1]
				}
				continue
			}
			merged = append(merged, s)
		}
		for _, s := range merged {
			out = append(out, SupportInterval{
				Task: k.task, Activation: k.act, LoMillis: s[0], HiMillis: s[1],
			})
		}
	}
	return out
}
