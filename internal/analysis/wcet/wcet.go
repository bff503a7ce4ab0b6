// Package wcet is a sound static worst-case execution time analyzer for
// the simulator's programs, closing the loop the paper leaves open: the
// MBPTA/pWCET machinery (internal/mbpta) estimates probabilistic bounds
// from randomised *measurements*, while this package derives a hard
// upper bound from the program text and the platform configuration
// alone, against which every simulated run can be cross-checked
// (simulated cycles ≤ static bound, enforced in tests and CI).
//
// The pipeline:
//
//  1. loop bounds — counted-loop inference over the CFG/dominator
//     machinery, falling back to `dsr:loop-bound N` annotations, with a
//     hard diagnostic when a loop has neither (loops.go);
//  2. symbolic register dataflow for addresses and induction ranges
//     (value.go);
//  3. Ferdinand-style must/may abstract cache analysis for the L1s
//     under a deterministic layout, classifying always-hit /
//     always-miss / not-classified (internal/analysis/cachedom, the
//     domain shared with the leakage analyzer), plus a loop
//     persistence analysis that works in both deterministic and
//     DSR-randomised modes (cost.go);
//  4. an IPET-style bound: collapse loop nests by their bounds, longest
//     path over the acyclic condensation, instructions costed from the
//     timing table shared with the simulator, memory stalls from the
//     platform's cache/TLB/bus/DRAM configuration (cost.go);
//  5. interprocedural composition over the call graph,
//     context-insensitive, recursion rejected with a diagnostic.
//
// Analysis modes mirror the paper's build variants: ModeDet analyses
// the unmodified deterministically-laid-out program; ModeDSREager and
// ModeDSRLazy analyse the DSR-transformed program over *all feasible
// randomised placements*, which forfeits the exact-address cache
// domains (the paper's observation that static analysis of randomised
// software degrades) but keeps placement-independent bounds sound.
//
// Analyze never panics on malformed input: every failure mode —
// unbounded loop, recursion, unresolved indirect call, irreducible
// control flow — is an Error diagnostic with Bounded=false.
package wcet

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"dsr/internal/analysis"
	"dsr/internal/mem"
	"dsr/internal/platform"
	"dsr/internal/prog"
)

// Mode selects the layout model the bound must cover.
type Mode int

const (
	// ModeDet analyses a deterministic sequential layout (the paper's
	// COTS baseline): exact addresses, full must/may cache analysis.
	ModeDet Mode = iota
	// ModeDSREager analyses a DSR-transformed program under eager
	// relocation: every function and data object may land anywhere
	// (8-byte aligned), so the bound joins over all feasible placements.
	ModeDSREager
	// ModeDSRLazy is ModeDSREager plus lazy relocation: objects may move
	// *during* the run, which additionally forfeits loop persistence;
	// Config.RelocBound charges the relocation machinery itself.
	ModeDSRLazy
)

func (m Mode) String() string {
	switch m {
	case ModeDet:
		return "det"
	case ModeDSREager:
		return "dsr-eager"
	case ModeDSRLazy:
		return "dsr-lazy"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode is the inverse of Mode.String: it maps det, dsr-eager or
// dsr-lazy to its Mode.
func ParseMode(s string) (Mode, error) {
	for m := ModeDet; m <= ModeDSRLazy; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return ModeDet, fmt.Errorf("unknown mode %q (want det, dsr-eager or dsr-lazy)", s)
}

// Config parameterises the analysis.
type Config struct {
	// Platform supplies cache/TLB/bus/DRAM geometry and latencies, and
	// the CPU's timing table (the one the simulator charges). Nil
	// selects platform.ProximaLEON3().
	Platform *platform.Config
	// Mode selects the layout model (see Mode); ModeDet analyses the
	// deterministic sequential layout (loader.DefaultSequentialConfig).
	Mode Mode
	// Lines maps (function, instruction) to source lines for
	// diagnostics and the loop report (asm.SourceInfo). May be nil.
	Lines analysis.LineResolver
	// RelocBound is the bound on the lazy-relocation machinery, charged
	// once per function in ModeDSRLazy (BuildTransformed derives it from
	// the platform when zero).
	RelocBound mem.Cycles

	// Set by BuildTransformed: resolve attributes the transform's
	// indirect calls (nil leaves CallR unresolved, an Error), and
	// stackOffsetBound is the inclusive bound on the per-frame random
	// stack offset, forwarded to the stack analysis.
	resolve          analysis.CallResolver
	stackOffsetBound int
}

// LoopBound is one resolved loop bound in the report.
type LoopBound struct {
	Fn     string `json:"fn"`
	Head   int    `json:"head"` // instruction index of the loop header
	Line   int    `json:"line,omitempty"`
	Bound  int    `json:"bound"`
	Source string `json:"source"` // "inferred" | "annotated"
	Depth  int    `json:"depth"`
}

// Report is the analysis result.
type Report struct {
	Program string `json:"program"`
	Entry   string `json:"entry"`
	Mode    string `json:"mode"`

	// Bounded is true iff the analysis produced a finite sound bound.
	Bounded bool `json:"bounded"`
	// BoundCycles is the WCET bound in cycles (valid when Bounded).
	BoundCycles mem.Cycles `json:"bound_cycles"`
	// Saturated marks a bound that hit the arithmetic ceiling — still
	// sound as stated, but useless; treat as a diagnostic.
	Saturated bool `json:"saturated,omitempty"`

	// WindowSafe: the stack analysis proved no register-window
	// spill/fill traps can occur.
	WindowSafe bool `json:"window_safe"`
	// ITLBPages/DTLBPages are the page working-set bounds, counted by
	// the front end (so the leakage analysis reads them too); TLBCycles
	// is the one-time walk charge included in the bound when the
	// working set fits the TLB.
	ITLBPages int        `json:"itlb_pages"`
	DTLBPages int        `json:"dtlb_pages"`
	TLBCycles mem.Cycles `json:"tlb_cycles"`

	// Cache classification tallies (deterministic mode; DSR modes
	// classify nothing).
	AlwaysHit     int `json:"always_hit"`
	AlwaysMiss    int `json:"always_miss"`
	NotClassified int `json:"not_classified"`

	// Loops lists every natural loop with its resolved bound.
	Loops []LoopBound `json:"loops"`
	// FuncCycles bounds one standalone execution of each function.
	FuncCycles map[string]mem.Cycles `json:"func_cycles,omitempty"`

	Diags []analysis.Diagnostic `json:"diags,omitempty"`
}

// JSON renders the report as indented JSON (the `dsrlint -json -wcet`
// wcet section; field names are a stable contract).
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// HasErrors reports whether any Error-severity diagnostic was emitted.
func (r *Report) HasErrors() bool {
	for i := range r.Diags {
		if r.Diags[i].Sev == analysis.Error {
			return true
		}
	}
	return false
}

// Format renders the human-readable report (the `dsrlint -wcet` text
// output): the bound, the TLB and cache-classification tallies, the
// loop-bound table and the per-function bounds. Diagnostics are left to
// the caller, which prints them with its other findings.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wcet: %s entry %s mode %s\n", r.Program, r.Entry, r.Mode)
	if !r.Bounded {
		b.WriteString("  unbounded: the analysis rejected the program (see diagnostics)\n")
		return b.String()
	}
	sat := ""
	if r.Saturated {
		sat = " (SATURATED — bound exceeded the arithmetic ceiling)"
	}
	fmt.Fprintf(&b, "  WCET bound: %d cycles%s\n", r.BoundCycles, sat)
	fmt.Fprintf(&b, "  window-safe: %v, ITLB pages: %d, DTLB pages: %d, TLB charge: %d cycles\n",
		r.WindowSafe, r.ITLBPages, r.DTLBPages, r.TLBCycles)
	fmt.Fprintf(&b, "  cache classification: %d always-hit, %d always-miss, %d not-classified\n",
		r.AlwaysHit, r.AlwaysMiss, r.NotClassified)
	if len(r.Loops) > 0 {
		b.WriteString("  loops:\n")
		for _, l := range r.Loops {
			loc := fmt.Sprintf("%s+%d", l.Fn, l.Head)
			if l.Line > 0 {
				loc = fmt.Sprintf("%s (line %d)", loc, l.Line)
			}
			fmt.Fprintf(&b, "    %-28s depth %d  bound %-10d %s\n", loc, l.Depth, l.Bound, l.Source)
		}
	}
	if len(r.FuncCycles) > 0 {
		names := make([]string, 0, len(r.FuncCycles))
		for n := range r.FuncCycles {
			names = append(names, n)
		}
		sort.Strings(names)
		b.WriteString("  per-function bounds:\n")
		for _, n := range names {
			fmt.Fprintf(&b, "    %-28s %d cycles\n", n, r.FuncCycles[n])
		}
	}
	return b.String()
}

// analyzer is the in-flight costing state over one model.
type analyzer struct {
	*Model
	lat latModel

	memo   map[costKey]costRes
	fit    map[fitKey]fitRes
	onPath map[string]bool
	rep    *Report
}

// diag records a costing diagnostic.
func (a *analyzer) diag(sev analysis.Severity, fn string, idx int, format string, args ...interface{}) {
	a.rep.Diags = append(a.rep.Diags, a.newDiag(sev, fn, idx, format, args...))
}

// Analyze computes a static WCET bound for p under cfg. It never
// panics: analysis failures are Error diagnostics with Bounded=false.
func Analyze(p *prog.Program, cfg Config) *Report {
	m, rep := BuildModel(p, cfg)
	if m == nil {
		return rep
	}
	return m.Bound()
}

// AnalyzeMode bounds the build variant that actually runs under mode:
// it builds the model with BuildModelMode, then costs it.
func AnalyzeMode(p *prog.Program, mode Mode, base Config) (*Report, error) {
	m, rep, err := BuildModelMode(p, mode, base)
	if m == nil {
		return rep, err
	}
	return m.Bound(), nil
}

// Bound costs the model: the WCET report of m's program under m's mode.
// It starts from a copy of the front-end report and leaves m unchanged,
// so the same model may feed other analyses before or after.
func (m *Model) Bound() *Report {
	rep := *m.Report
	rep.Diags = append([]analysis.Diagnostic(nil), m.Report.Diags...)
	rep.FuncCycles = map[string]mem.Cycles{}
	a := &analyzer{
		Model:  m,
		memo:   map[costKey]costRes{},
		fit:    map[fitKey]fitRes{},
		onPath: map[string]bool{},
		rep:    &rep,
	}

	// TLB page budgets, then the latency model.
	itlbEach, dtlbEach := a.tlbBudget()
	a.lat = deriveLat(m.Platform, itlbEach, dtlbEach)
	if !itlbEach {
		rep.TLBCycles += a.satMul(rep.ITLBPages, a.lat.walk)
	}
	if !dtlbEach {
		rep.TLBCycles += a.satMul(rep.DTLBPages, a.lat.walk)
	}

	// The bound.
	cyc, ok := a.costFn(m.Prog.Entry, false, false)
	if !ok {
		return &rep
	}
	bound := a.satAdd(cyc, rep.TLBCycles)
	if m.Mode == ModeDSRLazy && m.cfg.RelocBound > 0 {
		bound = a.satAdd(bound, a.satMul(len(m.Prog.Functions), m.cfg.RelocBound))
	}
	rep.BoundCycles = bound
	rep.Bounded = !rep.HasErrors()

	for _, f := range m.Prog.Functions {
		if !m.Reach[f.Name] {
			continue
		}
		if c, ok := a.costFn(f.Name, false, false); ok {
			rep.FuncCycles[f.Name] = c
		}
	}
	return &rep
}

// tlbBudget decides how the page working sets (Report.ITLBPages/
// DTLBPages, counted by the front end) are charged. When a working set
// fits its TLB (Model.TLBFits) each page walks at most once and the
// walks are charged once, up front; otherwise every access is charged a
// full walk and a Warning is emitted.
func (a *analyzer) tlbBudget() (itlbEach, dtlbEach bool) {
	iFits, dFits := a.TLBFits()
	if !iFits {
		a.diag(analysis.Warning, "", 0,
			"code spans %d pages > %d ITLB entries: charging a page walk per fetch", a.rep.ITLBPages, a.Platform.ITLB.Entries)
	}
	if !dFits {
		why := fmt.Sprintf("data+stack span %d pages > %d DTLB entries", a.rep.DTLBPages, a.Platform.DTLB.Entries)
		if a.UnknownAccess {
			why = "a data access has no statically known address"
		}
		a.diag(analysis.Warning, "", 0, "%s: charging a page walk per data access", why)
	}
	return !iFits, !dFits
}
