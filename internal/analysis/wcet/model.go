// The analyzer front end: everything derived about a program before
// costing — CFGs, loop bounds, data accesses, access plans, must/may
// classification, call edges, reachability and the deterministic
// layout — as one Model. The WCET bound (Model.Bound) and the leakage
// analyzer (internal/analysis/leak) both read a Model and neither
// changes it, so one model can feed both, and the two bounds are
// computed from the same artifacts. BuildModelMode and BuildTransformed
// are the one place a layout mode is wired to the program the runtime
// executes.
package wcet

import (
	"fmt"

	"dsr/internal/analysis"
	"dsr/internal/analysis/cachedom"
	"dsr/internal/cache"
	"dsr/internal/core"
	"dsr/internal/isa"
	"dsr/internal/loader"
	"dsr/internal/mem"
	"dsr/internal/platform"
	"dsr/internal/prog"
)

// StackSymPrefix marks the pseudo-symbol DataAccess.Sym uses for an
// access into a function's stack frame: StackSymPrefix + function name.
const StackSymPrefix = "\x00stack:"

// DataAccess is one instruction's data access in object coordinates.
type DataAccess struct {
	Valid  bool   // address statically known
	Sym    string // object name; "" = absolute; StackSymPrefix+f = f's frame
	Lo, Hi int64  // access start offset range
	Size   int    // bytes
	Load   bool
	Store  bool
}

// FuncModel bundles the front end's per-function artifacts.
type FuncModel struct {
	Fn        *prog.Function
	G         *analysis.CFG
	Loops     []*LoopRegion
	Innermost []int // innermost loop index per block, -1 for none
	Plan      *cachedom.AccessPlan
	Class     *cachedom.Classification
	Callee    []string // resolved callee name per instruction ("" = none)
	Base      mem.Addr // deterministic code base (0 in DSR modes)
	Acc       []DataAccess

	df *dataflow
}

// Model is the analyzer front end's view of a program under one mode.
type Model struct {
	Prog     *prog.Program
	Mode     Mode
	Platform *platform.Config
	IL1, DL1 *cachedom.Dom

	// Layout is the deterministic placement (nil in DSR modes).
	Layout loader.Placement
	// Funcs maps function name to its artifacts; Reach marks functions
	// reachable from the entry.
	Funcs map[string]*FuncModel
	Reach map[string]bool

	// WindowSafe: no register-window spill/fill traps can occur.
	// UseMustI/UseMustD: the must/may classification is meaningful for
	// the respective cache (deterministic layout, modulo+LRU).
	// UnknownAccess: a reachable load or store has no statically known
	// address.
	WindowSafe         bool
	UseMustI, UseMustD bool
	UnknownAccess      bool
	// Stack is the stack analysis result (max excursion, spill bound).
	Stack *analysis.StackBound

	// Report carries the front end's diagnostics, loop table and
	// cache-classification tallies; the bound fields are Bound's.
	Report *Report

	cfg Config
	// hotIOK/hotDOK: loop persistence may be claimed for the cache.
	hotIOK, hotDOK bool
}

// BuildModel runs the analysis front end on p as given and returns the
// model, or nil with the diagnostic-bearing report when the front end
// refuses the program (an unbounded loop, recursion, a validation
// error).
func BuildModel(p *prog.Program, cfg Config) (*Model, *Report) {
	if cfg.Platform == nil {
		def := platform.ProximaLEON3()
		cfg.Platform = &def
	}
	m := &Model{
		Prog: p, Mode: cfg.Mode, Platform: cfg.Platform,
		IL1: cachedom.New(cfg.Platform.IL1), DL1: cachedom.New(cfg.Platform.DL1),
		Funcs:  map[string]*FuncModel{},
		Report: &Report{Program: p.Name, Entry: p.Entry, Mode: cfg.Mode.String()},
		cfg:    cfg,
	}
	if !m.build() {
		return nil, m.Report
	}
	return m, m.Report
}

// BuildModelMode builds the model of the build variant that actually
// runs under mode, so no caller (cmd/dsrlint, the soundness gates, the
// experiments harness, the leakage analyzer) can wire the analysis
// differently from the runtime: ModeDet models p itself on the
// deterministic sequential layout (the paper's COTS baseline); the DSR
// modes model the core.Transform output (see BuildTransformed).
// base.Mode is overridden by mode.
func BuildModelMode(p *prog.Program, mode Mode, base Config) (*Model, *Report, error) {
	if mode == ModeDet {
		base.Mode = mode
		m, rep := BuildModel(p, base)
		return m, rep, nil
	}
	tp, meta, _, err := core.Transform(p)
	if err != nil {
		return nil, nil, fmt.Errorf("wcet: DSR transform failed: %w", err)
	}
	m, rep := BuildTransformed(tp, meta, mode, base)
	return m, rep, nil
}

// BuildTransformed builds the model of tp, the core.Transform output
// with metadata meta, under the DSR mode mode: the transform's indirect
// calls resolve through the canonical dispatch resolver, frames carry
// the runtime's default random stack offset, and ModeDSRLazy charges
// each function the platform's relocation cost bound unless
// base.RelocBound is already set. base.Lines is dropped because
// instruction indices move under the transform.
func BuildTransformed(tp *prog.Program, meta *core.Metadata, mode Mode, base Config) (*Model, *Report) {
	base.Mode = mode
	base.Lines = nil
	base.resolve = analysis.ResolveDispatch(meta.TransformInfo())
	if base.Platform == nil {
		def := platform.ProximaLEON3()
		base.Platform = &def
	}
	_, base.stackOffsetBound, _ = core.Options{}.Randomisation(base.Platform)
	if mode == ModeDSRLazy && base.RelocBound == 0 {
		base.RelocBound = relocCostBound(tp, base.Platform)
	}
	return BuildModel(tp, base)
}

func (m *Model) det() bool { return m.Mode == ModeDet }

// newDiag builds a diagnostic, resolving a source line when possible.
func (m *Model) newDiag(sev analysis.Severity, fn string, idx int, format string, args ...interface{}) analysis.Diagnostic {
	d := analysis.Diagnostic{
		Pass: "wcet", Sev: sev, Fn: fn, Index: idx,
		Msg: fmt.Sprintf(format, args...),
	}
	if m.cfg.Lines != nil {
		if ln, ok := m.cfg.Lines(fn, idx); ok {
			d.Line = ln
		}
	}
	return d
}

// diag records a front-end diagnostic.
func (m *Model) diag(sev analysis.Severity, fn string, idx int, format string, args ...interface{}) {
	m.Report.Diags = append(m.Report.Diags, m.newDiag(sev, fn, idx, format, args...))
}

// build runs the front end: validation, stack analysis, layout, domain
// gates, per-function CFGs and dataflow, reachability, loop bounds,
// data accesses and must/may classification. false means a hard
// failure already recorded in m.Report.
func (m *Model) build() bool {
	p, pf, rep := m.Prog, m.Platform, m.Report
	if err := p.Validate(); err != nil {
		m.diag(analysis.Error, "", 0, "program does not validate: %v", err)
		return false
	}

	// Stack analysis: recursion detection and window-trap bound.
	sb, err := analysis.AnalyzeStack(p, analysis.StackOptions{
		NumWindows:       pf.CPU.NumWindows,
		StackOffsetBound: m.cfg.stackOffsetBound,
		Resolve:          m.cfg.resolve,
	})
	if err != nil {
		m.diag(analysis.Error, "", 0, "stack analysis failed: %v", err)
		return false
	}
	m.Stack = sb
	m.WindowSafe = sb.WindowSpillBound == 0
	rep.WindowSafe = m.WindowSafe
	if !m.WindowSafe {
		m.diag(analysis.Warning, "", 0,
			"program is not window-safe (up to %d spill(s)): every save/restore is charged a full trap", sb.WindowSpillBound)
	}

	// Deterministic layout (ModeDet only).
	if m.det() {
		lay, err := loader.LayoutSequential(p, loader.DefaultSequentialConfig())
		if err != nil {
			m.diag(analysis.Error, "", 0, "layout failed: %v", err)
			return false
		}
		m.Layout = lay.Placement
	}

	// Domain gates.
	modLRU := func(c cache.Config) bool {
		return c.Placement == cache.PlacementModulo && c.Replacement == cache.ReplacementLRU
	}
	m.UseMustI = m.det() && modLRU(pf.IL1)
	m.UseMustD = m.det() && modLRU(pf.DL1) && m.WindowSafe
	m.hotIOK = m.Mode != ModeDSRLazy && modLRU(pf.IL1)
	m.hotDOK = m.Mode != ModeDSRLazy && modLRU(pf.DL1) && m.WindowSafe
	if m.det() && (!modLRU(pf.IL1) || !modLRU(pf.DL1)) {
		m.diag(analysis.Warning, "", 0,
			"cache is not modulo-placed LRU: must/may analysis and persistence disabled (every access charged as a miss)")
	}

	// Per-function artifacts.
	m.buildFns()
	m.computeReach()

	// Loop bounds (reachable functions only: dead code needs none).
	allBounded := true
	for _, f := range p.Functions {
		if !m.Reach[f.Name] {
			continue
		}
		fm := m.Funcs[f.Name]
		ok := fm.df.resolveBounds(fm, func(sev analysis.Severity, idx int, format string, args ...interface{}) {
			m.diag(sev, f.Name, idx, format, args...)
		})
		if !ok {
			allBounded = false
		}
		// Phase 2: precise induction ranges for the address analysis.
		fm.df.run()
		m.buildAccesses(fm)
		for b, blk := range fm.G.Blocks {
			if !fm.G.Reachable[b] {
				continue
			}
			for _, acc := range fm.Acc[blk.Start:blk.End] {
				if (acc.Load || acc.Store) && !acc.Valid {
					m.UnknownAccess = true
				}
			}
		}
	}
	for _, f := range p.Functions {
		if !m.Reach[f.Name] {
			continue
		}
		fm := m.Funcs[f.Name]
		for _, l := range fm.Loops {
			lb := LoopBound{Fn: f.Name, Head: fm.G.Blocks[l.Header].Start, Bound: l.Bound, Source: l.source, Depth: l.Depth}
			if m.cfg.Lines != nil {
				if ln, ok := m.cfg.Lines(f.Name, lb.Head); ok {
					lb.Line = ln
				}
			}
			rep.Loops = append(rep.Loops, lb)
		}
	}
	if !allBounded {
		return false
	}

	// Must/may classification.
	for _, f := range p.Functions {
		if !m.Reach[f.Name] {
			continue
		}
		fm := m.Funcs[f.Name]
		fm.Class = cachedom.Classify(fm.G, fm.Plan, m.IL1, m.DL1, m.UseMustI, m.UseMustD)
		rep.AlwaysHit += fm.Class.AlwaysHit
		rep.AlwaysMiss += fm.Class.AlwaysMiss
		rep.NotClassified += fm.Class.NotClassified
	}
	rep.ITLBPages, rep.DTLBPages = m.pageSets()
	return true
}

// pageSets bounds the code and data+stack page working sets, the
// numbers of distinct pages the run can touch through the ITLB and the
// DTLB. Under the deterministic layout code and data are contiguous
// spans with known bases; under DSR each object may straddle one page
// more than its size needs. Both analyses read the result from the
// front-end report: the WCET bound charges the walks (Model.Bound's TLB
// budget) and the leakage analysis counts them as observable events.
func (m *Model) pageSets() (iPages, dPages int) {
	pg := int64(mem.PageSize)
	pages := func(size int64) int { return int((size-1)/pg) + 2 } // unknown base: +1 slack

	if m.det() {
		var cLo, cHi, dLo, dHi mem.Addr
		first := true
		for _, f := range m.Prog.Functions {
			b := m.Layout[f.Name]
			e := b + f.SizeBytes()
			if first || b < cLo {
				cLo = b
			}
			if first || e > cHi {
				cHi = e
			}
			first = false
		}
		iPages = int(cHi/mem.Addr(pg)-cLo/mem.Addr(pg)) + 1
		first = true
		for _, d := range m.Prog.Data {
			b := m.Layout[d.Name]
			e := b + d.Size
			if first || b < dLo {
				dLo = b
			}
			if first || e > dHi {
				dHi = e
			}
			first = false
		}
		if !first {
			dPages = int(dHi/mem.Addr(pg)-dLo/mem.Addr(pg)) + 1
		}
	} else {
		for _, f := range m.Prog.Functions {
			iPages += pages(int64(f.SizeBytes()))
		}
		for _, d := range m.Prog.Data {
			dPages += pages(int64(d.Size))
		}
	}
	// The stack span below StackTop is concrete in every mode.
	if stackBytes := int64(m.Stack.MaxStackBytes); stackBytes > 0 {
		dPages += int(stackBytes/pg) + 1
	}
	return iPages, dPages
}

// TLBFits reports whether the code and the data+stack page working
// sets (Report.ITLBPages/DTLBPages) fit their fully-associative LRU
// TLBs, whose insertion prefers invalid entries, so no page is evicted
// below capacity and each page walks at most once. An unknown-address
// data access could touch a fresh page each time, so the data side
// never fits then. The WCET bound charges the walks of a fitting set
// once, up front, and the leakage analysis counts them once.
func (m *Model) TLBFits() (iFits, dFits bool) {
	iFits = m.Report.ITLBPages <= m.Platform.ITLB.Entries
	dFits = m.Report.DTLBPages <= m.Platform.DTLB.Entries && !m.UnknownAccess
	return iFits, dFits
}

// computeReach marks every function reachable from the entry through
// resolved call edges. Unreachable functions are pruned from the
// analysis: their loops need no bounds, they are not classified and not
// costed — dead code must not be able to veto a live program's bound.
func (m *Model) computeReach() {
	m.Reach = map[string]bool{}
	var walk func(name string)
	walk = func(name string) {
		if m.Reach[name] {
			return
		}
		fm, ok := m.Funcs[name]
		if !ok {
			return
		}
		m.Reach[name] = true
		for _, c := range fm.Callee {
			if c != "" {
				walk(c)
			}
		}
	}
	walk(m.Prog.Entry)
	for _, f := range m.Prog.Functions {
		if !m.Reach[f.Name] {
			m.diag(analysis.Info, f.Name, 0,
				"function %q is unreachable from entry %q: pruned from the WCET analysis", f.Name, m.Prog.Entry)
		}
	}
}

// buildFns constructs CFGs, loop nests, call clobbers and phase-1
// dataflow for every function.
func (m *Model) buildFns() {
	// Global facts for the clobber model: the registers each leaf
	// writes, and whether any function writes %sp/%fp as an ordinary
	// destination (if none does, a caller's %sp survives calls — the
	// callee sees it as %fp and window rotation restores the rest).
	leafWrites := map[string][]isa.Reg{}
	spWritten := false
	for _, f := range m.Prog.Functions {
		var writes []isa.Reg
		seen := map[isa.Reg]bool{}
		for i := range f.Code {
			in := &f.Code[i]
			for r := isa.G0; r < isa.NumRegs; r++ {
				if writesIntReg(in, r) {
					if r == isa.SP || r == isa.FP {
						spWritten = true
					}
					if f.Leaf && !seen[r] {
						seen[r] = true
						writes = append(writes, r)
					}
				}
			}
		}
		if f.Leaf {
			leafWrites[f.Name] = writes
		}
	}
	// A non-leaf callee gets a fresh window: the caller keeps its
	// locals and ins; its globals and outs (the callee's ins) may die.
	nonLeafClobber := []isa.Reg{
		isa.G1, isa.G2, isa.G3, isa.G4, isa.G5, isa.G6, isa.G7,
		isa.O0, isa.O1, isa.O2, isa.O3, isa.O4, isa.O5, isa.O7,
	}
	if spWritten {
		nonLeafClobber = append(nonLeafClobber, isa.SP)
	}

	for _, f := range m.Prog.Functions {
		g := analysis.BuildCFG(f)
		fm := &FuncModel{Fn: f, G: g, Callee: make([]string, len(f.Code))}
		fm.Loops, fm.Innermost = buildLoopNest(g)
		if m.det() {
			fm.Base = m.Layout[f.Name]
		}
		fm.df = newDataflow(f, g)
		for i := range f.Code {
			var callee string
			switch f.Code[i].Op {
			case isa.Call:
				callee = f.Code[i].Sym
			case isa.CallR:
				if m.cfg.resolve != nil {
					if c, ok := m.cfg.resolve(f, i); ok {
						callee = c
					}
				}
				if callee == "" {
					fm.df.clobbers[i] = callClobber{all: true}
					continue
				}
			default:
				continue
			}
			fm.Callee[i] = callee
			target := m.Prog.Function(callee)
			switch {
			case target == nil:
				fm.df.clobbers[i] = callClobber{all: true}
			case target.Leaf:
				fm.df.clobbers[i] = callClobber{regs: leafWrites[callee]}
			default:
				fm.df.clobbers[i] = callClobber{regs: nonLeafClobber}
			}
		}
		fm.df.run() // phase 1: feeds loop-bound inference
		m.Funcs[f.Name] = fm
	}
}

// buildAccesses derives the per-instruction data accesses and the
// deterministic-mode access plan from the converged phase-2 states.
func (m *Model) buildAccesses(fm *FuncModel) {
	n := len(fm.Fn.Code)
	fm.Acc = make([]DataAccess, n)
	fm.Plan = &cachedom.AccessPlan{
		FetchLine: make([]mem.Addr, n),
		Data:      make([]cachedom.AccessInfo, n),
		Call:      make([]bool, n),
	}
	for i := range fm.Fn.Code {
		op := fm.Fn.Code[i].Op
		if m.det() {
			fm.Plan.FetchLine[i] = m.IL1.LineOf(fm.Base + mem.Addr(i)*isa.InstrBytes)
		}
		if op == isa.Call || op == isa.CallR {
			fm.Plan.Call[i] = true
		}
	}
	fm.df.replay(func(i int, st *regState) {
		in := &fm.Fn.Code[i]
		var acc DataAccess
		switch in.Op {
		case isa.Ld, isa.FLd:
			acc.Load, acc.Size = true, mem.WordSize
		case isa.Ldub:
			acc.Load, acc.Size = true, 1
		case isa.St, isa.FSt:
			acc.Store, acc.Size = true, mem.WordSize
		case isa.Stb:
			acc.Store, acc.Size = true, 1
		default:
			return
		}
		base := st.get(in.Rs1)
		switch base.kind {
		case vSym:
			acc.Valid = true
			acc.Sym = base.sym
			acc.Lo, acc.Hi = base.lo+int64(in.Imm), base.hi+int64(in.Imm)
		case vInt:
			acc.Valid = true
			acc.Lo, acc.Hi = base.lo+int64(in.Imm), base.hi+int64(in.Imm)
		}
		fm.Acc[i] = acc

		// Deterministic plan entry for the must/may domains: only
		// single-line concrete addresses are "known".
		if m.det() && acc.Valid {
			var lo, hi mem.Addr
			resolved := false
			switch {
			case acc.Sym == "":
				if acc.Lo >= 0 {
					lo, hi = mem.Addr(acc.Lo), mem.Addr(acc.Hi+int64(acc.Size)-1)
					resolved = true
				}
			default:
				if b, ok := m.Layout[acc.Sym]; ok && acc.Lo >= 0 {
					lo, hi = b+mem.Addr(acc.Lo), b+mem.Addr(acc.Hi)+mem.Addr(acc.Size)-1
					resolved = true
				}
			}
			if resolved && m.DL1.LineOf(lo) == m.DL1.LineOf(hi) {
				fm.Plan.Data[i] = cachedom.AccessInfo{Load: acc.Load, Store: acc.Store, LineKnown: true, Line: m.DL1.LineOf(lo)}
				return
			}
		}
		fm.Plan.Data[i] = cachedom.AccessInfo{Load: acc.Load, Store: acc.Store}
	})
}
