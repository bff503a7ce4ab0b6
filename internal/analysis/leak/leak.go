// Package leak is a sound static quantifier of cache side-channel
// leakage for programs running on the simulated LEON3 platform. It
// counts on the WCET analyzer's front-end model (wcet.Model: CFGs,
// loop bounds, data accesses, must/may classification), the same model
// the WCET bound is costed from, and builds its per-set victim counts
// on the shared cachedom.Footprint. What it adds is a counting
// component: an upper bound on the number of attacker-distinguishable
// observation classes a run can produce. By the standard counting
// argument (CacheAudit; Doychev & Köpf), the channel capacity of any
// deterministic side channel is at most log2 of the number of
// reachable observation classes, for any secret distribution and any
// post-processing by the attacker.
//
// Two attacker models are bounded:
//
//   - Access-based (prime+probe): the attacker primes the caches, lets
//     the victim run once from a flushed state, and probes the final
//     per-set occupancies. Deterministic builds give the attacker set
//     attribution, so the observation is the per-set occupancy vector
//     and the bound is sum_s log2(min(U_s, ways)+1), with U_s the
//     statically-counted victim lines mapping to set s. Randomised
//     builds (DSR software randomisation or hash-random placement)
//     draw a fresh, secret-independent layout every run, so set
//     indices carry placement noise, not secret information: the
//     modeled observable is the sorted occupancy multiset — a
//     partition of the resident-line total — and the bound is the log2
//     of a bounded partition count. The per-placement vector bound is
//     still reported as EnvelopeBits for reference.
//
//   - Trace-based (evict+time at event granularity): the attacker sees
//     the victim's full per-access hit/miss sequence. The observation
//     is determined by the execution path and the per-site outcomes,
//     so the bound is sum over conditional branches of exec*log2(fanout)
//     plus sum over access sites of exec*log2(outcomes), using the
//     must/may classification to shrink per-site alphabets in
//     deterministic mode. DSR does not shrink this channel — moving an
//     object does not hide *whether* each access hit — and the report
//     says so honestly.
//
// For the DSR modes the package additionally reports the layout
// entropy the runtime injects per reboot (a lower bound: the
// independent per-object placement draws under the runtime's default
// randomisation parameters, core.Options.Randomisation, ignoring
// pool-order entropy) and the residual guessing entropy of the layout
// after n observed runs, R(n) >= H - n*C with C the per-run
// access-channel capacity.
package leak

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"dsr/internal/analysis"
	"dsr/internal/analysis/cachedom"
	"dsr/internal/analysis/wcet"
	"dsr/internal/cache"
	"dsr/internal/core"
	"dsr/internal/isa"
	"dsr/internal/mem"
	"dsr/internal/prog"
	"dsr/internal/tlb"
)

// guessBudgets are the observation counts of the guessing-entropy
// table.
var guessBudgets = [...]int{1, 10, 100, 1000}

// Channel is the access-based bound for one cache level.
type Channel struct {
	Cache string `json:"cache"`
	// AccessBits is the modeled access-channel capacity bound in bits:
	// the per-set occupancy vector for deterministic set-attributable
	// builds, the sorted occupancy multiset for randomised ones.
	AccessBits float64 `json:"access_bits"`
	// EnvelopeBits is the per-placement vector bound (equals AccessBits
	// in deterministic mode; in randomised modes it is the conservative
	// envelope an attacker who somehow learned the placement would get).
	EnvelopeBits float64 `json:"envelope_bits"`
	// FootprintLines bounds the distinct victim lines; TouchedSets the
	// sets with any possible victim occupancy.
	FootprintLines int `json:"footprint_lines"`
	TouchedSets    int `json:"touched_sets"`
}

// GuessRow is one row of the layout guessing-entropy table.
type GuessRow struct {
	Budget int `json:"budget"`
	// ResidualBits is the layout entropy remaining after Budget runs
	// observed at full access-channel capacity: max(0, H - n*C).
	ResidualBits float64 `json:"residual_bits"`
	// GuessWorkBits: an attacker guessing the layout needs at least
	// 2^GuessWorkBits attempts on average (log2 of the guessing-entropy
	// lower bound 2^(R-1) when R > 1).
	GuessWorkBits float64 `json:"guess_work_bits"`
}

// Report is the analysis result.
type Report struct {
	Program string `json:"program"`
	Entry   string `json:"entry"`
	Mode    string `json:"mode"`

	// Bounded is true iff every channel bound below is finite and sound.
	Bounded bool `json:"bounded"`
	// Saturated marks bounds that hit the arithmetic ceiling — still
	// sound as stated, but useless; treat as a diagnostic.
	Saturated bool `json:"saturated,omitempty"`

	// Channels holds the access-based bound per cache level (IL1, DL1,
	// L2); AccessBits is their sum — the per-run capacity of the whole
	// prime+probe observable.
	Channels   []Channel `json:"channels"`
	AccessBits float64   `json:"access_bits_total"`

	// TraceBits bounds the trace-based (per-access hit/miss sequence)
	// channel; PathBits is the control-flow part of it; TraceSites
	// counts the access sites with a nonzero alphabet.
	TraceBits  float64 `json:"trace_bits"`
	PathBits   float64 `json:"path_bits"`
	TraceSites int     `json:"trace_sites"`

	// LayoutEntropyBits is the per-reboot layout entropy lower bound
	// (DSR modes; 0 in det). Guessing is the residual-entropy table.
	LayoutEntropyBits float64    `json:"layout_entropy_bits,omitempty"`
	Guessing          []GuessRow `json:"guessing,omitempty"`

	Diags []analysis.Diagnostic `json:"diags,omitempty"`
}

// JSON renders the report as indented JSON (the `dsrlint -json -leak`
// leak section; field names are a stable contract).
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

// Format renders the human-readable report (the `dsrlint -leak` text
// output). Diagnostics are left to the caller, which prints them with
// its other findings.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "leak: %s entry %s mode %s\n", r.Program, r.Entry, r.Mode)
	if !r.Bounded {
		b.WriteString("  unbounded: no sound leakage bound (see diagnostics)\n")
	} else {
		b.WriteString("  access-based (prime+probe) channel:\n")
		for _, c := range r.Channels {
			fmt.Fprintf(&b, "    %-4s %9.1f bits  (<=%d lines over %d sets; placement-known envelope %.1f bits)\n",
				c.Cache, c.AccessBits, c.FootprintLines, c.TouchedSets, c.EnvelopeBits)
		}
		fmt.Fprintf(&b, "    total %8.1f bits per run\n", r.AccessBits)
		fmt.Fprintf(&b, "  trace-based (hit/miss sequence) channel: %.1f bits (%.1f path + %d sites)\n",
			r.TraceBits, r.PathBits, r.TraceSites)
		if r.LayoutEntropyBits > 0 {
			fmt.Fprintf(&b, "  layout entropy per reboot: >= %.1f bits\n", r.LayoutEntropyBits)
			for _, g := range r.Guessing {
				fmt.Fprintf(&b, "    after %4d run(s): residual >= %.1f bits (guess work >= 2^%.1f)\n",
					g.Budget, g.ResidualBits, g.GuessWorkBits)
			}
		}
		if r.Saturated {
			b.WriteString("  WARNING: a bound saturated the arithmetic ceiling\n")
		}
	}
	return b.String()
}

// Analyze bounds the leakage of the program the front-end model m
// describes (wcet.BuildModel, wcet.BuildModelMode). front is the
// front-end report — m.Report, or the refusing report when the front
// end built no model (m == nil) — and the leak report starts with its
// diagnostics. Analyze leaves m unchanged, so the same model may feed
// the WCET bound too. It never panics on hostile input; a refused model
// yields Bounded=false with diagnostics.
func Analyze(m *wcet.Model, front *wcet.Report) *Report {
	rep := &Report{
		Program: front.Program,
		Entry:   front.Entry,
		Mode:    front.Mode,
		Diags:   append([]analysis.Diagnostic(nil), front.Diags...),
	}
	if m == nil {
		return rep
	}
	a := &lkAnalyzer{m: m, wrep: front, rep: rep}
	if !a.validate() {
		return rep
	}
	a.accessChannels()
	a.traceChannel()
	a.entropy()
	// A finite bound needs an error-free run, as in wcet: an Error the
	// front end reported without refusing the model (conflicting loop
	// annotations) still voids it.
	rep.Bounded = !rep.HasErrors()
	rep.Saturated = a.sat
	return rep
}

// AnalyzeMode bounds the leakage of the build variant that actually
// runs under mode: the model wcet.BuildModelMode builds, so the
// analysis is wired exactly as the WCET bound and the runtime are.
func AnalyzeMode(p *prog.Program, mode wcet.Mode) (*Report, error) {
	m, front, err := wcet.BuildModelMode(p, mode, wcet.Config{})
	if err != nil {
		return nil, fmt.Errorf("leak: %w", err)
	}
	return Analyze(m, front), nil
}

type lkAnalyzer struct {
	m    *wcet.Model
	wrep *wcet.Report // the front-end report
	rep  *Report

	l2dom *cachedom.Dom
	mult  map[string]float64
	sat   bool
}

func (a *lkAnalyzer) diag(sev analysis.Severity, format string, args ...interface{}) {
	a.rep.Diags = append(a.rep.Diags, analysis.Diagnostic{
		Pass: "leak", Sev: sev, Index: -1, Msg: fmt.Sprintf(format, args...),
	})
}

// reachableFuncs returns the reachable function names in deterministic
// order (map iteration must not leak into Channels/Diags ordering).
func (a *lkAnalyzer) reachableFuncs() []string {
	names := make([]string, 0, len(a.m.Reach))
	for name, ok := range a.m.Reach {
		if ok && a.m.Funcs[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// validate refuses programs the counting argument cannot cover: an
// unresolved indirect call (unknown control flow) or an unresolved
// loop bound (unbounded trace alphabet).
func (a *lkAnalyzer) validate() bool {
	ok := true
	for _, name := range a.reachableFuncs() {
		fm := a.m.Funcs[name]
		for _, li := range a.loopsOf(fm) {
			if fm.Loops[li].Bound <= 0 {
				a.diag(analysis.Error,
					"%s: loop at block %d has no resolved bound: trace channel unbounded", name, fm.Loops[li].Header)
				ok = false
			}
		}
		for bi, blk := range fm.G.Blocks {
			if !fm.G.Reachable[bi] {
				continue
			}
			for i := blk.Start; i < blk.End; i++ {
				if fm.Plan.Call[i] && fm.Callee[i] == "" {
					a.diag(analysis.Error,
						"%s+%d: unresolved indirect call: control flow unknown", name, i)
					ok = false
				}
			}
		}
	}
	return ok
}

// loopsOf returns the indices of loops any reachable block belongs to.
func (a *lkAnalyzer) loopsOf(fm *wcet.FuncModel) []int {
	seen := map[int]bool{}
	var out []int
	for bi := range fm.G.Blocks {
		if !fm.G.Reachable[bi] {
			continue
		}
		for li := fm.Innermost[bi]; li >= 0; li = fm.Loops[li].Parent {
			if seen[li] {
				break
			}
			seen[li] = true
			out = append(out, li)
		}
	}
	sort.Ints(out)
	return out
}

func (a *lkAnalyzer) det() bool { return a.m.Mode == wcet.ModeDet }

// ---------------------------------------------------------------------
// Access-based channel.

// accessChannels builds the per-cache victim footprints and converts
// them to capacity bounds.
func (a *lkAnalyzer) accessChannels() {
	pf := a.m.Platform
	a.l2dom = cachedom.New(pf.L2)
	il1c := cachedom.NewFootprint(a.m.IL1)
	dl1c := cachedom.NewFootprint(a.m.DL1)
	l2c := cachedom.NewFootprint(a.l2dom)

	a.codeFootprint(il1c, dl1c, l2c)
	a.dataFootprint(dl1c, l2c)
	a.pageTableFootprint(l2c)

	a.rep.Channels = []Channel{
		a.channel("IL1", il1c, pf.IL1),
		a.channel("DL1", dl1c, pf.DL1),
		a.channel("L2", l2c, pf.L2),
	}
	for _, c := range a.rep.Channels {
		a.rep.AccessBits += c.AccessBits
	}
}

// channel converts one footprint into the per-cache bound. Set
// attribution requires both a deterministic layout and modulo
// placement; otherwise the multiset bound applies (fresh placement or
// hash seed per run, secret-independent).
func (a *lkAnalyzer) channel(name string, fp *cachedom.Footprint, ccfg cache.Config) Channel {
	env := vectorBits(fp)
	ch := Channel{
		Cache:          name,
		EnvelopeBits:   env,
		FootprintLines: totalLines(fp),
		TouchedSets:    touchedSets(fp),
	}
	if a.det() && ccfg.Placement == cache.PlacementModulo {
		ch.AccessBits = env
	} else {
		ch.AccessBits = multisetBits(ch.FootprintLines, int(fp.Dom.NSets), fp.Dom.NWays)
	}
	return ch
}

// codeFootprint: every reachable function's code installs in IL1 and
// L2. Lazy relocation additionally streams each function's old copy
// through DL1 (the copy loop reads every old word; DL1 is never
// invalidated by the relocator, and the old L2 lines it refills are
// invalidated again before the relocator returns, so only DL1 keeps
// them).
func (a *lkAnalyzer) codeFootprint(il1c, dl1c, l2c *cachedom.Footprint) {
	lazy := a.m.Mode == wcet.ModeDSRLazy
	for _, name := range a.reachableFuncs() {
		fm := a.m.Funcs[name]
		size := int64(fm.Fn.SizeBytes())
		if a.det() {
			il1c.AddRange(fm.Base, fm.Base+mem.Addr(size)-1)
			l2c.AddRange(fm.Base, fm.Base+mem.Addr(size)-1)
			continue
		}
		il1c.AddRelative(a.m.IL1.SpanLines(size))
		l2c.AddRelative(a.l2dom.SpanLines(size))
		if lazy {
			dl1c.AddRelative(a.m.DL1.SpanLines(size))
		}
	}
}

// dataFootprint: loads install in DL1 and L2; stores install only where
// the write policy allocates (the LEON3 DL1 is write-through/no-
// allocate — a store miss leaves DL1 untouched but the write-through
// installs the line in the write-back L2). The stack span is concrete
// in every mode (it grows down from StackTop; DSR only shifts frames
// within it). An access with no statically known address saturates the
// data-side footprints.
func (a *lkAnalyzer) dataFootprint(dl1c, l2c *cachedom.Footprint) {
	pf := a.m.Platform
	dl1Alloc := pf.DL1.Write == cache.WriteBackAllocate
	l2Alloc := pf.L2.Write == cache.WriteBackAllocate
	seenObj := map[string]bool{}
	// Register-window spill/fill traps write window save areas inside
	// the bounded stack span; they are data traffic the Acc table does
	// not list, so a non-window-safe program touches the stack even if
	// no instruction does.
	stackTouched := a.m.Stack != nil && a.m.Stack.WindowSpillBound > 0

	for _, name := range a.reachableFuncs() {
		fm := a.m.Funcs[name]
		for bi, blk := range fm.G.Blocks {
			if !fm.G.Reachable[bi] {
				continue
			}
			for i := blk.Start; i < blk.End; i++ {
				acc := fm.Acc[i]
				if !acc.Load && !acc.Store {
					continue
				}
				installD := acc.Load || (acc.Store && dl1Alloc)
				installL2 := acc.Load || (acc.Store && l2Alloc)
				if !installD && !installL2 {
					continue
				}
				if !acc.Valid {
					a.diag(analysis.Warning,
						"%s+%d: data access has no statically known address: data-side footprints saturated", name, i)
					dl1c.Saturate()
					l2c.Saturate()
					continue
				}
				switch {
				case strings.HasPrefix(acc.Sym, wcet.StackSymPrefix):
					stackTouched = true
				case acc.Sym == "":
					if acc.Lo < 0 {
						dl1c.Saturate()
						l2c.Saturate()
						continue
					}
					lo, hi := mem.Addr(acc.Lo), mem.Addr(acc.Hi+int64(acc.Size)-1)
					if installD {
						dl1c.AddRange(lo, hi)
					}
					if installL2 {
						l2c.AddRange(lo, hi)
					}
				default:
					obj := a.m.Prog.DataObject(acc.Sym)
					if obj == nil {
						dl1c.Saturate()
						l2c.Saturate()
						continue
					}
					if a.det() {
						base := a.m.Layout[acc.Sym]
						lo := base + mem.Addr(acc.Lo)
						hi := base + mem.Addr(acc.Hi) + mem.Addr(acc.Size) - 1
						if installD {
							dl1c.AddRange(lo, hi)
						}
						if installL2 {
							l2c.AddRange(lo, hi)
						}
					} else if !seenObj[acc.Sym] {
						seenObj[acc.Sym] = true
						if installD {
							dl1c.AddRelative(a.m.DL1.SpanLines(int64(obj.Size)))
						}
						if installL2 {
							l2c.AddRelative(a.l2dom.SpanLines(int64(obj.Size)))
						}
					}
				}
			}
		}
	}

	if stackTouched && a.m.Stack != nil && a.m.Stack.MaxStackBytes > 0 {
		top := mem.Addr(pf.StackTop)
		lo := top - mem.Addr(a.m.Stack.MaxStackBytes)
		dl1c.AddRange(lo, top-1)
		l2c.AddRange(lo, top-1)
	}
}

// pageTableFootprint: TLB misses walk the page table through the bus,
// installing the walked entries in the L2 (tlb.TLB reads the
// tlb.WalkAddrs entries). Deterministic mode enumerates the exact
// entry words for every page the run can touch; DSR joins over
// placements with one line per walk read per page.
func (a *lkAnalyzer) pageTableFootprint(l2c *cachedom.Footprint) {
	pf := a.m.Platform
	if a.det() {
		for _, page := range a.detPages() {
			for _, w := range tlb.WalkAddrs(pf.PageTableBase, page) {
				l2c.AddRange(w, w+mem.WordSize-1)
			}
		}
		return
	}
	l2c.AddRelative(tlb.WalkLevels * (a.wrep.ITLBPages + a.wrep.DTLBPages))
}

// detPages enumerates the page numbers of the code span, the data
// objects and the stack span under the deterministic layout.
func (a *lkAnalyzer) detPages() []mem.Addr {
	pages := map[mem.Addr]bool{}
	span := func(lo, hi mem.Addr) {
		for p := lo / mem.PageSize; p <= hi/mem.PageSize; p++ {
			pages[p] = true
		}
	}
	for _, name := range a.reachableFuncs() {
		fm := a.m.Funcs[name]
		span(fm.Base, fm.Base+fm.Fn.SizeBytes()-1)
	}
	for _, d := range a.m.Prog.Data {
		base, ok := a.m.Layout[d.Name]
		if !ok {
			continue
		}
		span(base, base+d.Size-1)
	}
	if a.m.Stack != nil && a.m.Stack.MaxStackBytes > 0 {
		top := mem.Addr(a.m.Platform.StackTop)
		span(top-mem.Addr(a.m.Stack.MaxStackBytes), top-1)
	}
	out := make([]mem.Addr, 0, len(pages))
	for p := range pages {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ---------------------------------------------------------------------
// Trace-based channel.

// traceChannel bounds log2 of the number of distinct per-access
// hit/miss event sequences. A sequence is determined by the execution
// path (which conditional edges were taken, bounded by exec*log2
// (fanout) per branch block) and by the outcome of every access event
// on that path (bounded per site by its outcome alphabet under the
// must/may classification).
func (a *lkAnalyzer) traceChannel() {
	pf := a.m.Platform
	log23 := math.Log2(3)
	dl1WT := pf.DL1.Write == cache.WriteThroughNoAllocate

	// A fetch or load is one DL1/IL1 probe with outcomes {L1 hit,
	// L1 miss+L2 hit, L1 miss+L2 miss}; the classification collapses
	// the alphabet. A write-through store probes DL1 ({hit, miss}) and
	// always writes the L2 ({hit, miss}).
	loadBits := func(c cachedom.Class) float64 {
		switch c {
		case cachedom.ClassHit:
			return 0
		case cachedom.ClassMiss:
			return 1
		default:
			return log23
		}
	}
	storeBits := func(c cachedom.Class) float64 {
		if dl1WT {
			if c == cachedom.ClassHit || c == cachedom.ClassMiss {
				return 1 // DL1 outcome known; L2 write outcome open
			}
			return 2
		}
		return loadBits(c)
	}

	// TLB walks emit real L2 reads. When the page working set fits the
	// TLBs (wcet.Model.TLBFits, the WCET bound's argument too) each page
	// walks once; otherwise every access may walk.
	iFits, dFits := a.m.TLBFits()
	const walk = float64(tlb.WalkLevels) // page-table reads per walk, either TLB

	var pathBits, siteBits float64
	sites := 0
	for _, name := range a.reachableFuncs() {
		fm := a.m.Funcs[name]
		fmult := a.fnMult(name)
		for bi, blk := range fm.G.Blocks {
			if !fm.G.Reachable[bi] {
				continue
			}
			e := a.capExec(fmult * a.blockMult(fm, bi))
			if e == 0 {
				continue
			}
			if n := len(blk.Succs); n > 1 {
				pathBits += e * math.Log2(float64(n))
			}
			for i := blk.Start; i < blk.End; i++ {
				fb := loadBits(classAt(fm.Class, true, i))
				if !iFits {
					fb += walk // every fetch may walk the ITLB
				}
				if fb > 0 {
					siteBits += e * fb
					sites++
				}
				acc := fm.Acc[i]
				if !acc.Load && !acc.Store {
					continue
				}
				var db float64
				if acc.Load {
					db = loadBits(classAt(fm.Class, false, i))
				} else {
					db = storeBits(classAt(fm.Class, false, i))
				}
				if !dFits {
					db += walk
				}
				if db > 0 {
					siteBits += e * db
					sites++
				}
			}
		}
	}
	if iFits {
		siteBits += walk * float64(a.wrep.ITLBPages)
	}
	if dFits {
		siteBits += walk * float64(a.wrep.DTLBPages)
	}

	// Lazy relocation streams each function once through DL1 (read old
	// word, write-through new word), adding observable events the eager
	// mode performs invisibly before the measured window.
	if a.m.Mode == wcet.ModeDSRLazy {
		for _, name := range a.reachableFuncs() {
			fm := a.m.Funcs[name]
			words := float64(fm.Fn.SizeBytes() / isa.InstrBytes)
			siteBits += words * (log23 + 2)
		}
		a.diag(analysis.Info,
			"lazy relocation copies execute inside the observed window: their DL1/L2 traffic is charged to the trace channel")
	}

	// Register-window spill/fill traps are unclassified data traffic:
	// each spill stores one 16-word window into its save area and each
	// later fill loads it back (fills ≤ spills).
	if a.m.Stack != nil && a.m.Stack.WindowSpillBound > 0 {
		db := storeBits(cachedom.ClassUnknown) + loadBits(cachedom.ClassUnknown)
		if !dFits {
			db += 2 * walk
		}
		siteBits += float64(a.m.Stack.WindowSpillBound) * 16 * db
		a.diag(analysis.Info,
			"program is not window-safe (up to %d spill(s)): trap traffic charged to the trace channel",
			a.m.Stack.WindowSpillBound)
	}

	a.rep.PathBits = pathBits
	a.rep.TraceBits = a.capExec(pathBits + siteBits)
	a.rep.TraceSites = sites
	if !a.det() {
		a.diag(analysis.Info,
			"DSR does not reduce the trace-based channel: relocation hides *where* lines land, not *whether* each access hits")
	}
}

func classAt(cls *cachedom.Classification, fetch bool, i int) cachedom.Class {
	if cls == nil {
		return cachedom.ClassUnknown
	}
	if fetch {
		return cls.FetchClass[i]
	}
	return cls.DataClass[i]
}

func (a *lkAnalyzer) capExec(v float64) float64 {
	if v >= maxExec || math.IsInf(v, 1) || math.IsNaN(v) {
		a.sat = true
		return maxExec
	}
	return v
}

// blockMult is the product of the loop bounds enclosing block bi.
func (a *lkAnalyzer) blockMult(fm *wcet.FuncModel, bi int) float64 {
	mult := 1.0
	for li := fm.Innermost[bi]; li >= 0; li = fm.Loops[li].Parent {
		mult *= float64(fm.Loops[li].Bound)
	}
	return a.capExec(mult)
}

// fnMult bounds how many times a function can be entered per run,
// memoised over the acyclic call graph (the front end rejects
// recursion).
func (a *lkAnalyzer) fnMult(name string) float64 {
	if a.mult == nil {
		a.mult = map[string]float64{}
	}
	if v, ok := a.mult[name]; ok {
		return v
	}
	a.mult[name] = 0 // cycle guard; unreachable given no recursion
	var total float64
	if name == a.m.Prog.Entry {
		total = 1
	}
	for _, caller := range a.reachableFuncs() {
		fm := a.m.Funcs[caller]
		for bi, blk := range fm.G.Blocks {
			if !fm.G.Reachable[bi] {
				continue
			}
			for i := blk.Start; i < blk.End; i++ {
				if fm.Callee[i] != name {
					continue
				}
				total += a.fnMult(caller) * a.blockMult(fm, bi)
			}
		}
	}
	total = a.capExec(total)
	a.mult[name] = total
	return total
}

// ---------------------------------------------------------------------
// Layout entropy and guessing entropy.

// entropy lower-bounds the per-reboot layout entropy: the runtime draws
// one independent aligned offset per function and per data object
// (heap.Pool.Allocate) and one per non-leaf function's stack frame
// (core.Runtime.Reboot); pool-order permutation entropy is ignored, so
// this undercounts — the safe direction for a security claim.
func (a *lkAnalyzer) entropy() {
	if a.det() {
		return
	}
	offset, stack, align := core.Options{}.Randomisation(a.m.Platform)
	perPlace := math.Log2(float64(offset / align))
	perStack := math.Log2(float64(stack / align))
	if perPlace < 0 || perStack < 0 {
		return
	}
	var h float64
	h += perPlace * float64(len(a.m.Prog.Functions)+len(a.m.Prog.Data))
	for _, f := range a.m.Prog.Functions {
		if !f.Leaf {
			h += perStack
		}
	}
	a.rep.LayoutEntropyBits = h

	// Residual layout entropy after n runs observed at full
	// access-channel capacity. One reboot per run (the paper's usage)
	// makes each run a fresh draw; the attacker's best case is
	// extracting the full per-run capacity about the *current* layout,
	// so n budgets the attack on any single layout between reboots.
	c := a.rep.AccessBits
	for _, n := range guessBudgets {
		r := h - float64(n)*c
		if r < 0 {
			r = 0
		}
		work := r - 1
		if work < 0 {
			work = 0
		}
		a.rep.Guessing = append(a.rep.Guessing, GuessRow{
			Budget: n, ResidualBits: r, GuessWorkBits: work,
		})
	}
}
