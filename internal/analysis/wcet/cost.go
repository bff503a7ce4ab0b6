// Cost model and IPET-style bound computation.
//
// The per-instruction core cost comes from the shared timing table
// (internal/timing) — the same Model the simulator charges from, so the
// two cannot drift. Memory-hierarchy stalls are bounded here from the
// platform configuration:
//
//   - every L1 miss is charged the worst full-hierarchy latency (bus +
//     L2 hit/miss with dirty-victim writeback + DRAM line fill), derived
//     generically from the cache/bus/DRAM configs;
//   - stores on the write-through DL1 are charged the store-buffer-
//     adjusted worst (max(0, hierarchy − StoreHidden)), mirroring
//     cpu's dwrite;
//   - register-window spills/fills are charged per Save/Restore/Ret
//     only when the stack analysis cannot prove the program window-safe;
//   - TLB walks are charged through a page budget (wcet.go): when the
//     program's page working set fits the fully-associative LRU TLB,
//     each page walks at most once.
//
// Miss counts are bounded three ways, strongest applicable wins:
//
//  1. must-analysis always-hits (deterministic layout, modulo+LRU);
//  2. loop persistence ("hotness"): a loop region whose instruction or
//     data footprint provably fits its cache pays each footprint line's
//     miss once per region entry and nothing per iteration — for data
//     this requires every load AND store in the region (and its
//     callees) to be statically known, since an unknown store could age
//     a footprint line to eviction;
//  3. distinct-line counting per basic block: fetch addresses within a
//     block strictly increase, so a block execution misses at most once
//     per distinct line it spans, under any placement and replacement —
//     the placement-independent fallback that keeps DSR-mode bounds
//     finite.
//
// The bound itself is the classic loop-nest collapse: per region
// (function body or natural loop), build the DAG of blocks and
// collapsed child loops, take the longest path (Kahn topological order;
// a cycle or an edge into a loop's non-header is reported as
// irreducible), and multiply child-loop bodies by their iteration
// bounds. Interprocedural composition is context-insensitive over the
// call graph, memoised per (function, hotI, hotD); recursion is a hard
// Error. All arithmetic saturates at satCap and sets Report.Saturated.
package wcet

import (
	"sort"
	"strings"

	"dsr/internal/analysis"
	"dsr/internal/analysis/cachedom"
	"dsr/internal/cache"
	"dsr/internal/isa"
	"dsr/internal/mem"
	"dsr/internal/platform"
	"dsr/internal/prog"
	"dsr/internal/tlb"
)

// satCap is the saturation ceiling for cycle arithmetic.
const satCap = mem.Cycles(1) << 62

// latModel holds the derived worst-case memory-stall latencies.
type latModel struct {
	fetchBase mem.Cycles // per fetch: IL1 hit (+ walk fallback; a TLB hit is free)
	il1MissX  mem.Cycles // extra per IL1 fetch miss
	loadBase  mem.Cycles // per load: DL1 hit (+ walk fallback)
	dl1MissX  mem.Cycles // extra per DL1 load miss
	storeLat  mem.Cycles // one store through the DL1 write path, none of it hidden
	storeX    mem.Cycles // per store beyond StoreBase (walk fallback + buffered WT worst)
	spillX    mem.Cycles // per Save/SaveX when not window-safe
	fillX     mem.Cycles // per Restore/Ret when not window-safe
	walk      mem.Cycles // one full page-table walk (either TLB)
	l2LineW   mem.Cycles // one L2 line written back to DRAM
}

// deriveLat derives the worst-case stall latencies from the platform
// configuration and its CPU timing table. itlbWalkEach/dtlbWalkEach
// charge a full walk on every access (the fallback when the page
// working set overflows the TLB).
func deriveLat(pf *platform.Config, itlbWalkEach, dtlbWalkEach bool) latModel {
	tm := pf.CPU.Model
	busR := pf.Bus.ReadLatency
	busW := pf.Bus.WriteLatency
	words := func(bytes int) mem.Cycles { return mem.Cycles((bytes + 3) / 4) }
	dramR := func(bytes int) mem.Cycles { return pf.DRAM.AccessLatency + words(bytes)*pf.DRAM.PerWord }
	dramW := dramR // symmetric in the DRAM model

	// L2 worst read: hit latency + dirty-victim writeback + line fill.
	l2Read := pf.L2.HitLatency + dramR(pf.L2.LineSize)
	if pf.L2.Write == cache.WriteBackAllocate {
		l2Read += dramW(pf.L2.LineSize)
	}
	// L2 worst write: allocate-on-miss (victim writeback + fill), or a
	// straight word write-through.
	var l2Write mem.Cycles
	if pf.L2.Write == cache.WriteBackAllocate {
		l2Write = pf.L2.HitLatency + dramW(pf.L2.LineSize) + dramR(pf.L2.LineSize)
	} else {
		l2Write = pf.L2.HitLatency + dramW(mem.WordSize)
	}

	// IL1 victims are never dirty — the instruction cache is only ever
	// read — so a fetch miss costs exactly one L2-path read.
	il1MissX := busR + l2Read
	dl1MissX := busR + l2Read
	if pf.DL1.Write == cache.WriteBackAllocate {
		dl1MissX += busW + l2Write // dirty victim writeback
	}

	var storeLat mem.Cycles
	if pf.DL1.Write == cache.WriteThroughNoAllocate {
		storeLat = pf.DL1.HitLatency + busW + l2Write
	} else {
		storeLat = pf.DL1.HitLatency + busW + l2Write + busR + l2Read
	}
	var storeAdj mem.Cycles
	if storeLat > tm.StoreHidden {
		storeAdj = storeLat - tm.StoreHidden
	}

	walk := tlb.WalkLevels * (busR + l2Read)

	var itlbAcc, dtlbAcc mem.Cycles // a TLB hit costs nothing
	if itlbWalkEach {
		itlbAcc = walk
	}
	if dtlbWalkEach {
		dtlbAcc = walk
	}

	return latModel{
		fetchBase: itlbAcc + pf.IL1.HitLatency,
		il1MissX:  il1MissX,
		loadBase:  dtlbAcc + pf.DL1.HitLatency,
		dl1MissX:  dl1MissX,
		storeLat:  storeLat,
		storeX:    dtlbAcc + storeAdj,
		spillX:    tm.TrapOverhead + 16*(dtlbAcc+tm.StoreBase+storeAdj),
		fillX:     tm.TrapOverhead + 16*(dtlbAcc+tm.LoadUse+pf.DL1.HitLatency+dl1MissX),
		walk:      walk,
		l2LineW:   dramW(pf.L2.LineSize),
	}
}

// relocCostBound statically bounds the cost of relocating any single
// function of p at run time — the charge core.Runtime's first-call hook
// adds inside the measured window under lazy relocation. The model
// mirrors Runtime.relocationCost from above: a word-copy loop in which
// every read misses the DL1 (worst full hierarchy latency, dirty victim
// included on a write-back DL1) and every write takes the uncovered
// write path, then the SPARC v8 consistency routine — an L2 writeback
// sweep of the new range with every line dirty (one probe cycle plus a
// DRAM line write each) and IL1/L2 invalidation probes of the old range
// (one cycle per line). ModeDSRLazy charges it once per function.
func relocCostBound(p *prog.Program, pf *platform.Config) mem.Cycles {
	lat := deriveLat(pf, false, false)
	readWorst := pf.DL1.HitLatency + lat.dl1MissX

	lines := func(size int64, lineSz int) mem.Cycles {
		if size <= 0 {
			return 0
		}
		return mem.Cycles((size-1)/int64(lineSz)) + 1
	}

	var worst mem.Cycles
	for _, f := range p.Functions {
		size := int64(f.SizeBytes())
		c := mem.Cycles(size/int64(mem.WordSize)) * (readWorst + lat.storeLat + 2)
		// L2 writeback of the new range: every probed line dirty.
		c += lines(size, pf.L2.LineSize) * (1 + lat.l2LineW)
		// Invalidation probes of the old range.
		c += lines(size, pf.IL1.LineSize)
		c += lines(size, pf.L2.LineSize)
		if c > worst {
			worst = c
		}
	}
	return worst
}

// satAdd / satMul saturate at satCap and record the overflow.
func (a *analyzer) satAdd(x, y mem.Cycles) mem.Cycles {
	if x > satCap-y {
		a.rep.Saturated = true
		return satCap
	}
	return x + y
}

func (a *analyzer) satMul(n int, x mem.Cycles) mem.Cycles {
	if n <= 0 || x == 0 {
		return 0
	}
	if x > satCap/mem.Cycles(n) {
		a.rep.Saturated = true
		return satCap
	}
	return mem.Cycles(n) * x
}

// ---------------------------------------------------------------------
// Loop persistence over cache footprints (cachedom.Footprint).

type fitKey struct {
	fn string
	li int
}

type fitRes struct {
	fitI, fitD     bool
	linesI, linesD int
}

// regionFit decides loop persistence for loop li of fi. Results are
// independent of the hot flags and memoised.
func (a *analyzer) regionFit(fi *FuncModel, li int) fitRes {
	key := fitKey{fi.Fn.Name, li}
	if r, ok := a.fit[key]; ok {
		return r
	}
	var r fitRes
	if a.hotIOK {
		fpI := cachedom.NewFootprint(a.IL1)
		if a.regionIFoot(fi, li, fpI, map[string]bool{}) {
			r.fitI, r.linesI = fpI.Fits(), fpI.Lines()
		}
	}
	if a.hotDOK {
		fpD := cachedom.NewFootprint(a.DL1)
		if a.regionDFoot(fi, li, fpD, map[string]bool{}) {
			r.fitD, r.linesD = fpD.Fits(), fpD.Lines()
		}
	}
	a.fit[key] = r
	return r
}

// regionBlocks returns the sorted block IDs of region li of fi
// (li == -1: the whole function; otherwise the loop's blocks, nested
// loops included).
func regionBlocks(fi *FuncModel, li int) []int {
	var out []int
	if li < 0 {
		for b := range fi.G.Blocks {
			if fi.G.Reachable[b] {
				out = append(out, b)
			}
		}
	} else {
		for b := range fi.Loops[li].Blocks {
			out = append(out, b)
		}
		sort.Ints(out)
	}
	return out
}

// regionIFoot accumulates the instruction-cache footprint of region li:
// the region's own code plus the whole code of every transitively
// called function. seenFn dedupes callees.
func (a *analyzer) regionIFoot(fi *FuncModel, li int, fp *cachedom.Footprint, seenFn map[string]bool) bool {
	blocks := regionBlocks(fi, li)
	if len(blocks) == 0 {
		return false
	}
	lo, hi := fi.G.Blocks[blocks[0]].Start, fi.G.Blocks[blocks[0]].End
	for _, b := range blocks {
		blk := fi.G.Blocks[b]
		if blk.Start < lo {
			lo = blk.Start
		}
		if blk.End > hi {
			hi = blk.End
		}
		if a.det() {
			fp.AddRange(fi.Base+mem.Addr(blk.Start)*isa.InstrBytes,
				fi.Base+mem.Addr(blk.End)*isa.InstrBytes-1)
		}
	}
	if !a.det() {
		fp.AddRelative(a.IL1.SpanLines(int64(hi-lo) * int64(isa.InstrBytes)))
	}
	for _, b := range blocks {
		blk := fi.G.Blocks[b]
		for i := blk.Start; i < blk.End; i++ {
			if c := fi.Callee[i]; c != "" && !seenFn[c] {
				seenFn[c] = true
				if !a.calleeIFoot(c, fp, seenFn) {
					return false
				}
			}
		}
	}
	return true
}

func (a *analyzer) calleeIFoot(name string, fp *cachedom.Footprint, seenFn map[string]bool) bool {
	ci, ok := a.Funcs[name]
	if !ok {
		return false
	}
	size := int64(len(ci.Fn.Code)) * int64(isa.InstrBytes)
	if a.det() {
		fp.AddRange(ci.Base, ci.Base+mem.Addr(size)-1)
	} else {
		fp.AddRelative(a.IL1.SpanLines(size))
	}
	for i := range ci.Fn.Code {
		if c := ci.Callee[i]; c != "" && !seenFn[c] {
			seenFn[c] = true
			if !a.calleeIFoot(c, fp, seenFn) {
				return false
			}
		}
	}
	return true
}

// regionDFoot accumulates the data-cache footprint of region li. Every
// load and store in the region and its callees must be statically
// known; otherwise persistence is refused (an unknown store could age a
// footprint line out of the cache). Global objects are deduped by name
// (same lines wherever they land); stack frames are counted once per
// distinct static call chain, since each chain gives the frame a
// different (8-aligned) base.
func (a *analyzer) regionDFoot(fi *FuncModel, li int, fp *cachedom.Footprint, seenObj map[string]bool) bool {
	for _, b := range regionBlocks(fi, li) {
		blk := fi.G.Blocks[b]
		for i := blk.Start; i < blk.End; i++ {
			acc := fi.Acc[i]
			if acc.Load || acc.Store {
				if !a.accFoot(acc, fp, seenObj) {
					return false
				}
			}
			if c := fi.Callee[i]; c != "" {
				if !a.calleeDFoot(c, fp, seenObj) {
					return false
				}
			}
		}
	}
	return true
}

func (a *analyzer) calleeDFoot(name string, fp *cachedom.Footprint, seenObj map[string]bool) bool {
	ci, ok := a.Funcs[name]
	if !ok {
		return false
	}
	for i := range ci.Fn.Code {
		acc := ci.Acc[i]
		if acc.Load || acc.Store {
			if !a.accFoot(acc, fp, seenObj) {
				return false
			}
		}
		if c := ci.Callee[i]; c != "" {
			// Deliberately no dedupe across call *sites*: each static
			// chain places the callee's frame at a different address.
			if !a.calleeDFoot(c, fp, seenObj) {
				return false
			}
		}
	}
	return true
}

// accFoot adds one known data access's object to the footprint.
func (a *analyzer) accFoot(acc DataAccess, fp *cachedom.Footprint, seenObj map[string]bool) bool {
	if !acc.Valid {
		return false
	}
	switch {
	case acc.Sym == "":
		if acc.Lo < 0 {
			return false
		}
		fp.AddRange(mem.Addr(acc.Lo), mem.Addr(acc.Hi+int64(acc.Size)-1))
	case strings.HasPrefix(acc.Sym, StackSymPrefix):
		owner := a.Funcs[strings.TrimPrefix(acc.Sym, StackSymPrefix)]
		if owner == nil {
			return false
		}
		frame := int64(owner.Fn.FrameSize)
		if acc.Lo < 0 || acc.Hi+int64(acc.Size) > frame {
			return false
		}
		// One contribution per call chain — callers dedupe globals but
		// pass every chain through here.
		fp.AddRelative(a.DL1.SpanLines(frame))
	default:
		obj := a.Prog.DataObject(acc.Sym)
		if obj == nil {
			return false
		}
		if acc.Lo < 0 || acc.Hi+int64(acc.Size) > int64(obj.Size) {
			return false
		}
		if a.det() {
			base := a.Layout[acc.Sym]
			fp.AddRange(base+mem.Addr(acc.Lo), base+mem.Addr(acc.Hi)+mem.Addr(acc.Size)-1)
		} else if !seenObj[acc.Sym] {
			seenObj[acc.Sym] = true
			fp.AddRelative(a.DL1.SpanLines(int64(obj.Size)))
		}
	}
	return true
}

// ---------------------------------------------------------------------
// Region DAG and longest path.

// costKey memoises per-function costs under a hotness context.
type costKey struct {
	fn         string
	hotI, hotD bool
}

type costRes struct {
	cyc mem.Cycles
	ok  bool
}

// costFn bounds one complete execution of the named function under the
// given hotness context.
func (a *analyzer) costFn(name string, hotI, hotD bool) (mem.Cycles, bool) {
	key := costKey{name, hotI, hotD}
	if r, ok := a.memo[key]; ok {
		return r.cyc, r.ok
	}
	fi, ok := a.Funcs[name]
	if !ok {
		a.diag(analysis.Error, name, 0, "call to unknown function %q", name)
		return 0, false
	}
	if a.onPath[name] {
		a.diag(analysis.Error, name, 0, "recursion through %q — execution time is unbounded", name)
		a.memo[key] = costRes{}
		return 0, false
	}
	a.onPath[name] = true
	cyc, resOK := a.regionLongest(fi, -1, hotI, hotD)
	delete(a.onPath, name)
	a.memo[key] = costRes{cyc, resOK}
	return cyc, resOK
}

// liftNode maps block b to its node in region li's DAG: the block
// itself when it belongs directly to the region, else the child loop
// (direct child of li) containing it. ok=false if b is outside li.
func liftNode(fi *FuncModel, li, b int) (isLoop bool, id int, ok bool) {
	cur := fi.Innermost[b]
	if cur == li {
		return false, b, true
	}
	for cur >= 0 && fi.Loops[cur].Parent != li {
		cur = fi.Loops[cur].Parent
	}
	if cur < 0 {
		return false, 0, false
	}
	return true, cur, true
}

// regionLongest bounds the longest acyclic path through region li
// (li == -1: the function body) with child loops collapsed to single
// nodes costed as bound × body + persistence charge.
func (a *analyzer) regionLongest(fi *FuncModel, li int, hotI, hotD bool) (mem.Cycles, bool) {
	nb := len(fi.G.Blocks)
	nodeOf := func(isLoop bool, id int) int {
		if isLoop {
			return nb + id
		}
		return id
	}

	// Collect nodes and edges.
	nodes := map[int]bool{}
	succs := map[int]map[int]bool{}
	var header int
	if li >= 0 {
		header = fi.Loops[li].Header
	}
	for _, b := range regionBlocks(fi, li) {
		if li < 0 && !fi.G.Reachable[b] {
			continue
		}
		l1, id1, ok := liftNode(fi, li, b)
		if !ok {
			continue
		}
		n1 := nodeOf(l1, id1)
		nodes[n1] = true
		for _, s := range fi.G.Blocks[b].Succs {
			if li >= 0 {
				if !fi.Loops[li].Blocks[s] {
					continue // exit edge; the parent region's concern
				}
				if s == header {
					continue // back edge
				}
			}
			l2, id2, ok := liftNode(fi, li, s)
			if !ok {
				continue
			}
			n2 := nodeOf(l2, id2)
			if n1 == n2 {
				continue
			}
			if l2 && s != fi.Loops[id2].Header {
				a.diag(analysis.Error, fi.Fn.Name, fi.G.Blocks[b].End-1,
					"irreducible control flow: edge into the middle of a loop")
				return 0, false
			}
			nodes[n2] = true
			if succs[n1] == nil {
				succs[n1] = map[int]bool{}
			}
			succs[n1][n2] = true
		}
	}

	entryBlock := 0
	if li >= 0 {
		entryBlock = header
	}
	el, eid, ok := liftNode(fi, li, entryBlock)
	if !ok || el {
		a.diag(analysis.Error, fi.Fn.Name, fi.G.Blocks[entryBlock].Start,
			"irreducible control flow: region entry is inside a nested loop")
		return 0, false
	}
	entry := nodeOf(false, eid)
	if !nodes[entry] {
		nodes[entry] = true
	}

	// Restrict to nodes reachable from the entry.
	reach := map[int]bool{entry: true}
	stack := []int{entry}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for s := range succs[n] {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}

	// Kahn topological order over the reachable subgraph.
	indeg := map[int]int{}
	for n := range reach {
		indeg[n] += 0
	}
	for n := range reach {
		for s := range succs[n] {
			if reach[s] {
				indeg[s]++
			}
		}
	}
	var order, queue []int
	for n := range indeg {
		if indeg[n] == 0 {
			queue = append(queue, n)
		}
	}
	sort.Ints(queue) // determinism
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		var next []int
		for s := range succs[n] {
			if !reach[s] {
				continue
			}
			indeg[s]--
			if indeg[s] == 0 {
				next = append(next, s)
			}
		}
		sort.Ints(next)
		queue = append(queue, next...)
	}
	if len(order) != len(reach) {
		a.diag(analysis.Error, fi.Fn.Name, fi.G.Blocks[entryBlock].Start,
			"irreducible control flow: cycle not reducible to natural loops")
		return 0, false
	}

	// Longest path, nodes costed as blocks or collapsed loops.
	nodeCost := func(n int) (mem.Cycles, bool) {
		if n < nb {
			return a.blockCost(fi, n, hotI, hotD)
		}
		return a.loopNodeCost(fi, n-nb, hotI, hotD)
	}
	dist := map[int]mem.Cycles{}
	var longest mem.Cycles
	for _, n := range order {
		c, ok := nodeCost(n)
		if !ok {
			return 0, false
		}
		best := mem.Cycles(0)
		// max over predecessors; entry has none that matter.
		for p := range reach {
			if succs[p][n] && dist[p] > best {
				best = dist[p]
			}
		}
		d := a.satAdd(best, c)
		dist[n] = d
		if d > longest {
			longest = d
		}
	}
	return longest, true
}

// loopNodeCost collapses loop li: persistence charge (when the loop
// newly fits a cache under this context) plus bound × body longest
// path under the upgraded hotness context. Both the persistent and the
// non-persistent collapse are sound upper bounds, so the smaller wins —
// for a loop streaming over a large-but-fitting footprint, paying the
// whole footprint's one-time miss charge per region entry can exceed
// the per-iteration distinct-line charge, and taking the min keeps the
// mode ordering (det ≤ dsr-eager ≤ dsr-lazy) monotone: extra hotness
// can now only ever lower a bound.
func (a *analyzer) loopNodeCost(fi *FuncModel, li int, hotI, hotD bool) (mem.Cycles, bool) {
	l := fi.Loops[li]
	if l.Bound < 1 {
		// Already reported by resolveBounds; refuse quietly.
		return 0, false
	}
	var charge mem.Cycles
	nhI, nhD := hotI, hotD
	if !hotI || !hotD {
		fr := a.regionFit(fi, li)
		if !hotI && fr.fitI {
			charge = a.satAdd(charge, a.satMul(fr.linesI, a.lat.il1MissX))
			nhI = true
		}
		if !hotD && fr.fitD {
			charge = a.satAdd(charge, a.satMul(fr.linesD, a.lat.dl1MissX))
			nhD = true
		}
	}
	body, ok := a.regionLongest(fi, li, nhI, nhD)
	if !ok {
		return 0, false
	}
	cost := a.satAdd(charge, a.satMul(l.Bound, body))
	if nhI != hotI || nhD != hotD {
		// Alternative: refuse the persistence upgrade entirely.
		cold, ok := a.regionLongest(fi, li, hotI, hotD)
		if !ok {
			return 0, false
		}
		if alt := a.satMul(l.Bound, cold); alt < cost {
			cost = alt
		}
	}
	return cost, true
}

// distinctFetchLines bounds the IL1 lines one execution of blk touches.
func (a *analyzer) distinctFetchLines(fi *FuncModel, start, end int) int {
	n := end - start
	if n <= 0 {
		return 0
	}
	if a.det() {
		first := a.IL1.LineOf(fi.Base + mem.Addr(start)*isa.InstrBytes)
		last := a.IL1.LineOf(fi.Base + mem.Addr(end)*isa.InstrBytes - 1)
		return int(last-first) + 1
	}
	k := a.IL1.SpanLines(int64(n) * int64(isa.InstrBytes))
	if k > n {
		k = n
	}
	return k
}

// blockCost bounds one execution of block b under the hotness context.
func (a *analyzer) blockCost(fi *FuncModel, b int, hotI, hotD bool) (mem.Cycles, bool) {
	blk := fi.G.Blocks[b]
	n := blk.End - blk.Start
	cost := a.satMul(n, a.lat.fetchBase)

	// Fetch misses: hot region → charged once at region entry;
	// must-classified → count the unproven fetches; else distinct lines.
	fm := 0
	switch {
	case hotI:
	case a.UseMustI && fi.Class != nil:
		for i := blk.Start; i < blk.End; i++ {
			if !fi.Class.FetchHit[i] {
				fm++
			}
		}
	default:
		fm = a.distinctFetchLines(fi, blk.Start, blk.End)
	}
	cost = a.satAdd(cost, a.satMul(fm, a.lat.il1MissX))

	for i := blk.Start; i < blk.End; i++ {
		in := &fi.Fn.Code[i]
		cost = a.satAdd(cost, a.Platform.CPU.Model.WorstOpLatency(in.Op))
		switch in.Op {
		case isa.Ld, isa.Ldub, isa.FLd:
			cost = a.satAdd(cost, a.lat.loadBase)
			miss := true
			if hotD || (a.UseMustD && fi.Class != nil && fi.Class.LoadHit[i]) {
				miss = false
			}
			if miss {
				cost = a.satAdd(cost, a.lat.dl1MissX)
			}
		case isa.St, isa.Stb, isa.FSt:
			cost = a.satAdd(cost, a.lat.storeX)
		case isa.Save, isa.SaveX:
			if !a.WindowSafe {
				cost = a.satAdd(cost, a.lat.spillX)
			}
		case isa.Restore, isa.Ret:
			if !a.WindowSafe {
				cost = a.satAdd(cost, a.lat.fillX)
			}
		case isa.Call, isa.CallR:
			callee := fi.Callee[i]
			if callee == "" {
				a.diag(analysis.Error, fi.Fn.Name, i,
					"indirect call with no statically known callee — bound impossible")
				return 0, false
			}
			c, ok := a.costFn(callee, hotI, hotD)
			if !ok {
				return 0, false
			}
			cost = a.satAdd(cost, c)
		}
	}
	return cost, true
}
