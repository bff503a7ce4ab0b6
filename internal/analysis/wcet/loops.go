// Natural-loop extraction and loop-bound resolution.
//
// The analyzer needs, for every natural loop of every function, a finite
// upper bound on the iterations per entry. Bounds come from two sources,
// in priority order:
//
//  1. Counted-loop inference: the classic compiler-generated shape
//     (single back edge, a unique `add/sub r, #step, r` increment that
//     executes exactly once per iteration, a `cmp r, #limit` feeding the
//     back-edge branch, a constant initial value flowing in from outside
//     the loop). The trip count follows from (init, step, limit, branch
//     condition); inference also installs the pin and back-edge
//     refinement that make the symbolic dataflow (value.go) precise over
//     the induction register.
//
//  2. `dsr:loop-bound N` source annotations (prog.Function.LoopBounds),
//     attached to the innermost loop containing the annotated
//     instruction.
//
// A loop with neither is a hard Error diagnostic — the analyzer refuses
// to emit a bound rather than silently producing ∞ or a guess.
package wcet

import (
	"sort"

	"dsr/internal/analysis"
	"dsr/internal/isa"
)

// cfgView is the CFG shape the wcet package analyses; it is exactly the
// lint layer's CFG (blocks, reachability, dominators, back edges).
type cfgView = analysis.CFG

// Bound sources reported in LoopBound.Source.
const (
	SourceInferred  = "inferred"
	SourceAnnotated = "annotated"
)

// LoopRegion is one natural loop (all back edges sharing a header
// merged) with its resolved bound.
type LoopRegion struct {
	Header int          // header block ID
	Blocks map[int]bool // block IDs in the loop (header included)
	Parent int          // index of the innermost enclosing loop, -1 for top level
	Depth  int          // 1 = outermost
	Bound  int          // max iterations per entry; 0 = unresolved

	tails  []int  // back-edge tail blocks
	source string // SourceInferred | SourceAnnotated | ""
	why    string // inference refusal reason (for the diagnostic)

	// counted-loop inference results (source == SourceInferred).
	incIdx int // instruction index of the unique increment
	reg    isa.Reg
	init   int64
	step   int64
	limit  int64
	brOp   isa.Op
}

// buildLoopNest extracts natural loops from the CFG's back edges, merges
// loops sharing a header, and computes the nesting forest: the loops in
// header order and, per block, the index of the innermost loop
// containing it (-1 for none).
func buildLoopNest(g *cfgView) (loops []*LoopRegion, innermost []int) {
	byHeader := map[int]*LoopRegion{}
	for _, e := range g.BackEdges {
		tail, head := e[0], e[1]
		l := byHeader[head]
		if l == nil {
			l = &LoopRegion{Header: head, Blocks: map[int]bool{head: true}, Parent: -1}
			byHeader[head] = l
			loops = append(loops, l)
		}
		l.tails = append(l.tails, tail)
		// Classic natural-loop body collection: walk predecessors back
		// from the tail until the header.
		stack := []int{tail}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if l.Blocks[b] {
				continue
			}
			l.Blocks[b] = true
			for _, p := range g.Blocks[b].Preds {
				stack = append(stack, p)
			}
		}
	}
	// Deterministic order: by header, ties impossible after merging.
	sort.Slice(loops, func(i, j int) bool { return loops[i].Header < loops[j].Header })

	innermost = make([]int, len(g.Blocks))
	// Parent: the smallest strictly larger loop containing the header.
	for i, l := range loops {
		best := -1
		for j, o := range loops {
			if i == j || !o.Blocks[l.Header] || len(o.Blocks) <= len(l.Blocks) {
				continue
			}
			if best < 0 || len(o.Blocks) < len(loops[best].Blocks) {
				best = j
			}
		}
		l.Parent = best
	}
	for _, l := range loops {
		l.Depth = 1
		for p := l.Parent; p >= 0; p = loops[p].Parent {
			l.Depth++
		}
	}
	// innermost[b]: the containing loop with the greatest depth.
	for b := range innermost {
		best := -1
		for j, l := range loops {
			if !l.Blocks[b] {
				continue
			}
			if best < 0 || l.Depth > loops[best].Depth {
				best = j
			}
		}
		innermost[b] = best
	}
	return loops, innermost
}

// blockOut replays block b from its converged entry state and returns
// the state at the block's exit.
func (d *dataflow) blockOut(b int) regState {
	st := d.in[b]
	for i := d.g.Blocks[b].Start; i < d.g.Blocks[b].End; i++ {
		d.step(i, &st)
	}
	return st
}

// writesIntReg reports whether in writes integer register r.
func writesIntReg(in *isa.Instr, r isa.Reg) bool {
	switch in.Op {
	case isa.Add, isa.Sub, isa.And, isa.Or, isa.Xor, isa.Sll, isa.Srl,
		isa.Sra, isa.Mul, isa.Div, isa.Set, isa.Mov, isa.Ld, isa.Ldub:
		return in.Rd == r
	}
	return false
}

// inferCounted attempts counted-loop inference for l, using the phase-1
// dataflow d (run with call clobbers but no pins). On success it fills
// l.Bound/source/incIdx/reg/init/step/limit/brOp; on failure it records
// the refusal reason in l.why.
func (d *dataflow) inferCounted(fm *FuncModel, li int) bool {
	g, l := fm.G, fm.Loops[li]
	fail := func(why string) bool { l.why = why; return false }

	if len(l.tails) != 1 {
		return fail("multiple back edges")
	}
	tail := l.tails[0]
	tb := g.Blocks[tail]
	brIdx := tb.End - 1
	br := &d.fn.Code[brIdx]
	switch br.Op {
	case isa.Bl, isa.Ble, isa.Bg, isa.Bge, isa.Bne:
	case isa.Ba:
		return fail("unconditional back edge")
	default:
		return fail("back edge is not an integer conditional branch")
	}
	if brIdx+int(br.Disp) != g.Blocks[l.Header].Start {
		return fail("back-edge branch does not target the loop header")
	}

	// The last condition-code write before the branch must be our
	// `cmp r, #limit`. Only Cmp/FCmp write condition codes in this ISA.
	cmpIdx := -1
	for j := brIdx - 1; j >= tb.Start; j-- {
		if d.fn.Code[j].Op == isa.Cmp {
			cmpIdx = j
			break
		}
	}
	if cmpIdx < 0 {
		return fail("no cmp in the back-edge block")
	}
	cmp := &d.fn.Code[cmpIdx]
	if !cmp.UseImm {
		return fail("loop test compares two registers (limit not an immediate)")
	}
	r := cmp.Rs1
	if r == isa.G0 {
		return fail("loop test reads %g0")
	}
	limit := int64(cmp.Imm)

	// Unique-writer scan over the whole loop body.
	incIdx := -1
	for b := range l.Blocks {
		blk := g.Blocks[b]
		for i := blk.Start; i < blk.End; i++ {
			in := &d.fn.Code[i]
			switch in.Op {
			case isa.Save, isa.SaveX, isa.Restore:
				return fail("loop contains a register-window operation")
			case isa.Call, isa.CallR:
				cb := d.clobbers[i]
				if cb.all {
					return fail("loop contains a call with unknown clobbers")
				}
				for _, cr := range cb.regs {
					if cr == r {
						return fail("a call inside the loop may clobber the induction register")
					}
				}
				if r == isa.O7 {
					return fail("induction register %o7 is clobbered by calls")
				}
			}
			if writesIntReg(in, r) {
				if incIdx >= 0 {
					return fail("induction register has multiple writers in the loop")
				}
				incIdx = i
			}
		}
	}
	if incIdx < 0 {
		return fail("induction register is never written in the loop")
	}
	inc := &d.fn.Code[incIdx]
	if (inc.Op != isa.Add && inc.Op != isa.Sub) || !inc.UseImm || inc.Rs1 != r {
		return fail("induction update is not `add/sub r, #step, r`")
	}
	step := int64(inc.Imm)
	if inc.Op == isa.Sub {
		step = -step
	}
	if step == 0 {
		return fail("induction step is zero")
	}

	// The increment must execute exactly once per iteration: its block
	// dominates the tail (at least once per header→tail traversal, see
	// the dominance argument in the package comment of value.go) and is
	// not inside a nested loop (at most once).
	incBlk := g.BlockOf(incIdx)
	if !g.Dominates(incBlk, tail) {
		return fail("induction update does not dominate the back edge")
	}
	if incBlk == tail && incIdx > cmpIdx {
		return fail("induction update follows the loop test")
	}
	if fm.Innermost[incBlk] != li {
		return fail("induction update sits inside a nested loop")
	}

	// Initial value: meet over the header's out-of-loop predecessors.
	init := value{}
	first := true
	for _, p := range g.Blocks[l.Header].Preds {
		if l.Blocks[p] || !g.Reachable[p] {
			continue
		}
		out := d.blockOut(p)
		if first {
			init, first = out.get(r), false
		} else {
			init = meet(init, out.get(r))
		}
	}
	if first {
		return fail("loop header has no out-of-loop predecessor")
	}
	if !init.isConst() {
		return fail("initial value of the induction register is not a known constant")
	}
	iv := init.constVal()

	n, ok := tripCount(iv, step, limit, br.Op)
	if !ok {
		return fail("branch condition and step direction do not form a counted loop")
	}
	if n < 1 || n > int64(1)<<31 {
		return fail("computed trip count out of range")
	}

	l.Bound, l.source = int(n), SourceInferred
	l.incIdx, l.reg, l.init, l.step, l.limit, l.brOp = incIdx, r, iv, step, limit, br.Op
	return true
}

// tripCount computes the iteration count of a do-while counted loop:
// the body executes, the increment brings r to init + k·step at the
// k-th test, and the branch continues while its condition holds.
func tripCount(init, step, limit int64, op isa.Op) (int64, bool) {
	ceilDiv := func(a, b int64) int64 { return (a + b - 1) / b }
	switch op {
	case isa.Bl: // continue while r < limit
		if step <= 0 {
			return 0, false
		}
		n := ceilDiv(limit-init, step)
		if n < 1 {
			n = 1
		}
		return n, true
	case isa.Ble: // continue while r <= limit
		if step <= 0 {
			return 0, false
		}
		n := (limit-init)/step + 1
		if n < 1 {
			n = 1
		}
		return n, true
	case isa.Bg: // continue while r > limit
		if step >= 0 {
			return 0, false
		}
		n := ceilDiv(init-limit, -step)
		if n < 1 {
			n = 1
		}
		return n, true
	case isa.Bge: // continue while r >= limit
		if step >= 0 {
			return 0, false
		}
		n := (init-limit)/(-step) + 1
		if n < 1 {
			n = 1
		}
		return n, true
	case isa.Bne: // continue while r != limit: needs exact arrival
		d := limit - init
		if step > 0 && d > 0 && d%step == 0 {
			return d / step, true
		}
		if step < 0 && d < 0 && d%step == 0 {
			return d / step, true
		}
		return 0, false
	}
	return 0, false
}

// installPrecision wires an inferred loop's pin and back-edge refinement
// into the dataflow, so the phase-2 run tracks the induction register's
// exact iteration range instead of widening it to Top.
func (d *dataflow) installPrecision(l *LoopRegion) {
	if l.source != SourceInferred {
		return
	}
	lo := l.init + l.step
	hi := l.init + int64(l.Bound)*l.step
	if l.step < 0 {
		lo, hi = hi, lo
	}
	d.pins[l.incIdx] = vRange(lo, hi)

	reg, brOp, limit := l.reg, l.brOp, l.limit
	step := l.step
	d.refine[edgeKey{l.tails[0], l.Header}] = func(st *regState) {
		v := st.get(reg)
		if v.kind != vInt {
			return
		}
		nlo, nhi := v.lo, v.hi
		switch brOp {
		case isa.Bl:
			if nhi > limit-1 {
				nhi = limit - 1
			}
		case isa.Ble:
			if nhi > limit {
				nhi = limit
			}
		case isa.Bg:
			if nlo < limit+1 {
				nlo = limit + 1
			}
		case isa.Bge:
			if nlo < limit {
				nlo = limit
			}
		case isa.Bne:
			// Values arrive exactly at limit on exit; continuing means
			// one step short of it.
			if step > 0 && nhi > limit-step {
				nhi = limit - step
			}
			if step < 0 && nlo < limit-step {
				nlo = limit - step
			}
		}
		st.set(reg, vRange(nlo, nhi))
	}
}

// resolveBounds runs inference over every loop of the nest, merges
// `dsr:loop-bound` annotations, installs pins/refinements for inferred
// loops, and emits diagnostics through diag. It returns false if any
// loop remains unbounded.
func (d *dataflow) resolveBounds(fm *FuncModel, diag func(sev analysis.Severity, idx int, format string, args ...interface{})) bool {
	g := fm.G
	for li := range fm.Loops {
		d.inferCounted(fm, li)
	}

	// Annotations, in deterministic instruction order.
	var idxs []int
	for i := range d.fn.LoopBounds {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	annotated := map[int]int{} // loop index -> annotating instruction
	for _, i := range idxs {
		n := d.fn.LoopBounds[i]
		li := fm.Innermost[g.BlockOf(i)]
		if li < 0 {
			diag(analysis.Warning, i, "dsr:loop-bound %d annotates an instruction outside any loop", n)
			continue
		}
		l := fm.Loops[li]
		if prev, dup := annotated[li]; dup {
			if l.Bound != n || l.source != SourceAnnotated {
				diag(analysis.Error, i, "conflicting dsr:loop-bound annotations for one loop (instructions %d and %d)", prev, i)
			}
			continue
		}
		annotated[li] = i
		switch l.source {
		case SourceInferred:
			if l.Bound != n {
				diag(analysis.Warning, i,
					"dsr:loop-bound %d disagrees with the inferred bound %d; keeping the inferred bound", n, l.Bound)
			}
		default:
			l.Bound, l.source = n, SourceAnnotated
		}
	}

	ok := true
	for _, l := range fm.Loops {
		if l.source == SourceInferred {
			d.installPrecision(l)
		}
		if l.Bound == 0 {
			why := l.why
			if why == "" {
				why = "shape not recognised"
			}
			diag(analysis.Error, g.Blocks[l.Header].Start,
				"loop has no inferable bound (%s) and no dsr:loop-bound annotation", why)
			ok = false
		}
	}
	return ok
}
