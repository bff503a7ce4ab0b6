package analysis

import (
	"dsr/internal/isa"
	"dsr/internal/prog"
)

// Block is one basic block: instructions [Start, End) of a function.
type Block struct {
	ID    int
	Start int
	End   int
	Succs []int
	Preds []int
}

// CFG is the control-flow graph of one function. Block 0 is the entry.
type CFG struct {
	Fn     *prog.Function
	Blocks []*Block
	// blockOf[i] is the block containing instruction i.
	blockOf []int
	// Reachable[b] reports whether block b is reachable from the entry.
	Reachable []bool
	// IDom[b] is the immediate dominator of block b (-1 for the entry
	// and for unreachable blocks).
	IDom []int
	// LoopHeads[b] reports whether block b is the header of a natural
	// loop (the target of a back edge).
	LoopHeads []bool
	// BackEdges lists the (tail, head) back edges found.
	BackEdges [][2]int
}

// isTerminator reports whether op never falls through.
func isTerminator(op isa.Op) bool {
	switch op {
	case isa.Ba, isa.Ret, isa.RetL, isa.Halt:
		return true
	}
	return false
}

// branchTarget returns the in-function instruction index targeted by a
// branch at index i, clamped validity via ok.
func branchTarget(f *prog.Function, i int) (int, bool) {
	tgt := i + int(f.Code[i].Disp)
	if tgt < 0 || tgt >= len(f.Code) {
		return 0, false
	}
	return tgt, true
}

// BuildCFG partitions f into basic blocks and computes reachability,
// dominators and loop headers. It never panics on malformed input:
// out-of-range branch targets simply contribute no edge (prog.Validate
// reports those separately).
func BuildCFG(f *prog.Function) *CFG {
	n := len(f.Code)
	g := &CFG{Fn: f}
	if n == 0 {
		return g
	}

	// Leaders: entry, branch targets, instruction after any control
	// transfer that does not always fall through.
	leader := make([]bool, n)
	leader[0] = true
	for i := 0; i < n; i++ {
		op := f.Code[i].Op
		if op.IsBranch() {
			if tgt, ok := branchTarget(f, i); ok {
				leader[tgt] = true
			}
			if i+1 < n {
				leader[i+1] = true
			}
		} else if isTerminator(op) && i+1 < n {
			leader[i+1] = true
		}
	}

	g.blockOf = make([]int, n)
	start := 0
	for i := 1; i <= n; i++ {
		if i == n || leader[i] {
			b := &Block{ID: len(g.Blocks), Start: start, End: i}
			for j := start; j < i; j++ {
				g.blockOf[j] = b.ID
			}
			g.Blocks = append(g.Blocks, b)
			start = i
		}
	}

	// Edges.
	for _, b := range g.Blocks {
		last := b.End - 1
		op := f.Code[last].Op
		addEdge := func(to int) {
			b.Succs = append(b.Succs, to)
			g.Blocks[to].Preds = append(g.Blocks[to].Preds, b.ID)
		}
		switch {
		case op.IsBranch():
			if tgt, ok := branchTarget(f, last); ok {
				addEdge(g.blockOf[tgt])
			}
			if op != isa.Ba && b.End < n {
				addEdge(g.blockOf[b.End])
			}
		case isTerminator(op):
			// no successors
		default:
			if b.End < n {
				addEdge(g.blockOf[b.End])
			}
		}
	}

	g.computeReachable()
	g.computeDominators()
	g.findLoops()
	return g
}

// BlockOf returns the block ID containing instruction index i.
func (g *CFG) BlockOf(i int) int { return g.blockOf[i] }

func (g *CFG) computeReachable() {
	g.Reachable = make([]bool, len(g.Blocks))
	if len(g.Blocks) == 0 {
		return
	}
	stack := []int{0}
	g.Reachable[0] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Blocks[b].Succs {
			if !g.Reachable[s] {
				g.Reachable[s] = true
				stack = append(stack, s)
			}
		}
	}
}

// computeDominators runs the classic iterative dominator algorithm
// (Cooper, Harvey & Kennedy) over the reachable subgraph in reverse
// post-order.
func (g *CFG) computeDominators() {
	nb := len(g.Blocks)
	g.IDom = make([]int, nb)
	for i := range g.IDom {
		g.IDom[i] = -1
	}
	if nb == 0 {
		return
	}

	// Reverse post-order of the reachable subgraph.
	order := make([]int, 0, nb)
	seen := make([]bool, nb)
	var dfs func(int)
	dfs = func(b int) {
		seen[b] = true
		for _, s := range g.Blocks[b].Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	dfs(0)
	// order is post-order; reverse it.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	rpoNum := make([]int, nb)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, b := range order {
		rpoNum[b] = i
	}

	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = g.IDom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = g.IDom[b]
			}
		}
		return a
	}

	g.IDom[0] = 0
	for changed := true; changed; {
		changed = false
		for _, b := range order[1:] {
			newIdom := -1
			for _, p := range g.Blocks[b].Preds {
				if rpoNum[p] < 0 || g.IDom[p] < 0 {
					continue // unreachable or unprocessed predecessor
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && g.IDom[b] != newIdom {
				g.IDom[b] = newIdom
				changed = true
			}
		}
	}
	g.IDom[0] = -1 // entry has no immediate dominator
}

// Dominates reports whether block a dominates block b (both reachable).
func (g *CFG) Dominates(a, b int) bool {
	if !g.Reachable[a] || !g.Reachable[b] {
		return false
	}
	for b != a {
		if b == 0 || g.IDom[b] < 0 {
			return false
		}
		b = g.IDom[b]
	}
	return true
}

// findLoops marks back edges (tail → head where head dominates tail)
// and their headers — the natural-loop detection used by the lint layer
// to report loop structure.
func (g *CFG) findLoops() {
	g.LoopHeads = make([]bool, len(g.Blocks))
	for _, b := range g.Blocks {
		if !g.Reachable[b.ID] {
			continue
		}
		for _, s := range b.Succs {
			if g.Dominates(s, b.ID) {
				g.LoopHeads[s] = true
				g.BackEdges = append(g.BackEdges, [2]int{b.ID, s})
			}
		}
	}
}

// UnreachableInstrs lists instruction indices in blocks not reachable
// from the entry.
func (g *CFG) UnreachableInstrs() []int {
	var out []int
	for _, b := range g.Blocks {
		if g.Reachable[b.ID] {
			continue
		}
		for i := b.Start; i < b.End; i++ {
			out = append(out, i)
		}
	}
	return out
}
