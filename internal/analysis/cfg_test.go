package analysis

import (
	"testing"

	"dsr/internal/isa"
	"dsr/internal/prog"
)

// loopFn builds a leaf with one counted loop:
//
//	0: mov  l0, 0
//	1: addi l0, l0, 1   <- loop head
//	2: cmpi l0, 10
//	3: bl   -2
//	4: retl
func loopFn(t *testing.T) *prog.Function {
	t.Helper()
	f := prog.NewLeaf("loop").
		MovI(isa.L0, 0).
		Label("head").
		AddI(isa.L0, isa.L0, 1).
		CmpI(isa.L0, 10).
		Bl("head").
		RetLeaf().
		MustBuild()
	return f
}

func TestBuildCFGBlocksAndEdges(t *testing.T) {
	g := BuildCFG(loopFn(t))
	// Blocks: [0,1) preamble, [1,4) loop body+test+branch, [4,5) exit.
	if len(g.Blocks) != 3 {
		t.Fatalf("blocks=%d, want 3", len(g.Blocks))
	}
	body := g.Blocks[g.BlockOf(1)]
	if body.Start != 1 || body.End != 4 {
		t.Errorf("loop body block spans [%d,%d), want [1,4)", body.Start, body.End)
	}
	// The branch block has two successors: itself (back edge) and the exit.
	if len(body.Succs) != 2 {
		t.Errorf("body succs=%v, want 2 edges", body.Succs)
	}
	for _, b := range g.Blocks {
		if !g.Reachable[b.ID] {
			t.Errorf("block %d unreachable in a straight-line loop", b.ID)
		}
	}
}

func TestDominatorsAndLoops(t *testing.T) {
	g := BuildCFG(loopFn(t))
	entry := g.BlockOf(0)
	body := g.BlockOf(1)
	exit := g.BlockOf(4)
	if !g.Dominates(entry, body) || !g.Dominates(entry, exit) {
		t.Error("entry does not dominate the rest of the function")
	}
	if !g.Dominates(body, exit) {
		t.Error("the single loop body must dominate the exit")
	}
	if g.Dominates(exit, body) {
		t.Error("exit cannot dominate the loop body")
	}
	if len(g.BackEdges) != 1 || g.BackEdges[0] != [2]int{body, body} {
		t.Errorf("back edges=%v, want one self edge on block %d", g.BackEdges, body)
	}
	if !g.LoopHeads[body] {
		t.Error("loop body not marked as a loop head")
	}
}

func TestDiamondDominators(t *testing.T) {
	// if/else diamond: entry → then|else → join.
	f := prog.NewLeaf("diamond").
		CmpI(isa.O0, 0).
		Be("else").
		AddI(isa.O0, isa.O0, 1).
		Ba("join").
		Label("else").
		SubI(isa.O0, isa.O0, 1).
		Label("join").
		RetLeaf().
		MustBuild()
	g := BuildCFG(f)
	entry := g.BlockOf(0)
	join := g.BlockOf(len(f.Code) - 1)
	thenB := g.BlockOf(2)
	elseB := g.BlockOf(4)
	if got := g.IDom[join]; got != entry {
		t.Errorf("idom(join)=%d, want entry %d — neither arm dominates the join", got, entry)
	}
	if g.Dominates(thenB, join) || g.Dominates(elseB, join) {
		t.Error("an arm of the diamond cannot dominate the join")
	}
	if len(g.BackEdges) != 0 {
		t.Errorf("diamond has back edges %v, want none", g.BackEdges)
	}
}

func TestUnreachableInstrs(t *testing.T) {
	// Code after an unconditional return is unreachable.
	f := &prog.Function{Name: "dead", Leaf: true, Code: []isa.Instr{
		{Op: isa.RetL},
		{Op: isa.Add, Rd: isa.O0, Rs1: isa.O0, Rs2: isa.O1},
		{Op: isa.RetL},
	}}
	g := BuildCFG(f)
	dead := g.UnreachableInstrs()
	if len(dead) != 2 || dead[0] != 1 || dead[1] != 2 {
		t.Errorf("unreachable=%v, want [1 2]", dead)
	}
}

func TestBuildCFGMalformedBranch(t *testing.T) {
	// An out-of-range branch target must not panic and contributes no edge.
	f := &prog.Function{Name: "bad", Leaf: true, Code: []isa.Instr{
		{Op: isa.Bl, Disp: 100},
		{Op: isa.RetL},
	}}
	g := BuildCFG(f)
	if len(g.Blocks) == 0 {
		t.Fatal("no blocks for malformed function")
	}
	// Fall-through edge only.
	if len(g.Blocks[0].Succs) != 1 {
		t.Errorf("entry succs=%v, want the fall-through edge only", g.Blocks[0].Succs)
	}
}

func TestBuildCFGEmptyFunction(t *testing.T) {
	g := BuildCFG(&prog.Function{Name: "empty"})
	if len(g.Blocks) != 0 {
		t.Errorf("blocks=%d for an empty function", len(g.Blocks))
	}
	if got := g.UnreachableInstrs(); got != nil {
		t.Errorf("unreachable=%v for an empty function", got)
	}
}
