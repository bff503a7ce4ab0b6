package cpu

import (
	"testing"

	"dsr/internal/isa"
	"dsr/internal/loader"
	"dsr/internal/prog"
)

// Fetch fast-path boundary tests: the straight-line window must produce
// exactly the cycles, PMC-visible miss counts and architectural state of
// the always-slow fetch path when execution crosses every kind of window
// edge — IL1 line boundaries, page boundaries, function boundaries
// (calls, returns, branches) — and when it stays inside one window for
// long streaks.

// fetchDisabled returns a CPU identical to New's but pinned to the
// interpreter reference, whose Step takes fetchSlow on every
// instruction. The observable surface (cycles, miss counters,
// registers) must not depend on which path ran.
func fetchDisabled(cfg Config, img *loader.Image) *CPU {
	c := newNullCPU(cfg, img)
	c.forceInterp = true
	return c
}

// compareFetchPaths runs p on a fast-path CPU and a forced-slow CPU and
// compares everything observable.
func compareFetchPaths(t *testing.T, p *prog.Program) {
	t.Helper()
	img, err := loader.Load(p, loader.DefaultSequentialConfig())
	if err != nil {
		t.Fatal(err)
	}
	fast := newNullCPU(NewDefaultConfig(), img)
	slow := fetchDisabled(NewDefaultConfig(), img)
	for run := 0; run < 2; run++ { // second run exercises warmed caches
		fast.Reset(stackTop)
		slow.Reset(stackTop)
		if _, err := fast.Run(); err != nil {
			t.Fatalf("fast path run: %v", err)
		}
		if _, err := slow.Run(); err != nil {
			t.Fatalf("slow path run: %v", err)
		}
		if fast.Cycles() != slow.Cycles() {
			t.Fatalf("run %d: cycles %d (fast) != %d (slow)", run, fast.Cycles(), slow.Cycles())
		}
		if fast.Counters() != slow.Counters() {
			t.Fatalf("run %d: counters diverged:\n fast: %+v\n slow: %+v",
				run, fast.Counters(), slow.Counters())
		}
		// PMC-visible hierarchy events: miss counts must be identical.
		// (Raw Accesses/Hits on the IL1/ITLB legitimately differ — the
		// window's whole point is to skip redundant same-line touches —
		// and are not architecturally observable.)
		fi, si := fast.il1.Counters(), slow.il1.Counters()
		if fi.Misses != si.Misses || fi.ReadMisses != si.ReadMisses || fi.Fills != si.Fills {
			t.Fatalf("run %d: IL1 misses %d/%d/%d (fast) != %d/%d/%d (slow)",
				run, fi.Misses, fi.ReadMisses, fi.Fills, si.Misses, si.ReadMisses, si.Fills)
		}
		if fast.dl1.Counters() != slow.dl1.Counters() {
			t.Fatalf("run %d: DL1 counters diverged", run)
		}
		if fm, sm := fast.itlb.Counters().Misses, slow.itlb.Counters().Misses; fm != sm {
			t.Fatalf("run %d: ITLB misses %d (fast) != %d (slow)", run, fm, sm)
		}
		if fast.dtlb.Counters() != slow.dtlb.Counters() {
			t.Fatalf("run %d: DTLB counters diverged", run)
		}
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if fast.Reg(r) != slow.Reg(r) {
				t.Fatalf("run %d: register %v diverged", run, r)
			}
		}
	}
}

// TestFetchFastPathLineBoundaries: a loop whose body spans several IL1
// lines, so every iteration crosses line boundaries (window re-arm) and
// takes a backward branch (window exit through a taken branch).
func TestFetchFastPathLineBoundaries(t *testing.T) {
	fb := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.L0, 0).
		MovI(isa.L1, 300).
		Label("loop")
	// 20 instructions per iteration: 2.5 IL1 lines (32B lines, 8
	// instructions each) — the loop body starts and ends mid-line.
	for i := 0; i < 17; i++ {
		fb = fb.AddI(isa.L2, isa.L0, int32(i))
	}
	fb = fb.AddI(isa.L0, isa.L0, 1).
		Cmp(isa.L0, isa.L1).
		Bl("loop").
		Halt()
	p := &prog.Program{Name: "lines", Entry: "main"}
	if err := p.AddFunction(fb.MustBuild()); err != nil {
		t.Fatal(err)
	}
	compareFetchPaths(t, p)
}

// TestFetchFastPathPageBoundary: a straight-line function longer than a
// 4KB page (1024 instructions), so sequential execution crosses a page
// boundary and the window must stop at the page edge to keep the ITLB
// stream exact.
func TestFetchFastPathPageBoundary(t *testing.T) {
	fb := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.L0, 0)
	for i := 0; i < 1100; i++ {
		fb = fb.AddI(isa.L0, isa.L0, 1)
	}
	fb = fb.Halt()
	p := &prog.Program{Name: "page", Entry: "main"}
	if err := p.AddFunction(fb.MustBuild()); err != nil {
		t.Fatal(err)
	}
	compareFetchPaths(t, p)
}

// TestFetchFastPathFunctionBoundaries: calls and returns (regular and
// leaf) plus a recursion deep enough to spill register windows — every
// transfer of control leaves the current function's window and must
// re-arm in the callee/caller.
func TestFetchFastPathFunctionBoundaries(t *testing.T) {
	leaf := prog.NewLeaf("leaf").
		AddI(isa.O0, isa.O0, 3).
		RetLeaf().
		MustBuild()
	callee := prog.NewFunc("callee", prog.MinFrame).
		Prologue().
		Add(isa.I0, isa.I0, isa.I0).
		Call("leaf").
		Epilogue().
		MustBuild()
	rec := prog.NewFunc("rec", prog.MinFrame).
		Prologue().
		CmpI(isa.I0, 0).
		Be("base").
		SubI(isa.O0, isa.I0, 1).
		Call("rec").
		Add(isa.I0, isa.O0, isa.I0).
		Ba("done").
		Label("base").
		MovI(isa.I0, 0).
		Label("done").
		Epilogue().
		MustBuild()
	main := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.L3, 0).
		MovI(isa.L4, 40).
		Label("loop").
		Mov(isa.O0, isa.L3).
		Call("callee").
		Mov(isa.O0, isa.L3).
		Call("rec").
		AddI(isa.L3, isa.L3, 1).
		Cmp(isa.L3, isa.L4).
		Bl("loop").
		Halt().
		MustBuild()
	p := &prog.Program{Name: "funcs", Entry: "main"}
	for _, f := range []*prog.Function{main, callee, leaf, rec} {
		if err := p.AddFunction(f); err != nil {
			t.Fatal(err)
		}
	}
	compareFetchPaths(t, p)
}

// TestFetchFastPathMemoryTraffic: loads and stores interleaved with
// fetches — DL1/DTLB traffic must be identical regardless of the fetch
// path, including conflict evictions between code and data in the L2.
func TestFetchFastPathMemoryTraffic(t *testing.T) {
	fb := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.L0, 0).
		MovI(isa.L1, 200).
		Label("loop").
		St(isa.L0, isa.FP, -4).
		Ld(isa.L2, isa.FP, -4).
		SllI(isa.L3, isa.L0, 4).
		St(isa.L2, isa.FP, -8).
		Ld(isa.L4, isa.FP, -8).
		Stb(isa.L0, isa.FP, -9).
		Ldub(isa.L5, isa.FP, -9).
		AddI(isa.L0, isa.L0, 1).
		Cmp(isa.L0, isa.L1).
		Bl("loop").
		Halt()
	p := &prog.Program{Name: "memtraffic", Entry: "main"}
	if err := p.AddFunction(fb.MustBuild()); err != nil {
		t.Fatal(err)
	}
	compareFetchPaths(t, p)
}
