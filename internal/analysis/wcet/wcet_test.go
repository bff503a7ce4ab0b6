package wcet

import (
	"strings"
	"testing"

	"dsr/internal/cache"
	"dsr/internal/isa"
	"dsr/internal/loader"
	"dsr/internal/mem"
	"dsr/internal/platform"
	"dsr/internal/prog"
)

// --- helpers ---------------------------------------------------------------

func mustProgram(t *testing.T, name string, fns ...*prog.Function) *prog.Program {
	t.Helper()
	p := &prog.Program{Name: name, Entry: "main"}
	for _, f := range fns {
		if err := p.AddFunction(f); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// simulate runs p once on the default deterministic layout and returns
// the observed cycle count.
func simulate(t *testing.T, p *prog.Program) mem.Cycles {
	t.Helper()
	img, err := loader.Load(p, loader.DefaultSequentialConfig())
	if err != nil {
		t.Fatal(err)
	}
	pl := platform.New(platform.ProximaLEON3())
	pl.LoadImage(img)
	res, err := pl.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Cycles
}

func diagText(r *Report) string {
	var sb strings.Builder
	for _, d := range r.Diags {
		sb.WriteString(d.Sev.String())
		sb.WriteString(": ")
		sb.WriteString(d.Msg)
		sb.WriteString("\n")
	}
	return sb.String()
}

// countedLoop builds main with a single counted loop of n iterations.
func countedLoop(n int32) *prog.Function {
	return prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.L0, 0). // i
		MovI(isa.L1, 0). // sum
		Label("loop").
		Add(isa.L1, isa.L1, isa.L0).
		AddI(isa.L0, isa.L0, 1).
		CmpI(isa.L0, n).
		Bl("loop").
		Mov(isa.O0, isa.L1).
		Halt().
		MustBuild()
}

func TestParseModeRoundTrip(t *testing.T) {
	for _, m := range []Mode{ModeDet, ModeDSREager, ModeDSRLazy} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if _, err := ParseMode("dsr"); err == nil {
		t.Error(`ParseMode("dsr") accepted an unknown mode`)
	}
}

func TestReportFormat(t *testing.T) {
	r := Analyze(mustProgram(t, "counted", countedLoop(10)), Config{})
	text := r.Format()
	for _, want := range []string{"WCET bound:", "cache classification:", "loops:", "main+", "bound 10", "per-function bounds:"} {
		if !strings.Contains(text, want) {
			t.Errorf("Format() missing %q:\n%s", want, text)
		}
	}
	r.Bounded = false
	if text := r.Format(); !strings.Contains(text, "unbounded") || strings.Contains(text, "WCET bound:") {
		t.Errorf("Format() of a refused report:\n%s", text)
	}
}

// --- trip-count unit tests -------------------------------------------------

func TestTripCount(t *testing.T) {
	cases := []struct {
		init, step, limit int64
		op                isa.Op
		want              int64
		ok                bool
	}{
		{0, 1, 10, isa.Bl, 10, true},  // i=1..; loop while i<10
		{0, 1, 10, isa.Ble, 11, true}, // loop while i<=10
		{0, 2, 10, isa.Bl, 5, true},   // 2,4,6,8,10 -> exits at 10
		{0, 3, 10, isa.Bl, 4, true},   // 3,6,9,12 -> ceil(10/3)
		{10, -1, 0, isa.Bg, 10, true}, // countdown while i>0
		{10, -2, 0, isa.Bge, 6, true}, // 8,6,4,2,0 then -2<0
		{0, 1, 10, isa.Bne, 10, true}, // exact hit
		{0, 3, 10, isa.Bne, 0, false}, // never hits 10 -> unbounded
		{0, -1, 10, isa.Bl, 0, false}, // wrong direction
		{5, 1, 3, isa.Bl, 1, true},    // body runs once (do-while)
		{0, 0, 10, isa.Bl, 0, false},  // no progress
		// Absurd counts are returned as-is; the caller (inferCounted)
		// rejects anything outside [1, 2^31].
		{0, 1, 1 << 40, isa.Bl, 1 << 40, true},
	}
	for _, c := range cases {
		got, ok := tripCount(c.init, c.step, c.limit, c.op)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("tripCount(%d,%d,%d,%v) = %d,%v; want %d,%v",
				c.init, c.step, c.limit, c.op, got, ok, c.want, c.ok)
		}
	}
}

// --- loop-bound inference --------------------------------------------------

func TestInferCountedLoop(t *testing.T) {
	p := mustProgram(t, "counted", countedLoop(10))
	r := Analyze(p, Config{})
	if !r.Bounded {
		t.Fatalf("not bounded:\n%s", diagText(r))
	}
	if len(r.Loops) != 1 || r.Loops[0].Bound != 10 || r.Loops[0].Source != SourceInferred {
		t.Fatalf("loops = %+v; want one inferred bound of 10", r.Loops)
	}
}

func TestInferCountdownLoop(t *testing.T) {
	f := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.L0, 16).
		Label("loop").
		SubI(isa.L0, isa.L0, 2).
		CmpI(isa.L0, 0).
		Bg("loop").
		Halt().
		MustBuild()
	p := mustProgram(t, "countdown", f)
	r := Analyze(p, Config{})
	if !r.Bounded {
		t.Fatalf("not bounded:\n%s", diagText(r))
	}
	if len(r.Loops) != 1 || r.Loops[0].Bound != 8 {
		t.Fatalf("loops = %+v; want bound 8", r.Loops)
	}
}

func TestNestedLoopBounds(t *testing.T) {
	f := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.L0, 0).
		Label("outer").
		MovI(isa.L1, 0).
		Label("inner").
		AddI(isa.L1, isa.L1, 1).
		CmpI(isa.L1, 5).
		Bl("inner").
		AddI(isa.L0, isa.L0, 1).
		CmpI(isa.L0, 3).
		Bl("outer").
		Halt().
		MustBuild()
	p := mustProgram(t, "nested", f)
	r := Analyze(p, Config{})
	if !r.Bounded {
		t.Fatalf("not bounded:\n%s", diagText(r))
	}
	if len(r.Loops) != 2 {
		t.Fatalf("want 2 loops, got %+v", r.Loops)
	}
	bounds := map[int]int{}
	for _, l := range r.Loops {
		bounds[l.Depth] = l.Bound
	}
	if bounds[1] != 3 || bounds[2] != 5 {
		t.Fatalf("nest bounds = %+v; want outer 3 (depth 1), inner 5 (depth 2)", r.Loops)
	}
}

func TestAnnotatedLoopFallback(t *testing.T) {
	// The limit is loaded from memory, so inference fails; the
	// annotation supplies the bound.
	build := func(annotate bool) *prog.Program {
		b := prog.NewFunc("main", prog.MinFrame).
			Prologue().
			Set(isa.L2, "lim").
			Ld(isa.L3, isa.L2, 0).
			MovI(isa.L0, 0).
			Label("loop")
		if annotate {
			b.LoopBound(16)
		}
		b.AddI(isa.L0, isa.L0, 1).
			Cmp(isa.L0, isa.L3).
			Bl("loop").
			Halt()
		p := &prog.Program{Name: "annotated", Entry: "main"}
		if err := p.AddData(&prog.DataObject{Name: "lim", Size: 4, Align: 8, Init: []uint32{10}}); err != nil {
			panic(err)
		}
		if err := p.AddFunction(b.MustBuild()); err != nil {
			panic(err)
		}
		return p
	}

	r := Analyze(build(true), Config{})
	if !r.Bounded {
		t.Fatalf("annotated program not bounded:\n%s", diagText(r))
	}
	if len(r.Loops) != 1 || r.Loops[0].Bound != 16 || r.Loops[0].Source != SourceAnnotated {
		t.Fatalf("loops = %+v; want one annotated bound of 16", r.Loops)
	}

	r = Analyze(build(false), Config{})
	if r.Bounded {
		t.Fatal("unbounded loop accepted")
	}
	if !r.HasErrors() || !strings.Contains(diagText(r), "dsr:loop-bound") {
		t.Fatalf("want a hard diagnostic pointing at dsr:loop-bound, got:\n%s", diagText(r))
	}
}

func TestInferenceWinsOverAnnotation(t *testing.T) {
	// An annotated loop whose bound IS inferable: inference wins, and a
	// mismatching annotation draws a warning.
	f := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.L0, 0).
		Label("loop").
		LoopBound(99).
		AddI(isa.L0, isa.L0, 1).
		CmpI(isa.L0, 10).
		Bl("loop").
		Halt().
		MustBuild()
	p := mustProgram(t, "both", f)
	r := Analyze(p, Config{})
	if !r.Bounded {
		t.Fatalf("not bounded:\n%s", diagText(r))
	}
	if len(r.Loops) != 1 || r.Loops[0].Bound != 10 || r.Loops[0].Source != SourceInferred {
		t.Fatalf("loops = %+v; want inferred 10 over annotated 99", r.Loops)
	}
	if !strings.Contains(diagText(r), "disagrees") {
		t.Fatalf("want a mismatch warning, got:\n%s", diagText(r))
	}
}

// --- interprocedural edge cases --------------------------------------------

func TestRecursionRejected(t *testing.T) {
	f := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		Call("main").
		Halt().
		MustBuild()
	p := mustProgram(t, "recursive", f)
	r := Analyze(p, Config{})
	if r.Bounded {
		t.Fatal("recursive program accepted; the bound would be meaningless")
	}
	if !strings.Contains(diagText(r), "recursion") {
		t.Fatalf("want a recursion diagnostic, got:\n%s", diagText(r))
	}
}

func TestUnresolvedIndirectCallRejected(t *testing.T) {
	f := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		Set(isa.L0, "helper").
		Emit(isa.Instr{Op: isa.CallR, Rs1: isa.L0}).
		Halt().
		MustBuild()
	h := prog.NewLeaf("helper").Nop().RetLeaf().MustBuild()
	p := mustProgram(t, "indirect", f, h)
	r := Analyze(p, Config{})
	if r.Bounded {
		t.Fatal("unresolved indirect call accepted")
	}
	if !strings.Contains(diagText(r), "indirect call") {
		t.Fatalf("want an indirect-call diagnostic, got:\n%s", diagText(r))
	}
}

func TestDirectCallComposition(t *testing.T) {
	leaf := prog.NewLeaf("twice").
		Add(isa.O0, isa.O0, isa.O0).
		RetLeaf().
		MustBuild()
	f := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.O0, 21).
		Call("twice").
		Halt().
		MustBuild()
	p := mustProgram(t, "call", f, leaf)
	r := Analyze(p, Config{})
	if !r.Bounded {
		t.Fatalf("not bounded:\n%s", diagText(r))
	}
	if r.FuncCycles["twice"] == 0 || r.FuncCycles["main"] <= r.FuncCycles["twice"] {
		t.Fatalf("func cycles %v: main must include its callee", r.FuncCycles)
	}
	if sim := simulate(t, p); r.BoundCycles < sim {
		t.Fatalf("bound %d < simulated %d", r.BoundCycles, sim)
	}
}

// --- end-to-end soundness + precision --------------------------------------

func TestBoundSoundOnCountedLoop(t *testing.T) {
	for _, n := range []int32{1, 7, 64, 500} {
		p := mustProgram(t, "counted", countedLoop(n))
		r := Analyze(p, Config{})
		if !r.Bounded {
			t.Fatalf("n=%d not bounded:\n%s", n, diagText(r))
		}
		sim := simulate(t, p)
		if r.BoundCycles < sim {
			t.Fatalf("n=%d: bound %d < simulated %d (UNSOUND)", n, r.BoundCycles, sim)
		}
		// Precision guard: a hot counted loop must not be charged a
		// cache miss per iteration once the must analysis has warmed up.
		if over := float64(r.BoundCycles) / float64(sim); over > 8 {
			t.Errorf("n=%d: bound %d is %.1fx the observed %d — precision regression", n, r.BoundCycles, over, sim)
		}
	}
}

func TestBoundSoundWithMemoryTraffic(t *testing.T) {
	p := &prog.Program{Name: "memtraffic", Entry: "main"}
	if err := p.AddData(&prog.DataObject{Name: "arr", Size: 1024, Align: 8}); err != nil {
		t.Fatal(err)
	}
	f := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		Set(isa.L0, "arr").
		MovI(isa.L1, 0).
		MovI(isa.L3, 0).
		Label("loop").
		Ld(isa.L4, isa.L0, 0).
		Add(isa.L3, isa.L3, isa.L4).
		St(isa.L3, isa.L0, 0).
		AddI(isa.L0, isa.L0, 4).
		AddI(isa.L1, isa.L1, 1).
		CmpI(isa.L1, 256).
		Bl("loop").
		Mov(isa.O0, isa.L3).
		Halt().
		MustBuild()
	if err := p.AddFunction(f); err != nil {
		t.Fatal(err)
	}
	r := Analyze(p, Config{})
	if !r.Bounded {
		t.Fatalf("not bounded:\n%s", diagText(r))
	}
	sim := simulate(t, p)
	if r.BoundCycles < sim {
		t.Fatalf("bound %d < simulated %d (UNSOUND)", r.BoundCycles, sim)
	}
}

func TestDSRModesBoundedAndOrdered(t *testing.T) {
	p := mustProgram(t, "counted", countedLoop(32))
	det := Analyze(p, Config{Mode: ModeDet})
	eager := Analyze(p, Config{Mode: ModeDSREager})
	lazy := Analyze(p, Config{Mode: ModeDSRLazy, RelocBound: 1000})
	for name, r := range map[string]*Report{"det": det, "eager": eager, "lazy": lazy} {
		if !r.Bounded {
			t.Fatalf("%s not bounded:\n%s", name, diagText(r))
		}
	}
	// Randomisation can only lose static precision: the placement-join
	// bound dominates the exact-layout bound, and lazy (no persistence,
	// plus the relocation charge) dominates eager.
	if eager.BoundCycles < det.BoundCycles {
		t.Errorf("eager bound %d < det bound %d", eager.BoundCycles, det.BoundCycles)
	}
	if lazy.BoundCycles < eager.BoundCycles {
		t.Errorf("lazy bound %d < eager bound %d", lazy.BoundCycles, eager.BoundCycles)
	}
	if det.AlwaysHit == 0 {
		t.Error("det mode classified no always-hits on a tight loop")
	}
	if eager.AlwaysHit != 0 {
		t.Errorf("DSR mode must not classify exact hits, got %d", eager.AlwaysHit)
	}
	sim := simulate(t, p)
	if det.BoundCycles < sim {
		t.Fatalf("det bound %d < simulated %d", det.BoundCycles, sim)
	}
}

func TestHardwareRandomisedCacheDefeatsAnalysis(t *testing.T) {
	// The A4 ablation: random cache placement defeats the must/may
	// domains by design. The analyzer must stay sound by classifying
	// nothing and warning, not by pretending.
	pf := platform.ProximaLEON3()
	pf.IL1.Placement = cache.PlacementHashRandom
	pf.DL1.Placement = cache.PlacementHashRandom
	p := mustProgram(t, "counted", countedLoop(16))
	r := Analyze(p, Config{Platform: &pf})
	if !r.Bounded {
		t.Fatalf("not bounded:\n%s", diagText(r))
	}
	if r.AlwaysHit != 0 {
		t.Errorf("classified %d always-hits under randomised placement", r.AlwaysHit)
	}
	if !strings.Contains(diagText(r), "modulo") {
		t.Fatalf("want a cache-policy warning, got:\n%s", diagText(r))
	}
}

func TestSaturationFlag(t *testing.T) {
	// Deep nest of annotated huge bounds must saturate, not overflow.
	b := prog.NewFunc("main", prog.MinFrame).Prologue()
	for i := 0; i < 6; i++ {
		r := isa.L0 + isa.Reg(i)
		b.MovI(r, 0).Label("l" + string(rune('a'+i)))
	}
	for i := 5; i >= 0; i-- {
		r := isa.L0 + isa.Reg(i)
		b.AddI(r, r, 1).
			CmpI(r, 2000000000).
			Bl("l" + string(rune('a'+i)))
	}
	b.Halt()
	p := mustProgram(t, "huge", b.MustBuild())
	r := Analyze(p, Config{})
	if !r.Bounded {
		t.Fatalf("not bounded:\n%s", diagText(r))
	}
	if !r.Saturated {
		t.Fatalf("2e9^6-iteration nest did not saturate (bound %d)", r.BoundCycles)
	}
	if r.BoundCycles < satCap {
		t.Fatalf("saturated bound %d below the cap", r.BoundCycles)
	}
}
