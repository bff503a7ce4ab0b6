package cpu

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"dsr/internal/bus"
	"dsr/internal/cache"
	"dsr/internal/dram"
	"dsr/internal/isa"
	"dsr/internal/loader"
	"dsr/internal/mem"
	"dsr/internal/prog"
	"dsr/internal/telemetry"
	"dsr/internal/tlb"
)

// Engine equivalence suite: the threaded-code engine must be
// observationally indistinguishable from the giant-switch interpreter —
// same cycles, same counters, same architectural state, same trace —
// for every layout class a placement can select, and across image
// rebinding (the DSR runtime relocates functions between runs and the
// decode cache persists by design).

// equivProgram touches every µop family the engine handles: fusible ALU
// runs (reg and imm forms), Set with and without symbols, mul/div,
// word and byte loads/stores, FP arithmetic, compares and FP branches,
// int branches, calls through register windows, a leaf call, a
// recursion deep enough to overflow and underflow the register windows,
// and instrumentation points.
func equivProgram(t testing.TB) *prog.Program {
	t.Helper()
	p := &prog.Program{Name: "equiv", Entry: "main"}
	if err := p.AddData(&prog.DataObject{Name: "vals", Size: 4 * 4,
		// 3.0f and 1.5f as raw bit patterns, plus integer fodder.
		Init: []uint32{0x4040_0000, 0x3FC0_0000, 41, 7}}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddData(&prog.DataObject{Name: "out", Size: 4 * 4}); err != nil {
		t.Fatal(err)
	}

	scale := prog.NewLeaf("scale").
		MulI(isa.O0, isa.O0, 3).
		RetLeaf().
		MustBuild()

	f0, f1, f2, f3, f4 := isa.FReg(0), isa.FReg(1), isa.FReg(2), isa.FReg(3), isa.FReg(4)
	fpwork := prog.NewFunc("fpwork", prog.MinFrame).
		Prologue().
		Set(isa.L0, "vals").
		FLd(f0, isa.L0, 0).
		FLd(f1, isa.L0, 4).
		Fadd(f2, f0, f1).
		Fmul(f3, f2, f1).
		Fcmp(f3, f0).
		Fbl("small").
		Fstoi(f4, f3).
		Ba("store").
		Label("small").
		Fstoi(f4, f0).
		Label("store").
		Set(isa.L1, "out").
		FSt(f4, isa.L1, 0).
		Ld(isa.L2, isa.L1, 0).
		Mov(isa.I0, isa.L2).
		Epilogue().
		MustBuild()

	// deep(n) = n + deep(n-1), deep(1) = 1: ten frames against seven
	// usable windows, so the descent spills and the return path fills.
	deep := prog.NewFunc("deep", prog.MinFrame).
		Prologue().
		CmpI(isa.I0, 1).
		Ble("base").
		SubI(isa.O0, isa.I0, 1).
		Call("deep").
		Add(isa.I0, isa.I0, isa.O0).
		Label("base").
		Epilogue().
		MustBuild()

	main := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		IPoint(1).
		MovI(isa.L0, 0). // i
		MovI(isa.L1, 0). // sum
		Label("loop").
		LoopBound(8).
		Mov(isa.O0, isa.L0).
		Call("scale").
		Add(isa.L1, isa.L1, isa.O0).
		// A fusible straight-line stretch mixing reg and imm forms.
		OpI(isa.Xor, isa.L2, isa.L1, 0x5A).
		OpI(isa.And, isa.L3, isa.L2, 0xFF).
		Op3(isa.Or, isa.L4, isa.L3, isa.L0).
		OpI(isa.Sll, isa.L4, isa.L4, 3).
		OpI(isa.Sra, isa.L4, isa.L4, 1).
		Sub(isa.L2, isa.L4, isa.L3).
		AddI(isa.L0, isa.L0, 1).
		CmpI(isa.L0, 8).
		Bl("loop").
		Call("fpwork").
		Add(isa.L1, isa.L1, isa.O0).
		MovI(isa.O0, 10).
		Call("deep").
		Add(isa.L1, isa.L1, isa.O0).
		// Byte memory traffic and div (operands kept nonzero).
		Set(isa.L5, "vals").
		Ldub(isa.L6, isa.L5, 8).
		Stb(isa.L6, isa.L5, 12).
		AddI(isa.L7, isa.L1, 13).
		OpI(isa.Div, isa.L7, isa.L7, 5).
		Add(isa.L1, isa.L1, isa.L7).
		// Register forms of mul/div (the divisor is nonzero).
		Mul(isa.L6, isa.L6, isa.L7).
		Op3(isa.Div, isa.L6, isa.L6, isa.L7).
		Add(isa.L1, isa.L1, isa.L6).
		Set(isa.L5, "out").
		St(isa.L1, isa.L5, 4).
		IPoint(2).
		Mov(isa.O0, isa.L1).
		Halt().
		MustBuild()

	for _, f := range []*prog.Function{main, scale, fpwork, deep} {
		if err := p.AddFunction(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// layoutClasses are the IL1-line offsets an 8-byte-aligned placement
// can give a function with 32-byte lines — the decode cache's class key.
var layoutClasses = []mem.Addr{0, 8, 16, 24}

// equivImage places equivProgram in layout class delta (shiftedImage).
func equivImage(t testing.TB, delta mem.Addr) *loader.Image {
	t.Helper()
	img, err := shiftedImage(equivProgram(t), delta)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// shiftedImage places p sequentially, then shifts every symbol by delta
// so the entry (and everything behind it) lands in a chosen layout
// class.
func shiftedImage(p *prog.Program, delta mem.Addr) (*loader.Image, error) {
	l, err := loader.LayoutSequential(p, loader.DefaultSequentialConfig())
	if err != nil {
		return nil, err
	}
	pl := loader.Placement{}
	for sym, base := range l.Placement {
		pl[sym] = base + delta
	}
	return loader.BuildImage(p, pl)
}

// reload clears c's data memory and stores img's initial data, as a
// platform reboot does.
func reload(c *CPU, img *loader.Image) {
	c.data.Clear()
	for _, iw := range img.Inits {
		c.data.StoreWord(iw.Addr, iw.Val)
	}
}

// newEquivCPU builds a CPU over real L1s/TLBs with the image's data
// initialised, optionally pinned to the interpreter.
func newEquivCPU(img *loader.Image, forceInterp bool) *CPU {
	c := newNullCPU(NewDefaultConfig(), img)
	reload(c, img)
	c.forceInterp = forceInterp
	return c
}

// newProximaHierarchy builds the ProximaLEON3 memory hierarchy below a
// core — IL1 and DL1 over the AHB bus, a direct-mapped L2 and SDRAM,
// both TLBs walking through the bus — with non-zero miss latencies, so
// every attribution component on the memory path is exercised. wired
// installs att on the bus, L2 and DRAM, which then book their
// self-latency as platform.EnableAttribution wires them; unwired, the
// L1 fronts sit over a hierarchy that books nothing. flush returns the
// hierarchy to its cold state and zeroes att, as platform.Run does
// before every run.
func newProximaHierarchy(att *telemetry.Attribution, wired bool) (il1, dl1 *cache.Cache, it, dt *tlb.TLB, flush func()) {
	d := dram.New(dram.Config{Name: "SDRAM", AccessLatency: 20, PerWord: 2})
	l2 := cache.New(cache.Config{
		Name: "L2", Size: 32 * 1024, LineSize: 32, Ways: 1,
		HitLatency: 6, Placement: cache.PlacementModulo,
		Replacement: cache.ReplacementLRU, Write: cache.WriteBackAllocate,
	}, d)
	b := bus.New(bus.Config{Name: "AHB", ReadLatency: 2, WriteLatency: 2}, l2)
	if wired {
		b.SetAttribution(att)
		l2.SetAttribution(att, telemetry.CompL2)
		d.SetAttribution(att)
	}
	il1, dl1, it, dt = proximaFronts(b)
	flush = func() {
		il1.FlushAll()
		dl1.FlushAll()
		l2.FlushAll()
		it.Flush()
		dt.Flush()
		att.Reset()
	}
	return il1, dl1, it, dt, flush
}

// newAttributedEquivCPU is newEquivCPU on newProximaHierarchy with
// attribution installed.
func newAttributedEquivCPU(img *loader.Image, forceInterp, wired bool) (c *CPU, flush func()) {
	return newAttributedCPU(NewDefaultConfig(), img, forceInterp, wired)
}

// newAttributedCPU is newAttributedEquivCPU under cfg.
func newAttributedCPU(cfg Config, img *loader.Image, forceInterp, wired bool) (c *CPU, flush func()) {
	att := telemetry.NewAttribution()
	il1, dl1, it, dt, flush := newProximaHierarchy(att, wired)
	c = New(cfg, img, il1, dl1, it, dt, NewMemory())
	reload(c, img)
	c.SetAttribution(att)
	c.forceInterp = forceInterp
	return c, flush
}

// machineState is everything observable about a finished run. The %g0
// scratch slot is excluded: the engine parks discarded writes there
// while the interpreter drops them, and the slot is architecturally
// invisible (reads of %g0 resolve to rfile[0]).
type machineState struct {
	cycles mem.Cycles
	ctr    Counters
	pc     mem.Addr
	halted bool
	rfile  []uint32
	fregs  [isa.NumFRegs]uint32 // bit patterns, so NaNs compare equal
	iccZ   bool
	iccN   bool
	fcc    int
	trace  []TracePoint
	pages  map[mem.Addr][pageWords]uint32 // every data page written since the last Clear
}

func captureState(c *CPU) machineState {
	st := machineState{
		cycles: c.cycles,
		ctr:    c.ctr,
		pc:     c.pc,
		halted: c.halted,
		rfile:  append([]uint32(nil), c.rfile[:c.scratchIdx()]...),
		iccZ:   c.iccZ,
		iccN:   c.iccN,
		fcc:    c.fcc,
		trace:  append([]TracePoint(nil), c.trace...),
		pages:  map[mem.Addr][pageWords]uint32{},
	}
	for i, f := range c.fregs {
		st.fregs[i] = math.Float32bits(f)
	}
	for _, d := range c.data.dirty {
		st.pages[d.pn] = d.p.w
	}
	return st
}

func runToHalt(t *testing.T, c *CPU) {
	t.Helper()
	c.Reset(stackTop)
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !c.Halted() {
		t.Fatal("CPU did not halt")
	}
}

// TestEngineEngaged guards the equivalence suite against vacuity: under
// the default configuration the engine's preconditions must hold, so
// the fast side of every comparison really is threaded-code dispatch.
func TestEngineEngaged(t *testing.T) {
	c := newEquivCPU(equivImage(t, 0), false)
	if !c.engineOK() {
		t.Fatal("engineOK() = false under the default configuration; the equivalence suite would compare the interpreter with itself")
	}
	cf := newEquivCPU(equivImage(t, 0), true)
	if cf.engineOK() {
		t.Fatal("engineOK() = true with forceInterp set")
	}
	ca, _ := newAttributedEquivCPU(equivImage(t, 0), false, true)
	if !ca.engineOK() {
		t.Fatal("engineOK() = false with attribution installed; the attribution equivalence suite would compare the interpreter with itself")
	}
}

// attributedDiff compares an engine run with an interpreter run: the
// full machine state, then the attribution profile bucket by bucket,
// then conservation on both sides. It returns "" when they agree.
func attributedDiff(fast, slow *CPU) string {
	var d strings.Builder
	if fs, ss := captureState(fast), captureState(slow); !reflect.DeepEqual(fs, ss) {
		fmt.Fprintf(&d, "engine and interpreter state diverged:\n fast: %s\n slow: %s\n", stateSummary(fs), stateSummary(ss))
	}
	fa, sa := fast.att.Snapshot(), slow.att.Snapshot()
	for comp := telemetry.Component(0); comp < telemetry.NumComponents; comp++ {
		if f, s := fa.Component(comp), sa.Component(comp); f != s {
			fmt.Fprintf(&d, "%s: engine booked %d, interpreter %d\n", comp, f, s)
		}
	}
	if fa.Total() != fast.cycles {
		fmt.Fprintf(&d, "engine: booked %d cycles, charged %d\n", fa.Total(), fast.cycles)
	}
	if sa.Total() != slow.cycles {
		fmt.Fprintf(&d, "interpreter: booked %d cycles, charged %d\n", sa.Total(), slow.cycles)
	}
	return d.String()
}

// stateSummary prints a machineState without its page contents.
func stateSummary(st machineState) string {
	return fmt.Sprintf("cycles=%d pc=%#x halted=%v ctr=%+v icc=%v/%v fcc=%d trace=%v pages=%d",
		st.cycles, st.pc, st.halted, st.ctr, st.iccZ, st.iccN, st.fcc, st.trace, len(st.pages))
}

func checkAttributedEquivalent(t *testing.T, fast, slow *CPU) {
	t.Helper()
	if d := attributedDiff(fast, slow); d != "" {
		t.Error(d)
	}
}

// TestEngineInterpreterEquivalenceAttribution is the attribution-on
// twin of TestEngineInterpreterEquivalence: on a real hierarchy whose
// levels below the L1s book themselves, the engine must also book every
// cycle to the same component as the interpreter.
func TestEngineInterpreterEquivalenceAttribution(t *testing.T) {
	for _, delta := range layoutClasses {
		delta := delta
		t.Run(fmt.Sprintf("class%d", delta), func(t *testing.T) {
			img := equivImage(t, delta)
			fast, _ := newAttributedEquivCPU(img, false, true)
			slow, _ := newAttributedEquivCPU(img, true, true)
			runToHalt(t, fast)
			runToHalt(t, slow)
			checkAttributedEquivalent(t, fast, slow)
			// The L1s hit in zero cycles, so their self-latency is zero
			// here and the miss traffic lands on the levels below.
			for _, comp := range []telemetry.Component{telemetry.CompBranch, telemetry.CompIntOp,
				telemetry.CompFPUBase, telemetry.CompBus, telemetry.CompL2, telemetry.CompDRAM,
				telemetry.CompStorePath, telemetry.CompITLBWalk, telemetry.CompDTLBWalk,
				telemetry.CompWindowTrap, telemetry.CompIPoint} {
				if fast.att.Component(comp) == 0 {
					t.Errorf("%s booked nothing; the run does not exercise it", comp)
				}
			}
		})
	}
}

// TestEngineInterpreterEquivalence pins byte-identity between the
// threaded-code engine and the forced interpreter for every layout
// class: cycles, performance counters, the full register file, FP
// state, condition codes, the instrumentation trace and data memory.
func TestEngineInterpreterEquivalence(t *testing.T) {
	for _, delta := range layoutClasses {
		delta := delta
		t.Run(fmt.Sprintf("class%d", delta), func(t *testing.T) {
			fast := newEquivCPU(equivImage(t, delta), false)
			slow := newEquivCPU(equivImage(t, delta), true)
			runToHalt(t, fast)
			runToHalt(t, slow)
			fs, ss := captureState(fast), captureState(slow)
			if !reflect.DeepEqual(fs, ss) {
				t.Errorf("engine and interpreter state diverged:\n fast: %s\n slow: %s", stateSummary(fs), stateSummary(ss))
			}
			if fs.cycles == 0 || fs.ctr.Instrs == 0 {
				t.Errorf("degenerate run: cycles=%d instrs=%d", fs.cycles, fs.ctr.Instrs)
			}
		})
	}
}

// TestEngineEquivalenceAcrossRebinding models a DSR campaign's reboots:
// one CPU is repeatedly rebound to images in rotating layout classes
// (the decode cache persisting throughout, as in production), and every
// run must match a fresh forced-interpreter CPU executing the same
// image. A stale decode entry surviving relocation would diverge here.
func TestEngineEquivalenceAcrossRebinding(t *testing.T) {
	imgs := make([]*loader.Image, len(layoutClasses))
	for i, delta := range layoutClasses {
		imgs[i] = equivImage(t, delta)
	}
	fast := newEquivCPU(imgs[0], false)
	for round := 0; round < 3; round++ {
		for i, img := range imgs {
			// Rebind (relocation between runs) — decode cache kept,
			// memory reloaded the way a platform reboot does it.
			fast.SetImage(img)
			reload(fast, img)
			runToHalt(t, fast)
			slow := newEquivCPU(img, true)
			runToHalt(t, slow)
			if !reflect.DeepEqual(captureState(fast), captureState(slow)) {
				t.Fatalf("round %d class %d: rebound engine diverged from fresh interpreter", round, i*8)
			}
		}
	}
}

// TestEngineEquivalenceAcrossRebindingAttribution is the attribution-on
// twin of TestEngineEquivalenceAcrossRebinding: one attributed CPU,
// rebound and flushed between runs as a platform reboot does, against
// a fresh attributed interpreter per run.
func TestEngineEquivalenceAcrossRebindingAttribution(t *testing.T) {
	imgs := make([]*loader.Image, len(layoutClasses))
	for i, delta := range layoutClasses {
		imgs[i] = equivImage(t, delta)
	}
	fast, flush := newAttributedEquivCPU(imgs[0], false, true)
	for round := 0; round < 3; round++ {
		for i, img := range imgs {
			fast.SetImage(img)
			reload(fast, img)
			flush()
			runToHalt(t, fast)
			slow, _ := newAttributedEquivCPU(img, true, true)
			runToHalt(t, slow)
			checkAttributedEquivalent(t, fast, slow)
			if t.Failed() {
				t.Fatalf("round %d class %d: rebound attributed engine diverged from fresh interpreter", round, i*8)
			}
		}
	}
}

// cutRun reruns img on c from a cold hierarchy under a cycle budget and
// an instruction watchdog (0: none), as RunBudget's callers do.
func cutRun(c *CPU, img *loader.Image, flush func(), budget mem.Cycles, maxInstrs uint64) error {
	reload(c, img)
	flush()
	c.cfg.MaxInstrs = maxInstrs
	c.Reset(stackTop)
	_, err := c.RunBudget(budget)
	return err
}

// errText renders an error for comparison; nil is "".
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestEngineEquivalenceBudgetCuts stops equivProgram at every cycle
// budget and at every watchdog limit short of its full run, in every
// layout class. The engine must stop exactly where the interpreter
// does — same state, attribution and error — including cuts inside
// fused runs and right after a fetch whose miss crosses the budget: that
// instruction still retires, because the interpreter's gates precede
// its fetch.
func TestEngineEquivalenceBudgetCuts(t *testing.T) {
	for _, delta := range layoutClasses {
		img := equivImage(t, delta)
		fast, flushFast := newAttributedEquivCPU(img, false, true)
		slow, flushSlow := newAttributedEquivCPU(img, true, true)
		if err := cutRun(slow, img, flushSlow, NoBudget, 0); err != nil || !slow.halted {
			t.Fatalf("class %d: uncut run: halted=%v err=%v", delta, slow.halted, err)
		}
		total, instrs := slow.cycles, slow.ctr.Instrs
		check := func(what string, budget mem.Cycles, maxInstrs uint64) {
			fe := cutRun(fast, img, flushFast, budget, maxInstrs)
			se := cutRun(slow, img, flushSlow, budget, maxInstrs)
			d := attributedDiff(fast, slow)
			if errText(fe) != errText(se) {
				d += fmt.Sprintf("engine error %v, interpreter error %v\n", fe, se)
			}
			if d != "" {
				t.Fatalf("class %d, %s: %s", delta, what, d)
			}
		}
		for b := mem.Cycles(1); b < total; b++ {
			check(fmt.Sprintf("budget %d of %d", b, total), b, 0)
		}
		for m := uint64(1); m < instrs; m++ {
			check(fmt.Sprintf("watchdog %d of %d", m, instrs), NoBudget, m)
		}
	}
}

// TestAttributionWalkInsideWindowTrap pins the nesting of hushed
// spans on a real hierarchy: a program whose only data accesses are
// the spills and fills of a deep recursion takes all its DTLB misses
// inside window traps, so each walk books to window_trap (the outer
// span wins) and nothing to dtlb_walk, and none of the spills' stores
// or the fills' loads books store-issue or load-use cycles outside
// their trap — on both dispatchers.
func TestAttributionWalkInsideWindowTrap(t *testing.T) {
	p := &prog.Program{Name: "spill", Entry: "main"}
	deep := prog.NewFunc("deep", prog.MinFrame).
		Prologue().
		CmpI(isa.I0, 1).
		Ble("base").
		SubI(isa.O0, isa.I0, 1).
		Call("deep").
		Add(isa.I0, isa.I0, isa.O0).
		Label("base").
		Epilogue().
		MustBuild()
	main := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.O0, 10).
		Call("deep").
		Halt().
		MustBuild()
	for _, f := range []*prog.Function{main, deep} {
		if err := p.AddFunction(f); err != nil {
			t.Fatal(err)
		}
	}
	img, err := shiftedImage(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	var snaps [2]telemetry.AttributionSnapshot
	for i, forceInterp := range []bool{false, true} {
		c, _ := newAttributedEquivCPU(img, forceInterp, true)
		runToHalt(t, c)
		snap := c.att.Snapshot()
		snaps[i] = snap
		if c.ctr.WindowOverflows == 0 || c.ctr.WindowUnderflows == 0 || c.dtlb.Counters().Misses == 0 {
			t.Fatalf("interp=%v: vacuous run: %+v, DTLB %+v", forceInterp, c.ctr, c.dtlb.Counters())
		}
		if snap.Total() != c.Cycles() {
			t.Errorf("interp=%v: booked %d cycles, charged %d", forceInterp, snap.Total(), c.Cycles())
		}
		for _, comp := range []telemetry.Component{telemetry.CompDTLBWalk, telemetry.CompLoadStore, telemetry.CompStorePath, telemetry.CompDL1} {
			if v := snap.Component(comp); v != 0 {
				t.Errorf("interp=%v: %s booked %d cycles outside the window traps", forceInterp, comp, v)
			}
		}
		if snap.Component(telemetry.CompWindowTrap) == 0 {
			t.Errorf("interp=%v: window_trap booked nothing", forceInterp)
		}
	}
	if snaps[0] != snaps[1] {
		t.Errorf("engine booked %+v, interpreter %+v", snaps[0], snaps[1])
	}
}

// TestAttributionConservationBareFronts pins the SetAttribution
// contract without any level wiring: over bare caches and a hierarchy
// that books nothing, the core's and its TLBs' bookings still add up
// to the cycle counter, with every memory stall landing on the L1
// fronts.
func TestAttributionConservationBareFronts(t *testing.T) {
	img := equivImage(t, 8)
	for _, forceInterp := range []bool{false, true} {
		c, _ := newAttributedEquivCPU(img, forceInterp, false)
		runToHalt(t, c)
		snap := c.att.Snapshot()
		if snap.Total() != c.Cycles() {
			t.Errorf("interp=%v: booked %d cycles, charged %d", forceInterp, snap.Total(), c.Cycles())
		}
		if snap.Component(telemetry.CompIL1) == 0 || snap.Component(telemetry.CompDL1) == 0 {
			t.Errorf("interp=%v: L1 fronts booked nothing: %+v", forceInterp, snap)
		}
		for _, comp := range []telemetry.Component{telemetry.CompBus, telemetry.CompL2, telemetry.CompDRAM} {
			if v := snap.Component(comp); v != 0 {
				t.Errorf("interp=%v: unwired %s booked %d", forceInterp, comp, v)
			}
		}
	}
}
