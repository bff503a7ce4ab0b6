package cpu

import (
	"fmt"
	"reflect"
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

// equivImage places equivProgram sequentially, then shifts every symbol
// by delta so the entry (and everything behind it) lands in a chosen
// layout class.
func equivImage(t testing.TB, delta mem.Addr) *loader.Image {
	t.Helper()
	p := equivProgram(t)
	l, err := loader.LayoutSequential(p, loader.DefaultSequentialConfig())
	if err != nil {
		t.Fatal(err)
	}
	pl := loader.Placement{}
	for sym, base := range l.Placement {
		pl[sym] = base + delta
	}
	img, err := loader.BuildImage(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// newEquivCPU builds a CPU over real L1s/TLBs with the image's data
// initialised, optionally pinned to the interpreter.
func newEquivCPU(img *loader.Image, forceInterp bool) *CPU {
	il1, dl1, it, dt := proximaFronts(nullMem{})
	m := NewMemory()
	for _, iw := range img.Inits {
		m.StoreWord(iw.Addr, iw.Val)
	}
	c := New(NewDefaultConfig(), img, il1, dl1, it, dt, m)
	c.SetForceInterpreter(forceInterp)
	return c
}

// newProximaHierarchy builds the ProximaLEON3 memory hierarchy below a
// core — IL1 and DL1 over the AHB bus, a direct-mapped L2 and SDRAM,
// both TLBs walking through the bus — with non-zero miss latencies, so
// every attribution component on the memory path is exercised. With
// probes, DRAM, L2 and bus each book their self-latency to att, as
// platform.EnableAttribution wires them; without, the L1 fronts sit
// over an unprobed hierarchy. flush returns the hierarchy to its cold
// state and zeroes att, as platform.Run does before every run.
func newProximaHierarchy(att *telemetry.Attribution, probes bool) (il1, dl1 *cache.Cache, it, dt *tlb.TLB, flush func()) {
	wrap := func(b mem.Backend, comp telemetry.Component) mem.Backend {
		if !probes {
			return b
		}
		return telemetry.NewProbe(b, att, comp)
	}
	l2 := cache.New(cache.Config{
		Name: "L2", Size: 32 * 1024, LineSize: 32, Ways: 1,
		HitLatency: 6, Placement: cache.PlacementModulo,
		Replacement: cache.ReplacementLRU, Write: cache.WriteBackAllocate,
	}, wrap(dram.New(dram.Config{Name: "SDRAM", AccessLatency: 20, PerWord: 2}), telemetry.CompDRAM))
	b := wrap(bus.New(bus.Config{Name: "AHB", ReadLatency: 2, WriteLatency: 2},
		wrap(l2, telemetry.CompL2)), telemetry.CompBus)
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
func newAttributedEquivCPU(img *loader.Image, forceInterp, probes bool) (c *CPU, flush func()) {
	att := telemetry.NewAttribution()
	il1, dl1, it, dt, flush := newProximaHierarchy(att, probes)
	m := NewMemory()
	for _, iw := range img.Inits {
		m.StoreWord(iw.Addr, iw.Val)
	}
	c = New(NewDefaultConfig(), img, il1, dl1, it, dt, m)
	c.SetAttribution(att)
	c.SetForceInterpreter(forceInterp)
	return c, flush
}

// machineState is everything observable about a finished run. The %g0
// scratch slot is excluded: the engine parks discarded writes there
// while the interpreter drops them, and the slot is architecturally
// invisible (reads of %g0 resolve to rfile[0]).
type machineState struct {
	cycles  mem.Cycles
	ctr     Counters
	pc      mem.Addr
	halted  bool
	rfile   []uint32
	fregs   [isa.NumFRegs]float32
	iccZ    bool
	iccN    bool
	fcc     int
	trace   []TracePoint
	memHash map[mem.Addr]uint32
}

func captureState(c *CPU, img *loader.Image) machineState {
	st := machineState{
		cycles: c.cycles,
		ctr:    c.ctr,
		pc:     c.pc,
		halted: c.halted,
		rfile:  append([]uint32(nil), c.rfile[:c.scratchIdx()]...),
		fregs:  c.fregs,
		iccZ:   c.iccZ,
		iccN:   c.iccN,
		fcc:    c.fcc,
		trace:  append([]TracePoint(nil), c.trace...),
	}
	// Observable data memory: every initialised word plus the output
	// object's words.
	st.memHash = map[mem.Addr]uint32{}
	for _, iw := range img.Inits {
		st.memHash[iw.Addr] = c.data.LoadWord(iw.Addr)
	}
	if base, ok := img.Symbols["out"]; ok {
		for off := mem.Addr(0); off < 16; off += 4 {
			st.memHash[base+off] = c.data.LoadWord(base + off)
		}
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
		t.Fatal("engineOK() = true despite SetForceInterpreter(true)")
	}
	ca, _ := newAttributedEquivCPU(equivImage(t, 0), false, true)
	if !ca.engineOK() {
		t.Fatal("engineOK() = false with attribution installed; the attribution equivalence suite would compare the interpreter with itself")
	}
}

// checkAttributedEquivalent compares an engine run with an interpreter
// run of the same image: the full machine state, then the attribution
// profile bucket by bucket, then conservation on both sides.
func checkAttributedEquivalent(t *testing.T, fast, slow *CPU, img *loader.Image) {
	t.Helper()
	fs, ss := captureState(fast, img), captureState(slow, img)
	if !reflect.DeepEqual(fs, ss) {
		t.Errorf("engine and interpreter state diverged:\n fast: %+v\n slow: %+v", fs, ss)
	}
	fa, sa := fast.att.Snapshot(), slow.att.Snapshot()
	for comp := telemetry.Component(0); comp < telemetry.NumComponents; comp++ {
		if f, s := fa.Component(comp), sa.Component(comp); f != s {
			t.Errorf("%s: engine booked %d, interpreter %d", comp, f, s)
		}
	}
	if fa.Total() != fast.cycles {
		t.Errorf("engine: booked %d cycles, charged %d", fa.Total(), fast.cycles)
	}
	if sa.Total() != slow.cycles {
		t.Errorf("interpreter: booked %d cycles, charged %d", sa.Total(), slow.cycles)
	}
}

// TestEngineInterpreterEquivalenceAttribution is the attribution-on
// twin of TestEngineInterpreterEquivalence: on a real hierarchy with
// probes below the L1s, the engine must also book every cycle to the
// same component as the interpreter.
func TestEngineInterpreterEquivalenceAttribution(t *testing.T) {
	for _, delta := range layoutClasses {
		delta := delta
		t.Run(fmt.Sprintf("class%d", delta), func(t *testing.T) {
			img := equivImage(t, delta)
			fast, _ := newAttributedEquivCPU(img, false, true)
			slow, _ := newAttributedEquivCPU(img, true, true)
			runToHalt(t, fast)
			runToHalt(t, slow)
			checkAttributedEquivalent(t, fast, slow, img)
			// The L1s hit in zero cycles, so their self-latency is zero
			// here and the miss traffic lands on the probed levels.
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
			fs, ss := captureState(fast, fast.img), captureState(slow, slow.img)
			if !reflect.DeepEqual(fs, ss) {
				t.Errorf("engine and interpreter state diverged:\n fast: %+v\n slow: %+v", fs, ss)
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
			fast.data.Clear()
			for _, iw := range img.Inits {
				fast.data.StoreWord(iw.Addr, iw.Val)
			}
			runToHalt(t, fast)
			slow := newEquivCPU(img, true)
			runToHalt(t, slow)
			fs, ss := captureState(fast, img), captureState(slow, img)
			if !reflect.DeepEqual(fs, ss) {
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
			fast.data.Clear()
			for _, iw := range img.Inits {
				fast.data.StoreWord(iw.Addr, iw.Val)
			}
			flush()
			runToHalt(t, fast)
			slow, _ := newAttributedEquivCPU(img, true, true)
			runToHalt(t, slow)
			checkAttributedEquivalent(t, fast, slow, img)
			if t.Failed() {
				t.Fatalf("round %d class %d: rebound attributed engine diverged from fresh interpreter", round, i*8)
			}
		}
	}
}

// TestAttributionConservationBareFronts pins the SetAttribution
// contract without any probe wiring: over bare caches and an unprobed
// hierarchy the core's own bookings still add up to the cycle counter,
// with every memory stall landing on the L1 fronts.
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
				t.Errorf("interp=%v: unprobed %s booked %d", forceInterp, comp, v)
			}
		}
	}
}

// TestInvalidateDecodeNeutral pins InvalidateDecode's contract: a hard
// decode-cache reset between runs must not change any observable (the
// re-decode reproduces the dropped entries exactly).
func TestInvalidateDecodeNeutral(t *testing.T) {
	img := equivImage(t, 8)
	warm := newEquivCPU(img, false)
	cold := newEquivCPU(img, false)
	for i := 0; i < 3; i++ {
		runToHalt(t, warm)
		cold.InvalidateDecode()
		runToHalt(t, cold)
		ws, cs := captureState(warm, img), captureState(cold, img)
		if !reflect.DeepEqual(ws, cs) {
			t.Fatalf("run %d: InvalidateDecode changed observable state", i)
		}
	}
}
