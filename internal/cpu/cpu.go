// Package cpu models the LEON3 integer pipeline at instruction
// granularity with cycle-approximate timing: one base cycle per
// instruction plus stalls from the memory hierarchy, multi-cycle
// integer/floating-point operations (with the value-dependent FPU jitter
// the paper notes in §III.A/§VI), taken-branch penalties, and SPARC
// register-window overflow/underflow traps whose 16-word spill/fill
// traffic flows through the data cache — which is how stack placement
// randomisation reaches the memory hierarchy.
//
// The CPU is functional: it computes real values, so the case-study
// application produces real wavefront errors and its input-dependent
// paths (the paper's high-level jitter source) arise naturally.
package cpu

import (
	"errors"
	"fmt"
	"math"

	"dsr/internal/cache"
	"dsr/internal/isa"
	"dsr/internal/loader"
	"dsr/internal/mem"
	"dsr/internal/telemetry"
	"dsr/internal/timing"
	"dsr/internal/tlb"
)

// Config is the core's configuration. The per-instruction timing
// constants live in the embedded timing.Model — the single table shared
// with the static WCET analyzer (internal/analysis/wcet), so simulator
// and analyzer cannot drift. NewDefaultConfig documents the values used
// for the PROXIMA LEON3 reproduction.
type Config struct {
	NumWindows int // SPARC register windows (LEON3: 8)

	// Model is the shared per-instruction timing table; its fields
	// (BranchTaken, LoadUse, ... IPointCost) are promoted, so existing
	// cfg.BranchTaken-style accesses keep working.
	timing.Model

	// MaxInstrs aborts runaway programs; 0 means no limit.
	MaxInstrs uint64
}

// NewDefaultConfig returns the timing constants of the reproduction
// platform (see DESIGN.md §5).
func NewDefaultConfig() Config {
	return Config{
		NumWindows: 8,
		Model:      timing.Default(),
		MaxInstrs:  50_000_000,
	}
}

// Counters are the core's performance-monitoring counters. Together with
// the cache counters they reproduce Table I.
type Counters struct {
	Instrs           uint64
	FPUOps           uint64
	Loads            uint64
	Stores           uint64
	Branches         uint64
	TakenBranches    uint64
	Calls            uint64
	WindowOverflows  uint64
	WindowUnderflows uint64
}

// TracePoint is one instrumentation-point record: which ipoint fired and
// at what cycle count (the RVS timestamp, §V).
type TracePoint struct {
	ID     int32
	Cycles mem.Cycles
}

// ErrMaxInstrs is returned when the instruction watchdog fires.
var ErrMaxInstrs = errors.New("cpu: instruction limit exceeded")

// CPU is one LEON3-like core bound to an image and a memory hierarchy.
type CPU struct {
	cfg Config
	img *loader.Image

	// The core's memory fronts: the L1 caches, whose single-line entry
	// points (ReadLine/WriteLine) the hot paths call directly — the
	// core's accesses are aligned words and single bytes, which never
	// straddle a line (New refuses a line shorter than a word) — so the
	// hit fast path inlines, and the TLBs. Attribution does not change
	// them: the core books its own L1 fronts (ifetch, dread, dwrite).
	il1, dl1   *cache.Cache
	itlb, dtlb *tlb.TLB
	data       *Memory

	// Integer register file, flattened: rfile[0:8] are the globals,
	// then NumWindows banks of 16 words each — bank w holds the outs of
	// window w at [8+16w, 8+16w+8) and the locals of window w at
	// [8+16w+8, 8+16w+16). The ins of window w alias the outs of window
	// (w+1)%NumWindows, exactly the SPARC overlap. The final word is a
	// scratch slot: the threaded-code engine redirects %g0 writes there
	// at decode time so the hot path needs no destination check, while
	// rfile[0] (%g0 reads) is never written and stays zero.
	//
	// rbase caches the current window's bank bases indexed by register
	// group (r>>3: globals, outs, locals, ins), so a register access is
	// rfile[rbase[r>>3]+r&7] — one indexed load instead of the previous
	// per-group branch chain. Updated on every window rotate.
	rfile   []uint32
	rbase   [4]int32
	cwp     int
	insIdx  int // (cwp+1)%NumWindows, maintained on every window rotate
	liveWin int // unspilled frames resident in the register file

	fregs [isa.NumFRegs]float32

	iccZ, iccN bool
	fcc        int // -1 less, 0 equal, 1 greater, 2 unordered (NaN)

	pc     mem.Addr
	cycles mem.Cycles
	halted bool
	ctr    Counters
	trace  []TracePoint

	curFn *loader.PlacedFunc // fetch cache

	// Fetch window: while fetchLo <= pc < fetchHi, the instruction at
	// pc is a guaranteed zero-cycle fetch — same IL1 line, same page and
	// same function as a fetch that already ran the full translate+read
	// path — so the engine skips re-translation and re-lookup entirely.
	// The window is the intersection of the IL1 line, the page and
	// curFn's code range, armed by fetchSlow and the engine's inline
	// re-arm and torn down (fetchHi=0) whenever something could
	// invalidate it: Reset, SetImage, and after every call hook (the
	// DSR runtime invalidates IL1 ranges mid-run). Skipping is
	// cycle-exact because IL1 and ITLB hits cost zero cycles, as on the
	// modelled LEON3 (New refuses a non-zero IL1 hit latency; a TLB hit
	// is free by construction).
	fetchLo   mem.Addr
	fetchHi   mem.Addr
	fetchLine mem.Addr // IL1 line size (bytes)

	// callHook, when set, fires on every Call/CallR with the resolved
	// target address before control transfers. The DSR runtime uses it
	// to model lazy relocation (§III.B.1): the hook may charge cycles
	// via AddCycles and issue cache traffic of its own.
	callHook func(target mem.Addr)

	// Threaded-code engine state (decode.go, engine.go): the per-CPU
	// decoded-program cache keyed on (function, layout class), a
	// one-entry lookup cache for the current placement, and the
	// forced-interpreter switch the equivalence suites set.
	decCache    map[decodeKey]*uprog
	lastPf      *loader.PlacedFunc
	lastClass   uint32
	lastP       *uprog
	forceInterp bool

	// att, when set, receives a cycle-attribution booking for every
	// cycle this core charges, partitioning the cycle counter into the
	// components of telemetry.Component under a hard conservation
	// invariant. The core books its own charge points and its L1 fronts,
	// and its TLBs book their translations; the levels below the L1s
	// book themselves when they have the same profiler installed
	// (platform.EnableAttribution wires them).
	att *telemetry.Attribution
}

// New builds a CPU bound to the hierarchy platform.New builds: il1 and
// dl1 are the L1 caches, itlb and dtlb the TLBs (none may be nil), and
// data is the functional store. It panics on a configuration the
// threaded-code engine cannot run cycle-exactly: fewer than 2 or more
// than 15 register windows (beyond 15 the %g0 scratch slot no longer
// fits a µop operand), an IL1 hit latency other than zero (a skipped
// fetch must cost nothing), or an L1 line shorter than a word or
// longer than a page (an access must stay in one line, and a fetch
// window in one page).
func New(cfg Config, img *loader.Image, il1, dl1 *cache.Cache, itlb, dtlb *tlb.TLB, data *Memory) *CPU {
	if cfg.NumWindows < 2 {
		panic("cpu: need at least 2 register windows")
	}
	if 8+16*cfg.NumWindows >= rfileSlots { // the %g0 scratch slot, scratchIdx
		panic(fmt.Sprintf("cpu: %d register windows do not fit the engine's register file", cfg.NumWindows))
	}
	if il1.Config().HitLatency != 0 {
		panic("cpu: the IL1 hit latency must be zero")
	}
	for _, l1 := range []*cache.Cache{il1, dl1} {
		if ls := l1.Config().LineSize; ls < mem.WordSize || ls > mem.PageSize {
			panic(fmt.Sprintf("cpu: %s line size %d outside [%d, %d]", l1.Config().Name, ls, mem.WordSize, mem.PageSize))
		}
	}
	c := &CPU{
		cfg: cfg, img: img,
		il1: il1, dl1: dl1,
		itlb: itlb, dtlb: dtlb,
		data:      data,
		fetchLine: mem.Addr(il1.Config().LineSize),
		// The engine addresses the register file through a fixed-size
		// array pointer with masked indices (engine.go); padding the
		// allocation to that size lets every access elide its bounds
		// check.
		rfile: make([]uint32, rfileSlots),
	}
	c.Reset(0)
	return c
}

// outBase/localBase locate window w's out and local banks in rfile.
func outBase(w int) int32   { return int32(8 + 16*w) }
func localBase(w int) int32 { return int32(8 + 16*w + 8) }

// scratchIdx is the %g0 write-sink slot (see the rfile field comment).
func (c *CPU) scratchIdx() int32 { return int32(8 + 16*c.cfg.NumWindows) }

// setWindowBases rederives rbase from cwp/insIdx after a rotate.
func (c *CPU) setWindowBases() {
	c.rbase[0] = 0
	c.rbase[1] = outBase(c.cwp)
	c.rbase[2] = localBase(c.cwp)
	c.rbase[3] = outBase(c.insIdx)
}

// Reset prepares the core for a run: registers cleared, window state
// reset, PC at the image entry, SP at stackTop. Counters, the cycle
// counter and the trace are cleared too.
func (c *CPU) Reset(stackTop uint32) {
	for i := range c.rfile {
		c.rfile[i] = 0
	}
	c.fregs = [isa.NumFRegs]float32{}
	c.cwp = c.cfg.NumWindows - 1
	c.insIdx = 0 // (cwp+1) % NumWindows
	c.liveWin = 1
	c.setWindowBases()
	c.iccZ, c.iccN = false, false
	c.fcc = 0
	c.pc = c.img.Entry
	c.cycles = 0
	c.halted = false
	c.ctr = Counters{}
	c.trace = c.trace[:0]
	c.curFn = nil
	c.fetchLo, c.fetchHi = 0, 0
	c.setReg(isa.SP, stackTop)
}

// SetImage rebinds the core to a (re-randomised) image without touching
// data memory; used by the DSR runtime after relocation.
func (c *CPU) SetImage(img *loader.Image) {
	c.img = img
	c.pc = img.Entry
	c.curFn = nil
	c.fetchLo, c.fetchHi = 0, 0
	// Drop the one-entry decode lookup: the old image's PlacedFuncs are
	// dead and their addresses could in principle be reused. The decode
	// cache itself survives — it is keyed on the immutable source
	// functions and layout classes, which is what lets a campaign's
	// thousands of reboots share a handful of decoded programs.
	c.lastPf, c.lastP = nil, nil
}

// Cycles returns the execution-time register (cycle counter).
func (c *CPU) Cycles() mem.Cycles { return c.cycles }

// AddCycles charges external latency (e.g. a modelled runtime routine).
// Cycles added from inside the call hook are attributed to the DSR
// runtime component automatically; external callers outside a hook must
// not use AddCycles while attribution is enabled, or the conservation
// invariant breaks.
func (c *CPU) AddCycles(n mem.Cycles) { c.cycles += n }

// Counters returns a snapshot of the performance counters.
func (c *CPU) Counters() Counters { return c.ctr }

// ResetCounters zeroes the performance counters without touching the
// architectural state, the cycle counter or the trace — the PMC-reset
// half of the measurement protocol.
func (c *CPU) ResetCounters() { c.ctr = Counters{} }

// SetAttribution installs (or clears, with nil) the cycle-attribution
// profiler on the core and its TLBs. The core books every cycle it
// charges, L1 front accesses included, and each TLB its page-table
// walks, so the booked total equals the cycle counter exactly. An
// access's latency below the L1 books to CompIL1/CompDL1 unless the
// levels there book themselves into the same profiler, as
// platform.EnableAttribution wires them.
func (c *CPU) SetAttribution(a *telemetry.Attribution) {
	c.att = a
	c.itlb.SetAttribution(a, telemetry.CompITLBWalk)
	c.dtlb.SetAttribution(a, telemetry.CompDTLBWalk)
}

// charge adds n cycles and books them to comp (nothing inside a hushed
// span).
func (c *CPU) charge(comp telemetry.Component, n mem.Cycles) {
	c.cycles += n
	if c.att != nil {
		c.att.Charge(comp, n)
	}
}

// book books n cycles to comp in a (nil-safe) and returns n: the
// engine's charge points add the result to their local cycle counter.
func book(a *telemetry.Attribution, comp telemetry.Component, n mem.Cycles) mem.Cycles {
	a.Charge(comp, n)
	return n
}

// Trace returns the instrumentation points recorded so far.
func (c *CPU) Trace() []TracePoint { return c.trace }

// Halted reports whether the program executed Halt.
func (c *CPU) Halted() bool { return c.halted }

// PC returns the current program counter.
func (c *CPU) PC() mem.Addr { return c.pc }

// Data returns the functional memory.
func (c *CPU) Data() *Memory { return c.data }

// SetCallHook installs (or clears, with nil) the call interception hook.
func (c *CPU) SetCallHook(f func(target mem.Addr)) { c.callHook = f }

// reg reads an integer register in the current window; %g0 reads zero
// (rfile[0] is never written, so the flat access needs no special case).
func (c *CPU) reg(r isa.Reg) uint32 {
	return c.rfile[c.rbase[r>>3]+int32(r&7)]
}

// setReg writes an integer register; writes to %g0 are discarded.
func (c *CPU) setReg(r isa.Reg, v uint32) {
	if r == isa.G0 {
		return
	}
	c.rfile[c.rbase[r>>3]+int32(r&7)] = v
}

// Reg exposes register reads for tests and the RTOS (return values).
func (c *CPU) Reg(r isa.Reg) uint32 { return c.reg(r) }

// FReg exposes FP register reads for tests.
func (c *CPU) FReg(f isa.FReg) float32 { return c.fregs[f] }

func (c *CPU) src2(in *isa.Instr) uint32 {
	if in.UseImm {
		return uint32(in.Imm)
	}
	return c.reg(in.Rs2)
}

// fetchSlow is the exact fetch path: ITLB translation, IL1 read, curFn
// lookup and alignment check. On success it arms the engine's fetch
// window around pc: while pc stays inside it — same IL1 line, same page, same function as the last slow
// fetch — runFast serves instructions without touching the hierarchy.
// Skipping the hierarchy there is cycle- and attribution-exact: a hit
// would charge 0 cycles (so no booking), and the skipped LRU/age touches
// are contiguous repeats of the line/page the slow fetch just touched,
// which cannot change any future victim choice.
func (c *CPU) fetchSlow() (*isa.Instr, error) {
	c.ifetch(c.pc)
	if c.curFn == nil || c.pc < c.curFn.Base || c.pc >= c.curFn.End() {
		c.curFn = c.img.FuncAt(c.pc)
		if c.curFn == nil {
			return nil, fmt.Errorf("cpu: fetch from unmapped address %#x", c.pc)
		}
	}
	off := c.pc - c.curFn.Base
	if off%isa.InstrBytes != 0 {
		return nil, fmt.Errorf("cpu: misaligned pc %#x", c.pc)
	}
	// Window = IL1 line ∩ page ∩ function. The line is resident after
	// the read above, and it lies inside one page: lines are aligned
	// and no larger than a page (New refuses anything else).
	lo := c.pc &^ (c.fetchLine - 1)
	hi := lo + c.fetchLine
	if lo < c.curFn.Base {
		lo = c.curFn.Base
	}
	if end := c.curFn.End(); hi > end {
		hi = end
	}
	c.fetchLo, c.fetchHi = lo, hi
	return &c.curFn.Code[off/isa.InstrBytes], nil
}

// ea is the effective address of a load or store.
func (c *CPU) ea(in *isa.Instr) mem.Addr {
	return mem.Addr(c.reg(in.Rs1) + uint32(in.Imm))
}

// trap and misaligned build exec's trap errors, outlined so its frame
// stays small; misaligned is the trap of a word access whose effective
// address is not word-aligned.
//
//go:noinline
func (c *CPU) trap(what string) error {
	return fmt.Errorf("cpu: %s at pc %#x", what, c.pc)
}

//go:noinline
func (c *CPU) misaligned(in *isa.Instr) error {
	return fmt.Errorf("cpu: misaligned %s at %#x (pc %#x)", in.Op, c.ea(in), c.pc)
}

// ifetch, dread and dwrite are the core's timed accesses — an
// instruction fetch, a data load, a data store — and its only accesses
// to its L1 fronts besides the engine's inline window re-arm; dread and
// dwrite also move the data. Each first translates through its TLB,
// which books its page-table walks itself. ifetch and dread then apply
// the front-booking rule: the L1 access returns its latency lat, and
// lat minus whatever the levels below booked during the same
// synchronous transaction (the change in att.Total()) is booked to
// CompIL1 or CompDL1. The bookings of one access thus add up to exactly
// its latency — the L1's self-latency plus what the levels below book
// themselves — while the fronts stay bare caches whose hit paths inline.
// dwrite books its whole store path in one hushed span instead. The load-use and
// store-issue cycles are not booked here: bookFixed books them in bulk
// from the PMCs.

// ifetch charges the fetch of the instruction at pc: ITLB translation
// and the IL1 read.
func (c *CPU) ifetch(pc mem.Addr) {
	c.cycles += c.itlb.Translate(pc)
	start := c.att.Total()
	lat := c.il1.ReadLine(pc)
	c.att.Charge(telemetry.CompIL1, lat-(c.att.Total()-start))
	c.cycles += lat
}

// dread performs a load of size bytes (a word or a byte) at ea and
// returns the value: it charges DTLB translation, the pipeline's
// load-use cycle and the DL1 read.
func (c *CPU) dread(ea mem.Addr, size int) uint32 {
	c.ctr.Loads++
	c.cycles += c.dtlb.Translate(ea)
	c.cycles += c.cfg.LoadUse
	start := c.att.Total()
	lat := c.dl1.ReadLine(ea)
	c.att.Charge(telemetry.CompDL1, lat-(c.att.Total()-start))
	c.cycles += lat
	if size == 1 {
		return c.data.LoadByte(ea)
	}
	return c.data.LoadWord(ea)
}

// dwrite performs a store of v's low size bytes (a word or a byte) at
// ea: it charges DTLB translation, the store-issue cycles and the
// store-buffer-adjusted write-through cost. The DL1 write, hierarchy
// traffic included, runs in a hushed span that books only the charged
// (not store-buffer-hidden) cycles to CompStorePath, so the booked
// cycles match the charged cycles exactly.
func (c *CPU) dwrite(ea mem.Addr, size int, v uint32) {
	c.ctr.Stores++
	c.cycles += c.dtlb.Translate(ea)
	c.cycles += c.cfg.StoreBase
	c.att.Hush()
	lat := c.dl1.WriteLine(ea, size)
	lat -= min(lat, c.cfg.StoreHidden)
	c.att.Unhush(telemetry.CompStorePath, lat)
	c.cycles += lat
	if size == 1 {
		c.data.StoreByte(ea, v)
	} else {
		c.data.StoreWord(ea, v)
	}
}

// windowWords is the number of words one window spill stores and one
// fill loads: the window's 8 locals, then its 8 ins.
const windowWords = 16

// spillWindow stores the windowWords registers of window w at sp.
// The whole trap — entry/exit overhead plus the store traffic through
// the data cache, DTLB walks included — runs in one hushed span booked
// to the window-trap component, which is how stack placement
// randomisation shows up in the attribution profile.
func (c *CPU) spillWindow(w int, sp uint32) {
	c.ctr.WindowOverflows++
	c.att.Hush()
	start := c.cycles
	c.cycles += c.cfg.TrapOverhead
	base := mem.Addr(sp)
	lb := localBase(w)
	for i := 0; i < windowWords/2; i++ {
		c.dwrite(base+mem.Addr(i)*4, mem.WordSize, c.rfile[lb+int32(i)])
	}
	ib := outBase((w + 1) % c.cfg.NumWindows)
	for i := 0; i < windowWords/2; i++ {
		c.dwrite(base+mem.Addr(32+i*4), mem.WordSize, c.rfile[ib+int32(i)])
	}
	c.att.Unhush(telemetry.CompWindowTrap, c.cycles-start)
}

// fillWindow loads the windowWords registers of window w from sp, in
// a hushed span booked to the window-trap component like spillWindow.
func (c *CPU) fillWindow(w int, sp uint32) {
	c.ctr.WindowUnderflows++
	c.att.Hush()
	start := c.cycles
	c.cycles += c.cfg.TrapOverhead
	base := mem.Addr(sp)
	lb := localBase(w)
	for i := 0; i < windowWords/2; i++ {
		c.rfile[lb+int32(i)] = c.dread(base+mem.Addr(i)*4, mem.WordSize)
	}
	ib := outBase((w + 1) % c.cfg.NumWindows)
	for i := 0; i < windowWords/2; i++ {
		c.rfile[ib+int32(i)] = c.dread(base+mem.Addr(32+i*4), mem.WordSize)
	}
	c.att.Unhush(telemetry.CompWindowTrap, c.cycles-start)
}

// save rotates the window down, handling overflow, and sets the new SP.
func (c *CPU) save(frame, offset uint32) error {
	newSP := c.reg(isa.SP) - frame - offset
	if newSP%mem.DoubleWord != 0 {
		return fmt.Errorf("cpu: save would misalign sp to %#x (frame %d offset %d)", newSP, frame, offset)
	}
	n := c.cfg.NumWindows
	if c.liveWin == n-1 {
		// Overflow: spill the oldest resident frame. Its window is
		// cwp+liveWin-1; its SP lives in that window's %o6.
		wOld := (c.cwp + c.liveWin - 1) % n
		c.spillWindow(wOld, c.rfile[outBase(wOld)+6])
		c.liveWin--
	}
	c.cwp = (c.cwp - 1 + n) % n
	c.insIdx = (c.cwp + 1) % n
	c.liveWin++
	c.setWindowBases()
	c.setReg(isa.SP, newSP)
	return nil
}

// restore rotates the window up, handling underflow.
func (c *CPU) restore() {
	n := c.cfg.NumWindows
	if c.liveWin == 1 {
		// Underflow: the caller's frame was spilled. Its SP is the
		// current frame's %fp (= caller's %o6, physically intact).
		wTgt := (c.cwp + 1) % n
		c.fillWindow(wTgt, c.rfile[outBase(wTgt)+6])
		c.liveWin++
	}
	c.cwp = (c.cwp + 1) % n
	c.insIdx = (c.cwp + 1) % n
	c.liveWin--
	c.setWindowBases()
}

// runCallHook fires the DSR call hook in a hushed span: the hook's own
// cache traffic is part of the modelled runtime routine, not application
// stalls, so the levels' own bookings are dropped and the hook's entire
// cycle delta — AddCycles charges plus direct cache traffic — is booked
// to the DSR runtime component.
func (c *CPU) runCallHook(target mem.Addr) {
	if c.callHook == nil {
		return
	}
	// The hook may invalidate IL1 ranges (lazy relocation), so the
	// fetch window cannot survive it.
	c.fetchLo, c.fetchHi = 0, 0
	c.att.Hush()
	start := c.cycles
	c.callHook(target)
	c.att.Unhush(telemetry.CompDSR, c.cycles-start)
}

// Step executes one instruction: the interpreter, the plain reference
// the engine is tested against. Every fetch takes the exact path
// (fetchSlow). It returns an error on architectural traps the simulator
// treats as fatal (unmapped fetch, misalignment, division by zero) — a
// correct program never triggers them.
func (c *CPU) Step() error {
	if c.halted {
		return errors.New("cpu: step after halt")
	}
	in, err := c.fetchSlow()
	if err != nil {
		return err
	}
	if c.att != nil {
		from := c.ctr
		defer c.bookFixed(&from)
	}
	c.ctr.Instrs++
	c.cycles++ // base cycle
	return c.exec(in)
}

// bookFixed books, in bulk, the fixed-latency cycles charged outside
// hushed spans since the PMC values from: base issue (one cycle per
// retired instruction), the taken-branch penalty, load-use and
// store-issue. Each PMC counts its event exactly; the windowWords loads
// of a fill and stores of a spill are subtracted, because their cycles
// are part of the window-trap span that books them. Step books per
// instruction, the engine once when it returns; exec and the helpers
// book none of these four.
func (c *CPU) bookFixed(from *Counters) {
	a, d := c.att, &c.ctr
	loads := d.Loads - from.Loads - windowWords*(d.WindowUnderflows-from.WindowUnderflows)
	stores := d.Stores - from.Stores - windowWords*(d.WindowOverflows-from.WindowOverflows)
	a.Charge(telemetry.CompBaseIssue, mem.Cycles(d.Instrs-from.Instrs))
	a.Charge(telemetry.CompBranch, mem.Cycles(d.TakenBranches-from.TakenBranches)*c.cfg.BranchTaken)
	a.Charge(telemetry.CompLoadStore, mem.Cycles(loads)*c.cfg.LoadUse+mem.Cycles(stores)*c.cfg.StoreBase)
}

// exec executes in, the instruction at c.pc whose base issue cycle is
// already charged, and advances c.pc. It is the one definition of
// every opcode's values, counters and charge points: Step runs every
// instruction through it, the engine every opcode outside its fused ALU
// runs and hot families, and for those families exec and the engine's
// arms call the same helpers (below). A trap returns before any state
// changes, c.pc included.
func (c *CPU) exec(in *isa.Instr) error {
	next := c.pc + isa.InstrBytes
	switch in.Op {
	case isa.Nop:
	case isa.Halt:
		c.halted = true

	case isa.Add:
		c.setReg(in.Rd, c.reg(in.Rs1)+c.src2(in))
	case isa.Sub:
		c.setReg(in.Rd, c.reg(in.Rs1)-c.src2(in))
	case isa.And:
		c.setReg(in.Rd, c.reg(in.Rs1)&c.src2(in))
	case isa.Or:
		c.setReg(in.Rd, c.reg(in.Rs1)|c.src2(in))
	case isa.Xor:
		c.setReg(in.Rd, c.reg(in.Rs1)^c.src2(in))
	case isa.Sll:
		c.setReg(in.Rd, c.reg(in.Rs1)<<(c.src2(in)&31))
	case isa.Srl:
		c.setReg(in.Rd, c.reg(in.Rs1)>>(c.src2(in)&31))
	case isa.Sra:
		c.setReg(in.Rd, uint32(int32(c.reg(in.Rs1))>>(c.src2(in)&31)))
	case isa.Mul:
		v, n := c.mul(c.reg(in.Rs1), c.src2(in))
		c.setReg(in.Rd, v)
		c.cycles += n
	case isa.Div:
		d := int32(c.src2(in))
		if d == 0 {
			return c.trap("division by zero")
		}
		c.charge(telemetry.CompIntOp, c.cfg.DivLatency)
		c.setReg(in.Rd, uint32(int32(c.reg(in.Rs1))/d))

	case isa.Cmp:
		a, b := int32(c.reg(in.Rs1)), int32(c.src2(in))
		c.iccZ = a == b
		c.iccN = a < b

	case isa.Set:
		c.setReg(in.Rd, uint32(in.Imm))
	case isa.Mov:
		c.setReg(in.Rd, c.src2(in))

	case isa.Ld:
		v, ok := c.ld(c.ea(in))
		if !ok {
			return c.misaligned(in)
		}
		c.setReg(in.Rd, v)
	case isa.Ldub:
		c.setReg(in.Rd, c.dread(c.ea(in), 1))
	case isa.St:
		if !c.st(c.ea(in), c.reg(in.Rd)) {
			return c.misaligned(in)
		}
	case isa.Stb:
		c.dwrite(c.ea(in), 1, c.reg(in.Rd))
	case isa.FLd:
		v, ok := c.ld(c.ea(in))
		if !ok {
			return c.misaligned(in)
		}
		c.fregs[in.FRd] = math.Float32frombits(v)
	case isa.FSt:
		if !c.st(c.ea(in), math.Float32bits(c.fregs[in.FRs2])) {
			return c.misaligned(in)
		}

	case isa.Fadd:
		v, n := c.fadd(c.fregs[in.FRs1], c.fregs[in.FRs2])
		c.fregs[in.FRd] = v
		c.cycles += n
	case isa.Fsub:
		v, n := c.fsub(c.fregs[in.FRs1], c.fregs[in.FRs2])
		c.fregs[in.FRd] = v
		c.cycles += n
	case isa.Fmul:
		v, n := c.fmul(c.fregs[in.FRs1], c.fregs[in.FRs2])
		c.fregs[in.FRd] = v
		c.cycles += n
	case isa.Fdiv:
		c.cycles += c.fpu(c.cfg.FDivLatency)
		c.charge(telemetry.CompFPUJitter, c.cfg.Jitter(c.fregs[in.FRs2]))
		c.fregs[in.FRd] = c.fregs[in.FRs1] / c.fregs[in.FRs2]
	case isa.Fsqrt:
		c.cycles += c.fpu(c.cfg.FSqrtLatency)
		c.charge(telemetry.CompFPUJitter, c.cfg.Jitter(c.fregs[in.FRs2]))
		c.fregs[in.FRd] = float32(math.Sqrt(float64(c.fregs[in.FRs2])))
	case isa.Fcmp:
		c.cycles += c.fpu(c.cfg.FAddLatency)
		a, b := c.fregs[in.FRs1], c.fregs[in.FRs2]
		switch {
		case a != a || b != b:
			// SPARC sets the "unordered" condition for NaN operands; the
			// ordered branches (fbl/fbg/fbe) are not taken on it.
			c.fcc = 2
		case a == b:
			c.fcc = 0
		case a < b:
			c.fcc = -1
		default:
			c.fcc = 1
		}
	case isa.Fitos:
		c.cycles += c.fpu(c.cfg.FAddLatency)
		c.fregs[in.FRd] = float32(int32(math.Float32bits(c.fregs[in.FRs2])))
	case isa.Fstoi:
		c.cycles += c.fpu(c.cfg.FAddLatency)
		c.fregs[in.FRd] = math.Float32frombits(uint32(int32(c.fregs[in.FRs2])))

	case isa.Ba, isa.Be, isa.Bne, isa.Bl, isa.Ble, isa.Bg, isa.Bge,
		isa.Fbe, isa.Fbne, isa.Fbl, isa.Fbg:
		if c.branch(in.Op) {
			c.cycles += c.takeBranch()
			next = c.pc + mem.Addr(int64(in.Disp)*isa.InstrBytes)
		}

	case isa.Call:
		c.ctr.Calls++
		c.setReg(isa.O7, uint32(c.pc))
		next = mem.Addr(uint32(in.Imm))
		c.runCallHook(next)
	case isa.CallR:
		c.ctr.Calls++
		tgt := c.reg(in.Rs1)
		c.setReg(isa.O7, uint32(c.pc))
		next = mem.Addr(tgt)
		c.runCallHook(next)
	case isa.Ret:
		ret := c.reg(isa.I7)
		c.restore()
		next = mem.Addr(ret) + isa.InstrBytes
	case isa.RetL:
		next = mem.Addr(c.reg(isa.O7)) + isa.InstrBytes

	case isa.Save:
		if err := c.save(uint32(in.Imm), 0); err != nil {
			return err
		}
	case isa.SaveX:
		if err := c.save(uint32(in.Imm), c.reg(in.Rs2)); err != nil {
			return err
		}
	case isa.Restore:
		c.restore()

	case isa.IPoint:
		c.charge(telemetry.CompIPoint, c.cfg.IPointCost)
		c.trace = append(c.trace, TracePoint{ID: in.Imm, Cycles: c.cycles})

	default:
		return c.trap("unimplemented op " + in.Op.String())
	}
	c.pc = next
	return nil
}

// The helpers below are the semantics of the engine's hot families:
// multiply, FP add/sub/mul, branches and word loads and stores (byte
// accesses call dread and dwrite directly). exec and the engine's arms
// for these families (engine.go) both call them, and each is small
// enough to inline into the engine. A latency comes back as a cycle
// count for the caller to add to whichever cycle counter it keeps,
// already booked to its component (the taken-branch penalty by
// bookFixed, in bulk); the memory helpers charge c.cycles through dread
// and dwrite.

// mul is the integer multiply: the product and its latency.
func (c *CPU) mul(a, b uint32) (uint32, mem.Cycles) {
	return uint32(int32(a) * int32(b)), book(c.att, telemetry.CompIntOp, c.cfg.MulLatency)
}

// fpu counts an FPU operation and books its base latency lat.
func (c *CPU) fpu(lat mem.Cycles) mem.Cycles {
	c.ctr.FPUOps++
	return book(c.att, telemetry.CompFPUBase, lat)
}

func (c *CPU) fadd(a, b float32) (float32, mem.Cycles) { return a + b, c.fpu(c.cfg.FAddLatency) }
func (c *CPU) fsub(a, b float32) (float32, mem.Cycles) { return a - b, c.fpu(c.cfg.FAddLatency) }
func (c *CPU) fmul(a, b float32) (float32, mem.Cycles) { return a * b, c.fpu(c.cfg.FMulLatency) }

// branch counts a branch and reports whether op is taken in the
// current condition state; takeBranch counts a taken one and returns
// its penalty, which bookFixed books from the count.
func (c *CPU) branch(op isa.Op) bool {
	c.ctr.Branches++
	s := uint(c.fcc+1) << 2
	if c.iccZ {
		s |= 1
	}
	if c.iccN {
		s |= 2
	}
	return branchTable[op]>>(s&15)&1 != 0
}

func (c *CPU) takeBranch() mem.Cycles {
	c.ctr.TakenBranches++
	return c.cfg.BranchTaken
}

// ld and st are the timed word load and store at ea. On a misaligned
// ea they return false without side effects, and the caller raises the
// trap.
func (c *CPU) ld(ea mem.Addr) (uint32, bool) {
	if ea&(mem.WordSize-1) != 0 {
		return 0, false
	}
	return c.dread(ea, mem.WordSize), true
}

func (c *CPU) st(ea mem.Addr, v uint32) bool {
	if ea&(mem.WordSize-1) != 0 {
		return false
	}
	c.dwrite(ea, mem.WordSize, v)
	return true
}

// branchTable[op] has bit s set when branch op is taken in condition
// state s = iccZ | iccN<<1 | (fcc+1)<<2: the branch conditions,
// tabulated once so that branch is a shift and inlines into the engine.
// It spans every uint8, so indexing it by an isa.Op needs no bounds
// check.
var branchTable = func() (t [1 << 8]uint16) {
	for s := 0; s < 16; s++ {
		z, n, fcc := s&1 != 0, s&2 != 0, s>>2-1
		for op, taken := range map[isa.Op]bool{
			isa.Ba:  true,
			isa.Be:  z,
			isa.Bne: !z,
			isa.Bl:  n,
			isa.Ble: n || z,
			isa.Bg:  !n && !z,
			isa.Bge: !n,
			isa.Fbe: fcc == 0,
			// SPARC FBNE is "unordered or not equal": taken on NaN.
			isa.Fbne: fcc != 0,
			isa.Fbl:  fcc == -1,
			isa.Fbg:  fcc == 1,
		} {
			if taken {
				t[op] |= 1 << s
			}
		}
	}
	return t
}()

// Run executes until Halt, an error, or the instruction watchdog.
// It returns the cycle counter value at halt.
func (c *CPU) Run() (mem.Cycles, error) { return c.RunBudget(NoBudget) }

// RunBudget executes until Halt or until the cycle counter reaches
// budget — the RTOS partition-window enforcement. Check Halted() to see
// whether the program completed within its budget.
func (c *CPU) RunBudget(budget mem.Cycles) (mem.Cycles, error) {
	if c.engineOK() {
		return c.cycles, c.runFast(budget)
	}
	for !c.halted && c.cycles < budget {
		if c.cfg.MaxInstrs > 0 && c.ctr.Instrs >= c.cfg.MaxInstrs {
			return c.cycles, ErrMaxInstrs
		}
		if err := c.Step(); err != nil {
			return c.cycles, err
		}
	}
	return c.cycles, nil
}
