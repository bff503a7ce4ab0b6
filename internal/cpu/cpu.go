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

	icache mem.Backend
	dcache mem.Backend
	itlb   *tlb.TLB // may be nil
	dtlb   *tlb.TLB // may be nil
	data   *Memory

	// icacheC/dcacheC are the L1 fronts devirtualised: when a front is a
	// concrete *cache.Cache whose line size is at least a word, the hot
	// paths call its single-line entry points (ReadLine/WriteLine)
	// directly — the CPU's accesses are aligned words and single bytes,
	// which then never straddle a line — so the hit fast path inlines
	// instead of paying a mem.Backend interface dispatch per access.
	// They are nil whenever the front is anything else. Attribution does
	// not change them: the CPU books its own L1 fronts (ifetch, dread,
	// dwrite). Set by bindFronts.
	icacheC *cache.Cache
	dcacheC *cache.Cache

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

	// Fetch fast-path window: while fetchLo <= pc < fetchHi, the
	// instruction at pc is a guaranteed zero-cycle fetch — same IL1
	// line, same page and same function as a fetch that already ran the
	// full translate+read path — so fetch skips re-translation and
	// re-lookup entirely. The window is the intersection of the IL1
	// line, the page and curFn's code range, armed by fetchSlow and
	// torn down (fetchHi=0) whenever something could invalidate it:
	// Reset, SetImage, and after every call hook (the
	// DSR runtime invalidates IL1 ranges mid-run). fetchZero gates the
	// whole mechanism: it is set only when skipping is provably
	// cycle-exact (IL1 and ITLB hit latencies both zero, as on the
	// modelled LEON3).
	fetchLo   mem.Addr
	fetchHi   mem.Addr
	fetchLine mem.Addr // IL1 line size (bytes); 0 if fetchZero is false
	fetchZero bool

	// callHook, when set, fires on every Call/CallR with the resolved
	// target address before control transfers. The DSR runtime uses it
	// to model lazy relocation (§III.B.1): the hook may charge cycles
	// via AddCycles and issue cache traffic of its own.
	callHook func(target mem.Addr)

	// Threaded-code engine state (decode.go, engine.go): the per-CPU
	// decoded-program cache keyed on (function, layout class), a
	// one-entry lookup cache for the current placement, and the
	// forced-interpreter switch used by the equivalence suites.
	decCache    map[decodeKey]*uprog
	lastPf      *loader.PlacedFunc
	lastClass   uint32
	lastP       *uprog
	forceInterp bool

	// att, when set, receives a cycle-attribution booking for every
	// cycle this core charges, partitioning the cycle counter into the
	// components of telemetry.Component under a hard conservation
	// invariant. The core books its own charge points and its L1 fronts;
	// the levels below the L1s book themselves when they are
	// telemetry.Probe chains (platform.EnableAttribution wires them).
	att *telemetry.Attribution
}

// New builds a CPU. icache and dcache are the L1 fronts of the memory
// hierarchy; itlb/dtlb may be nil to disable address translation costs;
// data is the functional store.
func New(cfg Config, img *loader.Image, icache, dcache mem.Backend, itlb, dtlb *tlb.TLB, data *Memory) *CPU {
	if cfg.NumWindows < 2 {
		panic("cpu: need at least 2 register windows")
	}
	c := &CPU{
		cfg: cfg, img: img,
		icache: icache, dcache: dcache,
		itlb: itlb, dtlb: dtlb,
		data: data,
	}
	size := 8 + 16*cfg.NumWindows + 1
	if size < rfileSlots {
		// The engine addresses the register file through a fixed-size
		// array pointer with masked indices (engine.go); padding the
		// allocation to that size lets every access elide its bounds
		// check.
		size = rfileSlots
	}
	c.rfile = make([]uint32, size)
	c.bindFronts()
	c.Reset(0)
	return c
}

// bindFronts derives everything the hot paths precompute from the
// memory fronts: the devirtualised concrete-cache pointers and the
// fetch fast-path gate. The gate requires proof that a skipped fetch
// would have charged zero cycles: the IL1 front must be a concrete
// cache with hit latency zero, and so must the ITLB if present.
// Anything unprovable — an unknown backend type, non-zero latencies —
// leaves the gate closed and every fetch on the exact slow path.
func (c *CPU) bindFronts() {
	if cc, ok := c.icache.(*cache.Cache); ok && cc.Config().LineSize >= mem.WordSize {
		c.icacheC = cc
	}
	if cc, ok := c.dcache.(*cache.Cache); ok && cc.Config().LineSize >= mem.WordSize {
		c.dcacheC = cc
	}
	il1 := c.icacheC
	if il1 == nil || il1.Config().HitLatency != 0 {
		return
	}
	if c.itlb != nil && c.itlb.Config().HitLatency != 0 {
		return
	}
	c.fetchZero = true
	c.fetchLine = mem.Addr(il1.Config().LineSize)
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
// profiler. The core books every cycle it charges, its L1 front
// accesses included, so the booked total equals the cycle counter
// exactly whatever the memory fronts are. Without probes, an access's
// whole hierarchy latency books to CompIL1/CompDL1; to split it per
// level, wrap the levels below the L1s in telemetry.Probe chains
// booking into the same profiler, as platform.EnableAttribution does.
func (c *CPU) SetAttribution(a *telemetry.Attribution) { c.att = a }

// charge adds n cycles and books them to comp (or the active override).
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

// translate performs a TLB translation and returns its cost, booking
// all of it — hit latency plus any page-table walk traffic — to comp.
func (c *CPU) translate(t *tlb.TLB, addr mem.Addr, comp telemetry.Component) mem.Cycles {
	if t == nil {
		return 0
	}
	if c.att == nil {
		return t.Translate(addr)
	}
	prev, eff := c.att.SetOverride(comp)
	start := c.att.Total()
	lat := t.Translate(addr)
	// The walk traffic booked lat-(hit latency); book the remainder.
	c.att.Charge(eff, lat-(c.att.Total()-start))
	c.att.ClearOverride(prev)
	return lat
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

// SetRegister exposes register writes for run setup (arguments).
func (c *CPU) SetRegister(r isa.Reg, v uint32) { c.setReg(r, v) }

// FReg exposes FP register reads for tests.
func (c *CPU) FReg(f isa.FReg) float32 { return c.fregs[f] }

func (c *CPU) src2(in *isa.Instr) uint32 {
	if in.UseImm {
		return uint32(in.Imm)
	}
	return c.reg(in.Rs2)
}

// fetchSlow is the exact fetch path: ITLB translation, IL1 read, curFn
// lookup and alignment check. On success it re-arms the fast-path
// window around pc when the fetchZero gate is open. The fast path
// itself lives inline in Step: while pc stays inside the armed window —
// same IL1 line, same page, same function as the last slow fetch — the
// fetch is a guaranteed zero-cycle IL1/ITLB hit and the instruction is
// served by one bounds compare and an index into curFn.Code. Skipping
// the hierarchy there is cycle- and attribution-exact: a hit would
// charge 0 cycles (so no booking), and the skipped LRU/age touches are
// contiguous repeats of the line/page the slow fetch just touched,
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
	if c.fetchZero {
		// Window = IL1 line ∩ page ∩ function. The line is resident
		// after the read above; lines are aligned and no larger than a
		// page, but clamp to the page anyway so the invariant never
		// depends on that configuration detail.
		lo := c.pc &^ (c.fetchLine - 1)
		hi := lo + c.fetchLine
		if pageEnd := (c.pc | (mem.PageSize - 1)) + 1; hi > pageEnd {
			hi = pageEnd
		}
		if lo < c.curFn.Base {
			lo = c.curFn.Base
		}
		if end := c.curFn.End(); hi > end {
			hi = end
		}
		c.fetchLo, c.fetchHi = lo, hi
	}
	return &c.curFn.Code[off/isa.InstrBytes], nil
}

// dataAddr computes and validates an effective address. The alignment
// reduction ea&(align-1) is exact for the power-of-two alignments the
// ISA uses (1 and WordSize); the error construction is outlined so the
// common case stays small.
func (c *CPU) dataAddr(in *isa.Instr, align mem.Addr) (mem.Addr, error) {
	ea := mem.Addr(c.reg(in.Rs1) + uint32(in.Imm))
	if align > 1 && ea&(align-1) != 0 {
		return 0, c.misalignedData(in, ea)
	}
	return ea, nil
}

//go:noinline
func (c *CPU) misalignedData(in *isa.Instr, ea mem.Addr) error {
	return fmt.Errorf("cpu: misaligned %s at %#x (pc %#x)", in.Op, ea, c.pc)
}

// ifetch, dread and dwrite charge the core's timed accesses — an
// instruction fetch, a data load, a data store — and are its only
// accesses to its L1 fronts. Each books its translation through
// translate and then applies the front-booking rule: the L1 access
// returns its latency lat, and lat minus whatever the levels below
// booked during the same synchronous transaction (the change in
// att.Total()) is booked to CompIL1 or CompDL1, or to the active
// override. The bookings of one access thus add up to exactly its
// latency — the self-latency a telemetry.Probe in front of the L1
// would book — while the fronts stay bare caches, devirtualised through
// icacheC/dcacheC and eligible for the engine's inline window re-arm.

// ifetch charges the fetch of the instruction at pc: ITLB translation
// and the IL1 read.
func (c *CPU) ifetch(pc mem.Addr) {
	c.cycles += c.translate(c.itlb, pc, telemetry.CompITLBWalk)
	start := c.att.Total()
	var lat mem.Cycles
	if c.icacheC != nil {
		lat = c.icacheC.ReadLine(pc)
	} else {
		lat = c.icache.Read(pc, isa.InstrBytes)
	}
	c.att.Charge(telemetry.CompIL1, lat-(c.att.Total()-start))
	c.cycles += lat
}

// dread charges a load of size bytes at ea: DTLB translation, the
// pipeline's load-use cycle and the DL1 read.
func (c *CPU) dread(ea mem.Addr, size int) {
	c.ctr.Loads++
	c.cycles += c.translate(c.dtlb, ea, telemetry.CompDTLBWalk)
	c.charge(telemetry.CompLoadStore, c.cfg.LoadUse)
	start := c.att.Total()
	var lat mem.Cycles
	if c.dcacheC != nil {
		lat = c.dcacheC.ReadLine(ea)
	} else {
		lat = c.dcache.Read(ea, size)
	}
	c.att.Charge(telemetry.CompDL1, lat-(c.att.Total()-start))
	c.cycles += lat
}

// dwrite charges a store of size bytes at ea: DTLB translation, the
// store-issue cycles and the store-buffer-adjusted write-through cost.
// With attribution the DL1 write, hierarchy traffic included, books
// under the store-path override, and the store-buffer-hidden portion —
// booked but never charged — is rebated, so the booked cycles match
// the charged cycles exactly.
func (c *CPU) dwrite(ea mem.Addr, size int) {
	c.ctr.Stores++
	c.cycles += c.translate(c.dtlb, ea, telemetry.CompDTLBWalk)
	c.charge(telemetry.CompLoadStore, c.cfg.StoreBase)
	prev, eff := c.att.SetOverride(telemetry.CompStorePath)
	start := c.att.Total()
	var lat mem.Cycles
	if c.dcacheC != nil {
		lat = c.dcacheC.WriteLine(ea, size)
	} else {
		lat = c.dcache.Write(ea, size)
	}
	c.att.Charge(telemetry.CompDL1, lat-(c.att.Total()-start))
	hidden := min(lat, c.cfg.StoreHidden)
	if c.att != nil {
		c.att.Rebate(eff, hidden)
		c.att.ClearOverride(prev)
	}
	c.cycles += lat - hidden
}

// loadWord performs a timed word load.
func (c *CPU) loadWord(ea mem.Addr) uint32 {
	c.dread(ea, mem.WordSize)
	return c.data.LoadWord(ea)
}

// storeWord performs a timed word store.
func (c *CPU) storeWord(ea mem.Addr, v uint32) {
	c.dwrite(ea, mem.WordSize)
	c.data.StoreWord(ea, v)
}

// spillWindow stores 16 registers (locals then ins) of window w at sp.
// With attribution enabled the whole trap — entry/exit overhead plus the
// 16-word store traffic through the data cache — is booked to the
// window-trap component, which is how stack placement randomisation
// shows up in the attribution profile.
func (c *CPU) spillWindow(w int, sp uint32) {
	c.ctr.WindowOverflows++
	prev, _ := c.att.SetOverride(telemetry.CompWindowTrap)
	c.charge(telemetry.CompWindowTrap, c.cfg.TrapOverhead)
	base := mem.Addr(sp)
	lb := localBase(w)
	for i := 0; i < 8; i++ {
		c.storeWord(base+mem.Addr(i)*4, c.rfile[lb+int32(i)])
	}
	ib := outBase((w + 1) % c.cfg.NumWindows)
	for i := 0; i < 8; i++ {
		c.storeWord(base+mem.Addr(32+i*4), c.rfile[ib+int32(i)])
	}
	c.att.ClearOverride(prev)
}

// fillWindow loads 16 registers of window w from sp.
func (c *CPU) fillWindow(w int, sp uint32) {
	c.ctr.WindowUnderflows++
	prev, _ := c.att.SetOverride(telemetry.CompWindowTrap)
	c.charge(telemetry.CompWindowTrap, c.cfg.TrapOverhead)
	base := mem.Addr(sp)
	lb := localBase(w)
	for i := 0; i < 8; i++ {
		c.rfile[lb+int32(i)] = c.loadWord(base + mem.Addr(i)*4)
	}
	ib := outBase((w + 1) % c.cfg.NumWindows)
	for i := 0; i < 8; i++ {
		c.rfile[ib+int32(i)] = c.loadWord(base + mem.Addr(32+i*4))
	}
	c.att.ClearOverride(prev)
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

// runCallHook fires the DSR call hook. With attribution enabled, probe
// bookings are suspended for the duration (the hook's own cache traffic
// is part of the modelled runtime routine, not application stalls) and
// the hook's entire cycle delta — AddCycles charges plus direct cache
// traffic — is booked to the DSR runtime component.
func (c *CPU) runCallHook(target mem.Addr) {
	if c.callHook == nil {
		return
	}
	// The hook may invalidate IL1 ranges (lazy relocation), so the
	// fetch fast-path window cannot survive it.
	c.fetchLo, c.fetchHi = 0, 0
	if c.att == nil {
		c.callHook(target)
		return
	}
	c.att.Suspend()
	base := c.cycles
	c.callHook(target)
	c.att.Resume()
	c.att.Charge(telemetry.CompDSR, c.cycles-base)
}

// Step executes one instruction. It returns an error on architectural
// traps the simulator treats as fatal (unmapped fetch, misalignment,
// division by zero) — a correct program never triggers them.
func (c *CPU) Step() error {
	if c.halted {
		return errors.New("cpu: step after halt")
	}
	// Fetch: the fast-path window check is inlined here so the common
	// case (straight-line code within one IL1 line) costs no call.
	var in *isa.Instr
	if pc := c.pc; pc >= c.fetchLo && pc < c.fetchHi && pc&(isa.InstrBytes-1) == 0 {
		in = &c.curFn.Code[(pc-c.curFn.Base)/isa.InstrBytes]
	} else {
		var err error
		if in, err = c.fetchSlow(); err != nil {
			return err
		}
	}
	c.ctr.Instrs++
	c.charge(telemetry.CompBaseIssue, 1) // base cycle
	// FPUOps is counted inside the FPU opcode cases below (the set
	// matched by isa.Op.IsFPU) rather than testing every instruction
	// here — the dispatch switch already discriminates the opcode.
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
		c.charge(telemetry.CompIntOp, c.cfg.MulLatency)
		c.setReg(in.Rd, uint32(int32(c.reg(in.Rs1))*int32(c.src2(in))))
	case isa.Div:
		d := int32(c.src2(in))
		if d == 0 {
			return fmt.Errorf("cpu: division by zero at pc %#x", c.pc)
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
		ea, err := c.dataAddr(in, mem.WordSize)
		if err != nil {
			return err
		}
		c.setReg(in.Rd, c.loadWord(ea))
	case isa.Ldub:
		ea, _ := c.dataAddr(in, 1)
		c.dread(ea, 1)
		c.setReg(in.Rd, c.data.LoadByte(ea))
	case isa.St:
		ea, err := c.dataAddr(in, mem.WordSize)
		if err != nil {
			return err
		}
		c.storeWord(ea, c.reg(in.Rd))
	case isa.Stb:
		ea, _ := c.dataAddr(in, 1)
		c.dwrite(ea, 1)
		c.data.StoreByte(ea, c.reg(in.Rd))

	case isa.FLd:
		ea, err := c.dataAddr(in, mem.WordSize)
		if err != nil {
			return err
		}
		c.fregs[in.FRd] = math.Float32frombits(c.loadWord(ea))
	case isa.FSt:
		ea, err := c.dataAddr(in, mem.WordSize)
		if err != nil {
			return err
		}
		c.storeWord(ea, math.Float32bits(c.fregs[in.FRs2]))

	case isa.Fadd:
		c.ctr.FPUOps++
		c.charge(telemetry.CompFPUBase, c.cfg.FAddLatency)
		c.fregs[in.FRd] = c.fregs[in.FRs1] + c.fregs[in.FRs2]
	case isa.Fsub:
		c.ctr.FPUOps++
		c.charge(telemetry.CompFPUBase, c.cfg.FAddLatency)
		c.fregs[in.FRd] = c.fregs[in.FRs1] - c.fregs[in.FRs2]
	case isa.Fmul:
		c.ctr.FPUOps++
		c.charge(telemetry.CompFPUBase, c.cfg.FMulLatency)
		c.fregs[in.FRd] = c.fregs[in.FRs1] * c.fregs[in.FRs2]
	case isa.Fdiv:
		c.ctr.FPUOps++
		c.charge(telemetry.CompFPUBase, c.cfg.FDivLatency)
		c.charge(telemetry.CompFPUJitter, c.cfg.Jitter(c.fregs[in.FRs2]))
		c.fregs[in.FRd] = c.fregs[in.FRs1] / c.fregs[in.FRs2]
	case isa.Fsqrt:
		c.ctr.FPUOps++
		c.charge(telemetry.CompFPUBase, c.cfg.FSqrtLatency)
		c.charge(telemetry.CompFPUJitter, c.cfg.Jitter(c.fregs[in.FRs2]))
		c.fregs[in.FRd] = float32(math.Sqrt(float64(c.fregs[in.FRs2])))
	case isa.Fcmp:
		c.ctr.FPUOps++
		c.charge(telemetry.CompFPUBase, c.cfg.FAddLatency)
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
		c.ctr.FPUOps++
		c.charge(telemetry.CompFPUBase, c.cfg.FAddLatency)
		c.fregs[in.FRd] = float32(int32(math.Float32bits(c.fregs[in.FRs2])))
	case isa.Fstoi:
		c.ctr.FPUOps++
		c.charge(telemetry.CompFPUBase, c.cfg.FAddLatency)
		c.fregs[in.FRd] = math.Float32frombits(uint32(int32(c.fregs[in.FRs2])))

	case isa.Ba, isa.Be, isa.Bne, isa.Bl, isa.Ble, isa.Bg, isa.Bge,
		isa.Fbe, isa.Fbne, isa.Fbl, isa.Fbg:
		c.ctr.Branches++
		if c.branchTaken(in.Op) {
			c.ctr.TakenBranches++
			c.charge(telemetry.CompBranch, c.cfg.BranchTaken)
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
		return fmt.Errorf("cpu: unimplemented op %s at pc %#x", in.Op, c.pc)
	}

	c.pc = next
	return nil
}

func (c *CPU) branchTaken(op isa.Op) bool {
	switch op {
	case isa.Ba:
		return true
	case isa.Be:
		return c.iccZ
	case isa.Bne:
		return !c.iccZ
	case isa.Bl:
		return c.iccN
	case isa.Ble:
		return c.iccN || c.iccZ
	case isa.Bg:
		return !c.iccN && !c.iccZ
	case isa.Bge:
		return !c.iccN
	case isa.Fbe:
		return c.fcc == 0
	case isa.Fbne:
		// SPARC FBNE is "unordered or not equal": taken on NaN.
		return c.fcc != 0
	case isa.Fbl:
		return c.fcc == -1
	case isa.Fbg:
		return c.fcc == 1
	default:
		panic("cpu: not a branch")
	}
}

// Run executes until Halt, an error, or the instruction watchdog.
// It returns the cycle counter value at halt.
func (c *CPU) Run() (mem.Cycles, error) {
	if c.engineOK() {
		return c.cycles, c.runFast(noBudget)
	}
	for !c.halted {
		if c.cfg.MaxInstrs > 0 && c.ctr.Instrs >= c.cfg.MaxInstrs {
			return c.cycles, ErrMaxInstrs
		}
		if err := c.Step(); err != nil {
			return c.cycles, err
		}
	}
	return c.cycles, nil
}

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
