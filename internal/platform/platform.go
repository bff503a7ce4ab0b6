// Package platform composes the full PROXIMA LEON3 target of Fig. 1:
// the core, split first-level caches, the AMBA bus, the unified
// direct-mapped L2, the SDRAM controller, and the I/D TLBs. It offers the
// measurement protocol primitives the paper's setup provides through
// PikeOS and GRMON: loading an image out-of-band, flushing caches and
// TLBs to a canonical state, and running a program while collecting the
// performance-monitoring counters of Table I.
package platform

import (
	"fmt"

	"dsr/internal/bus"
	"dsr/internal/cache"
	"dsr/internal/cpu"
	"dsr/internal/dram"
	"dsr/internal/isa"
	"dsr/internal/loader"
	"dsr/internal/mem"
	"dsr/internal/telemetry"
	"dsr/internal/tlb"
)

// Config assembles the per-component configurations.
type Config struct {
	CPU  cpu.Config
	IL1  cache.Config
	DL1  cache.Config
	L2   cache.Config
	ITLB tlb.Config
	DTLB tlb.Config
	Bus  bus.Config
	DRAM dram.Config

	// StackTop is the initial stack pointer (grows down).
	StackTop uint32
	// PageTableBase is where TLB walks read from.
	PageTableBase mem.Addr
}

// ProximaLEON3 returns the reproduction of the paper's platform
// (§III.A): 16KB 4-way L1s (write-through, no-write-allocate data
// cache), 32KB direct-mapped write-back unified L2, 64-entry TLBs,
// LRU/modulo COTS caches.
func ProximaLEON3() Config {
	return Config{
		CPU: cpu.NewDefaultConfig(),
		IL1: cache.Config{
			Name: "IL1", Size: 16 * 1024, LineSize: 32, Ways: 4,
			HitLatency: 0, Placement: cache.PlacementModulo,
			Replacement: cache.ReplacementLRU, Write: cache.WriteBackAllocate,
		},
		DL1: cache.Config{
			Name: "DL1", Size: 16 * 1024, LineSize: 16, Ways: 4,
			HitLatency: 0, Placement: cache.PlacementModulo,
			Replacement: cache.ReplacementLRU, Write: cache.WriteThroughNoAllocate,
		},
		L2: cache.Config{
			Name: "L2", Size: 32 * 1024, LineSize: 32, Ways: 1,
			HitLatency: 6, Placement: cache.PlacementModulo,
			Replacement: cache.ReplacementLRU, Write: cache.WriteBackAllocate,
		},
		ITLB: tlb.Config{Name: "ITLB", Entries: 64, WalkReads: 3, HitLatency: 0},
		DTLB: tlb.Config{Name: "DTLB", Entries: 64, WalkReads: 3, HitLatency: 0},
		Bus:  bus.Config{Name: "AHB", ReadLatency: 2, WriteLatency: 2},
		DRAM: dram.Config{Name: "SDRAM", AccessLatency: 20, PerWord: 2},

		StackTop:      0x6000_0000,
		PageTableBase: 0x7000_0000,
	}
}

// HWRandLEON3 returns the hardware time-randomised variant used by the
// A4 ablation: the same geometry with parametric-hash random placement
// and random replacement in every cache (the MBPTA-compliant hardware
// the software randomisation substitutes for).
func HWRandLEON3() Config {
	cfg := ProximaLEON3()
	for _, c := range []*cache.Config{&cfg.IL1, &cfg.DL1, &cfg.L2} {
		c.Placement = cache.PlacementHashRandom
		c.Replacement = cache.ReplacementRandom
	}
	return cfg
}

// Platform is an assembled machine.
type Platform struct {
	Cfg  Config
	CPU  *cpu.CPU
	IL1  *cache.Cache
	DL1  *cache.Cache
	L2   *cache.Cache
	ITLB *tlb.TLB
	DTLB *tlb.TLB
	Bus  *bus.Bus
	DRAM *dram.DRAM
	Mem  *cpu.Memory

	img *loader.Image

	// att is the cycle-attribution profiler; nil (the no-op profiler)
	// until EnableAttribution is called.
	att *telemetry.Attribution
}

// New wires the hierarchy. The platform has no image loaded yet; call
// LoadImage before Run.
func New(cfg Config) *Platform {
	d := dram.New(cfg.DRAM)
	l2 := cache.New(cfg.L2, d)
	b := bus.New(cfg.Bus, l2)
	il1 := cache.New(cfg.IL1, b)
	dl1 := cache.New(cfg.DL1, b)
	itlb := tlb.New(cfg.ITLB, b, cfg.PageTableBase)
	dtlb := tlb.New(cfg.DTLB, b, cfg.PageTableBase)
	return &Platform{
		Cfg: cfg, IL1: il1, DL1: dl1, L2: l2,
		ITLB: itlb, DTLB: dtlb, Bus: b, DRAM: d,
		Mem: cpu.NewMemory(),
	}
}

// EnableAttribution installs a cycle-attribution profiler on the core
// and interposes telemetry probes on the levels below the L1s, so that
// every cycle the platform charges is booked to exactly one
// telemetry.Component. It returns the profiler (also available via
// Attribution). Idempotent; call before or after LoadImage.
//
// The probe chain mirrors the hardware topology: DRAM, L2 and bus each
// book their self-latency, and TLB walks route through the probed bus
// so walk traffic is redirected to the walk component by the CPU's
// override. The L1s carry no probe: the core books its own L1 accesses
// (see cpu.CPU.SetAttribution), so the probes sit only on the miss path
// and the core's devirtualised hit paths and threaded-code engine stay
// engaged under attribution.
func (p *Platform) EnableAttribution() *telemetry.Attribution {
	if p.att != nil {
		return p.att
	}
	att := telemetry.NewAttribution()
	pDRAM := telemetry.NewProbe(p.DRAM, att, telemetry.CompDRAM)
	p.L2.SetNext(pDRAM)
	pL2 := telemetry.NewProbe(p.L2, att, telemetry.CompL2)
	p.Bus.SetNext(pL2)
	pBus := telemetry.NewProbe(p.Bus, att, telemetry.CompBus)
	p.IL1.SetNext(pBus)
	p.DL1.SetNext(pBus)
	p.ITLB.SetWalkMem(pBus)
	p.DTLB.SetWalkMem(pBus)
	p.att = att
	if p.CPU != nil {
		p.CPU.SetAttribution(att)
	}
	return att
}

// Attribution returns the installed profiler, or nil when attribution
// is disabled (a nil *Attribution is the valid no-op profiler).
func (p *Platform) Attribution() *telemetry.Attribution { return p.att }

// LoadImage binds img to the platform and applies its data initialisers
// directly to memory — the debug-link load of §V, which does not disturb
// the caches.
func (p *Platform) LoadImage(img *loader.Image) {
	p.img = img
	for _, iw := range img.Inits {
		p.Mem.StoreWord(iw.Addr, iw.Val)
	}
	if p.CPU == nil {
		p.CPU = cpu.New(p.Cfg.CPU, img, p.IL1, p.DL1, p.ITLB, p.DTLB, p.Mem)
		p.CPU.SetAttribution(p.att)
	} else {
		p.CPU.SetImage(img)
	}
}

// Image returns the currently loaded image, or nil.
func (p *Platform) Image() *loader.Image { return p.img }

// Reload clears memory and re-applies the current image's initialisers:
// the partition reboot of §IV, which guarantees that a run cannot see
// data left behind by the previous one.
func (p *Platform) Reload() {
	if p.img == nil {
		return
	}
	p.Mem.Clear()
	for _, iw := range p.img.Inits {
		p.Mem.StoreWord(iw.Addr, iw.Val)
	}
}

// FlushCaches writes back and invalidates every cache and TLB, returning
// the machine to the canonical initial hardware state PikeOS establishes
// at each partition start (§IV).
func (p *Platform) FlushCaches() {
	p.IL1.FlushAll()
	p.DL1.FlushAll()
	p.L2.FlushAll()
	p.ITLB.Flush()
	p.DTLB.Flush()
}

// ResetCounters zeroes every performance counter in the machine,
// including the core's PMCs and the attribution buckets.
func (p *Platform) ResetCounters() {
	p.IL1.ResetCounters()
	p.DL1.ResetCounters()
	p.L2.ResetCounters()
	p.ITLB.ResetCounters()
	p.DTLB.ResetCounters()
	p.Bus.ResetCounters()
	p.DRAM.ResetCounters()
	if p.CPU != nil {
		p.CPU.ResetCounters()
	}
	p.att.Reset()
}

// ReseedCaches reseeds the parametric placement hash of the caches; only
// meaningful on the hardware-randomised configuration.
func (p *Platform) ReseedCaches(seed uint64) {
	p.IL1.ReseedPlacement(seed ^ 0x11)
	p.DL1.ReseedPlacement(seed ^ 0x22)
	p.L2.ReseedPlacement(seed ^ 0x33)
}

// PMCs is the combined performance-counter snapshot; the first five
// fields are the columns of Table I.
type PMCs struct {
	ICMiss uint64 // IL1 misses
	DCMiss uint64 // DL1 load misses (no-write-allocate: store misses excluded)
	L2Miss uint64
	FPU    uint64
	Instr  uint64

	L2Access         uint64
	ITLBMiss         uint64
	DTLBMiss         uint64
	Loads            uint64
	Stores           uint64
	WindowOverflows  uint64
	WindowUnderflows uint64
}

// L2MissRatio is the paper's §VI metric: L2 misses over L2 accesses,
// where L2 accesses are the L1 misses that reach it.
func (m PMCs) L2MissRatio() float64 {
	if m.L2Access == 0 {
		return 0
	}
	return float64(m.L2Miss) / float64(m.L2Access)
}

// Counters assembles the current PMC snapshot.
func (p *Platform) Counters() PMCs {
	if p.CPU == nil {
		return PMCs{}
	}
	cc := p.CPU.Counters()
	il1 := p.IL1.Counters()
	dl1 := p.DL1.Counters()
	l2 := p.L2.Counters()
	return PMCs{
		ICMiss:           il1.Misses,
		DCMiss:           dl1.ReadMisses,
		L2Miss:           l2.Misses,
		FPU:              cc.FPUOps,
		Instr:            cc.Instrs,
		L2Access:         l2.Accesses,
		ITLBMiss:         p.ITLB.Counters().Misses,
		DTLBMiss:         p.DTLB.Counters().Misses,
		Loads:            cc.Loads,
		Stores:           cc.Stores,
		WindowOverflows:  cc.WindowOverflows,
		WindowUnderflows: cc.WindowUnderflows,
	}
}

// RunResult is the outcome of one measured run.
type RunResult struct {
	Cycles mem.Cycles
	PMCs   PMCs
	Trace  []cpu.TracePoint
	// ExitValue is %o0 at halt, the program's result word.
	ExitValue uint32
	// Attribution is the per-component cycle split of this run; its
	// Valid flag is false when EnableAttribution was not called. When
	// valid, Attribution.Total() == Cycles exactly (the conservation
	// invariant).
	Attribution telemetry.AttributionSnapshot
}

// Run performs one measurement run under the paper's protocol: flush
// caches and TLBs, zero the counters, reset the core (PC at entry, SP at
// the configured stack top), execute to Halt, snapshot everything.
func (p *Platform) Run() (RunResult, error) {
	if p.img == nil {
		return RunResult{}, fmt.Errorf("platform: no image loaded")
	}
	p.FlushCaches()
	p.ResetCounters()
	p.CPU.Reset(p.Cfg.StackTop)
	cycles, err := p.CPU.Run()
	if err != nil {
		return RunResult{}, fmt.Errorf("platform: run failed: %w", err)
	}
	res := RunResult{
		Cycles:      cycles,
		PMCs:        p.Counters(),
		ExitValue:   p.CPU.Reg(isa.O0),
		Attribution: p.att.Snapshot(),
	}
	res.Trace = append(res.Trace, p.CPU.Trace()...)
	return res, nil
}

// RunBudget is Run with a partition-window budget: execution stops when
// the budget is exhausted even if the program has not halted. The
// returned flag reports whether the program completed.
func (p *Platform) RunBudget(budget mem.Cycles) (RunResult, bool, error) {
	if p.img == nil {
		return RunResult{}, false, fmt.Errorf("platform: no image loaded")
	}
	p.FlushCaches()
	p.ResetCounters()
	p.CPU.Reset(p.Cfg.StackTop)
	cycles, err := p.CPU.RunBudget(budget)
	if err != nil {
		return RunResult{}, false, fmt.Errorf("platform: run failed: %w", err)
	}
	res := RunResult{
		Cycles:      cycles,
		PMCs:        p.Counters(),
		ExitValue:   p.CPU.Reg(isa.O0),
		Attribution: p.att.Snapshot(),
	}
	res.Trace = append(res.Trace, p.CPU.Trace()...)
	return res, p.CPU.Halted(), nil
}

// Describe returns a human-readable platform summary (the `-platform`
// output of cmd/dsrsim, standing in for Fig. 1).
func (p *Platform) Describe() string {
	c := p.Cfg
	return fmt.Sprintf(
		"PROXIMA LEON3 platform\n"+
			"  core: %d register windows, FPU jitter up to %d cycles (fdiv/fsqrt)\n"+
			"  IL1:  %dKB %d-way, %dB lines, %s placement, %s replacement\n"+
			"  DL1:  %dKB %d-way, %dB lines, %s, %s placement\n"+
			"  L2:   %dKB %d-way (direct-mapped if 1), %dB lines, %s, %s placement\n"+
			"  TLB:  %d-entry ITLB, %d-entry DTLB\n"+
			"  bus:  +%d read / +%d write cycles; SDRAM: %d + %d/word cycles\n",
		c.CPU.NumWindows, c.CPU.FPJitterMax,
		c.IL1.Size/1024, c.IL1.Ways, c.IL1.LineSize, c.IL1.Placement, c.IL1.Replacement,
		c.DL1.Size/1024, c.DL1.Ways, c.DL1.LineSize, c.DL1.Write, c.DL1.Placement,
		c.L2.Size/1024, c.L2.Ways, c.L2.LineSize, c.L2.Write, c.L2.Placement,
		c.ITLB.Entries, c.DTLB.Entries,
		c.Bus.ReadLatency, c.Bus.WriteLatency, c.DRAM.AccessLatency, c.DRAM.PerWord)
}
