package core

import (
	"fmt"

	"dsr/internal/cpu"
	"dsr/internal/heap"
	"dsr/internal/isa"
	"dsr/internal/loader"
	"dsr/internal/mem"
	"dsr/internal/platform"
	"dsr/internal/prng"
	"dsr/internal/prog"
	"dsr/internal/telemetry"
)

// RelocationMode selects when functions are moved to their random
// locations (§III.B.1). The paper's port chose eager relocation because
// lazy relocation complicates worst-case memory and WCET bounds; lazy is
// retained for the A1 ablation.
type RelocationMode int

const (
	// Eager relocates every function at program start, before the
	// measured window opens.
	Eager RelocationMode = iota
	// Lazy relocates each function at its first call — inside the
	// measured window, which is exactly why the paper rejects it.
	Lazy
)

func (m RelocationMode) String() string {
	if m == Lazy {
		return "lazy"
	}
	return "eager"
}

// Options configures the DSR runtime.
type Options struct {
	// OffsetBound is the exclusive bound of random placement offsets,
	// which also bounds the per-function stack offsets. 0 selects the
	// platform's L2 way size (§III.B.4), which also randomises the L1
	// layouts because the L1 way size divides it.
	OffsetBound int
	// Mode selects eager (default) or lazy relocation.
	Mode RelocationMode
	// Source is the PRNG; nil selects the MWC generator (§III.B.3).
	Source prng.Source
}

// The fixed randomisation parameters: every offset is a multiple of
// offsetAlign (SPARC double-word, §III.B.2), and the code and data
// pools span poolSize bytes from their bases.
const (
	offsetAlign  = mem.DoubleWord
	codePoolBase = mem.Addr(0x4400_0000)
	dataPoolBase = mem.Addr(0x5400_0000)
	poolSize     = mem.Addr(64 << 20)
)

// Randomisation returns the placement offset bound, the stack offset
// bound and the offset alignment the runtime draws with under o on a
// platform configured as cfg: the placement bound defaults to the L2
// way size and also bounds the stack offsets, and offsets are 8-byte
// aligned. The static analyzers read the runtime's parameters here.
func (o Options) Randomisation(cfg *platform.Config) (offsetBound, stackOffsetBound, align int) {
	offsetBound = o.OffsetBound
	if offsetBound == 0 {
		offsetBound = cfg.L2.WaySize()
	}
	return offsetBound, offsetBound, offsetAlign
}

func (o *Options) fillDefaults(plat *platform.Platform) {
	o.OffsetBound, _, _ = o.Randomisation(&plat.Cfg)
	if o.Source == nil {
		o.Source = prng.NewMWC(1)
	}
}

// BootStats reports what one reboot (re-randomisation) did.
type BootStats struct {
	Seed           uint64
	RelocatedFuncs int
	RelocatedBytes mem.Addr
	// CodePages/DataPages are the distinct pages backing the pools, the
	// TLB-randomisation surface (§III.B.5).
	CodePages int
	DataPages int
}

type relocInfo struct {
	name    string
	oldBase mem.Addr
	size    mem.Addr
}

// Runtime drives DSR on a platform: it owns the transformed program, the
// code and data pools, and the per-run randomisation protocol.
type Runtime struct {
	plat  *platform.Platform
	tp    *prog.Program
	meta  *Metadata
	stats PassStats
	opts  Options

	codePool *heap.Pool
	dataPool *heap.Pool
	src      prng.Source

	img       *loader.Image
	placement loader.Placement
	// linkBase is the pre-relocation (sequential) placement: the
	// addresses functions are copied *from* during relocation.
	linkBase loader.Placement

	// lazy state: the functions not yet relocated, by new base
	pending map[mem.Addr]relocInfo

	// Reboot scratch, reused across runs so a steady-state reboot
	// performs no heap allocation beyond what the pools require: the
	// shuffled relocation order, the relocation work list, and the
	// object record handed to the pool allocators (they read its fields
	// and write Base back but never retain the pointer).
	order []int
	reloc []relocInfo
	obj   mem.Object

	// events, when non-nil, receives structured runtime events (reboots,
	// relocations, pool choices); a nil log no-ops. It is also the only
	// reader of the boot-time relocation cost, so Reboot models that cost
	// only while a log is installed.
	events *telemetry.EventLog

	// tracer, when non-nil, receives host wall-time boot/reloc spans so
	// campaign traces attribute each run's time to a phase; a nil tracer
	// no-ops.
	tracer *telemetry.WorkerTracer
}

// SetEventLog installs (or clears, with nil) the structured event log
// the runtime emits reboot and relocation events into.
func (r *Runtime) SetEventLog(l *telemetry.EventLog) { r.events = l }

// SetTracer installs (or clears, with nil) the worker span track Reboot
// emits boot/reloc phase spans into. The spans inherit the enclosing
// run span's index when the campaign engine opened one on this track.
func (r *Runtime) SetTracer(t *telemetry.WorkerTracer) { r.tracer = t }

// dsrTrack is the event-log track of DSR runtime events.
const dsrTrack = "dsr"

// NewRuntime runs the compiler pass on p and prepares a runtime bound to
// plat. Call Reboot before every measured run.
func NewRuntime(p *prog.Program, plat *platform.Platform, opts Options) (*Runtime, error) {
	opts.fillDefaults(plat)
	tp, meta, stats, err := Transform(p)
	if err != nil {
		return nil, err
	}
	seq, err := loader.LayoutSequential(tp, loader.DefaultSequentialConfig())
	if err != nil {
		return nil, fmt.Errorf("core: link layout: %w", err)
	}
	r := &Runtime{
		plat: plat, tp: tp, meta: meta, stats: stats, opts: opts,
		src:      opts.Source,
		linkBase: seq.Placement,
	}
	r.codePool = heap.NewPool("dsr-code", codePoolBase, poolSize,
		opts.OffsetBound, offsetAlign, prng.NewMWC(2))
	r.dataPool = heap.NewPool("dsr-data", dataPoolBase, poolSize,
		opts.OffsetBound, offsetAlign, prng.NewMWC(3))
	return r, nil
}

// Program returns the transformed program.
func (r *Runtime) Program() *prog.Program { return r.tp }

// Metadata returns the relocation metadata.
func (r *Runtime) Metadata() *Metadata { return r.meta }

// PassStats returns the compiler-pass statistics.
func (r *Runtime) PassStats() PassStats { return r.stats }

// Image returns the image of the current run (nil before first Reboot).
func (r *Runtime) Image() *loader.Image { return r.img }

// Placement returns the current run's symbol placement.
func (r *Runtime) Placement() loader.Placement { return r.placement }

// Reboot models the partition reboot of §IV: caches and TLBs are
// flushed, memory is cleared, a fresh random layout is drawn with the
// given seed, the image is rebuilt and loaded and the metadata tables
// are written. The relocation performed at boot (every function in
// eager mode, the entry function in lazy mode) is costed through the
// simulated hierarchy only while an event log is installed: that cost
// falls before the measured window, which re-flushes every cache and
// TLB and resets every counter, so the log's dsr.reloc and dsr.reboot
// events are its only readers.
func (r *Runtime) Reboot(seed uint64) (BootStats, error) {
	// A partition reboot re-establishes the canonical initial hardware
	// state (§IV), so the relocation cost modelled below is computed from
	// cold caches — a pure function of (program, seed), independent of
	// whatever ran on this platform before. The parallel campaign
	// engine's determinism invariant relies on exactly this: a worker's
	// Reboot(seed) must behave identically no matter which runs it
	// executed previously. The flush is the work the measured window's
	// own flush would otherwise do, so it is paid once either way.
	boot := r.tracer.Begin(telemetry.SpanBoot, -1)
	r.plat.FlushCaches()
	r.src.Seed(seed)
	r.codePool.Reset(prng.Uint64(r.src))
	r.dataPool.Reset(prng.Uint64(r.src))

	pl := r.placement
	if pl == nil {
		pl = make(loader.Placement, len(r.tp.Functions)+len(r.tp.Data))
	} else {
		clear(pl)
	}
	// Shuffle relocation order so pool layout does not correlate with
	// link order across runs.
	if len(r.order) != len(r.tp.Functions) {
		r.order = make([]int, len(r.tp.Functions))
	}
	prng.PermInto(r.src, r.order)
	order := r.order
	reloc := r.reloc[:0]
	var bytes mem.Addr
	for _, fi := range order {
		f := r.tp.Functions[fi]
		obj := &r.obj
		*obj = mem.Object{Name: f.Name, Kind: mem.KindCode, Size: f.SizeBytes(), Align: isa.InstrBytes}
		if _, err := r.codePool.Allocate(obj); err != nil {
			return BootStats{}, fmt.Errorf("core: reboot: %w", err)
		}
		pl[f.Name] = obj.Base
		reloc = append(reloc, relocInfo{name: f.Name, oldBase: r.linkBase[f.Name], size: obj.Size})
		bytes += obj.Size
	}
	for _, d := range r.tp.Data {
		align := d.Align
		if align == 0 {
			align = mem.DoubleWord
		}
		obj := &r.obj
		*obj = mem.Object{Name: d.Name, Kind: mem.KindData, Size: d.Size, Align: align}
		if _, err := r.dataPool.Allocate(obj); err != nil {
			return BootStats{}, fmt.Errorf("core: reboot: %w", err)
		}
		pl[d.Name] = obj.Base
	}

	r.tracer.End(boot)
	relocSpan := r.tracer.Begin(telemetry.SpanReloc, -1)

	img := r.img
	if img == nil {
		built, err := loader.BuildImage(r.tp, pl)
		if err != nil {
			return BootStats{}, fmt.Errorf("core: reboot: %w", err)
		}
		img = built
	} else if err := img.Rebuild(r.tp, pl); err != nil {
		// The image is rebuilt in place across reboots (same program, new
		// placement — byte-identical to a fresh build, without the copy).
		return BootStats{}, fmt.Errorf("core: reboot: %w", err)
	}
	r.img = img
	r.placement = pl
	r.reloc = reloc

	r.plat.Mem.Clear()
	r.plat.LoadImage(img)

	// Write the metadata tables (runtime startup writes, before the
	// partition's measured window).
	ftable := pl[FTableSym]
	offsets := pl[OffsetsSym]
	for i, name := range r.meta.Funcs {
		r.plat.Mem.StoreWord(ftable+mem.Addr(i)*4, uint32(pl[name]))
		var off uint32
		if f := r.tp.Function(name); f != nil && !f.Leaf {
			off = uint32(prng.AlignedOffset(r.src, r.opts.OffsetBound, offsetAlign))
		}
		r.plat.Mem.StoreWord(offsets+mem.Addr(i)*4, off)
	}

	stats := BootStats{
		Seed:           seed,
		RelocatedFuncs: len(reloc),
		RelocatedBytes: bytes,
		CodePages:      r.codePool.PagesTouchedCount(),
		DataPages:      r.dataPool.PagesTouchedCount(),
	}

	// bootCycles is the modelled cost of the boot-time relocation loop
	// plus the SPARC cache-consistency routine (writeback + invalidate),
	// spent before the measured window opens — the paper's motivation
	// for eager mode. Only the event log reports it.
	var bootCycles mem.Cycles
	switch r.opts.Mode {
	case Eager:
		if r.events.Enabled() {
			for _, ri := range reloc {
				bootCycles += r.relocateAtBoot(ri, pl[ri.name])
			}
		}
		r.pending = nil
		r.plat.CPU.SetCallHook(nil)
	case Lazy:
		if r.pending == nil {
			r.pending = make(map[mem.Addr]relocInfo, len(reloc))
		} else {
			clear(r.pending)
		}
		for _, ri := range reloc {
			r.pending[pl[ri.name]] = ri
		}
		// The entry function's first use is program start itself, so it
		// is relocated at boot even in lazy mode.
		if ri, ok := r.pending[pl[r.tp.Entry]]; ok {
			delete(r.pending, pl[r.tp.Entry])
			if r.events.Enabled() {
				bootCycles += r.relocateAtBoot(ri, pl[r.tp.Entry])
			}
		}
		r.plat.CPU.SetCallHook(r.lazyHook)
	}
	r.tracer.End(relocSpan)
	if r.events.Enabled() {
		r.events.Emit(dsrTrack, "dsr.reboot", telemetry.PhaseInstant,
			telemetry.Uint64("seed", seed),
			telemetry.String("mode", r.opts.Mode.String()),
			telemetry.Int("funcs", len(reloc)),
			telemetry.Uint64("bytes", uint64(bytes)),
			telemetry.Int("code_pages", stats.CodePages),
			telemetry.Int("data_pages", stats.DataPages),
			telemetry.Cycles("boot_cycles", bootCycles),
			telemetry.Hex("entry", pl[r.tp.Entry]))
	}
	return stats, nil
}

// relocateAtBoot models one boot-time relocation and emits its
// dsr.reloc event; callers run it only while the event log is enabled.
func (r *Runtime) relocateAtBoot(ri relocInfo, newBase mem.Addr) mem.Cycles {
	cost := r.relocationCost(ri, newBase)
	r.emitReloc(ri, newBase, cost, "boot")
	return cost
}

// relocationCost models moving one function: a word-copy loop through
// the data cache from the old to the new location, then the SPARC v8
// consistency routine — write back the new range (the L2 is write-back,
// so relocated code must reach memory before it can be fetched) and
// invalidate any stale IL1/L2 lines at the old location (§III.B.1).
func (r *Runtime) relocationCost(ri relocInfo, newBase mem.Addr) mem.Cycles {
	var cost mem.Cycles
	for off := mem.Addr(0); off < ri.size; off += mem.WordSize {
		cost += r.plat.DL1.Read(ri.oldBase+off, mem.WordSize)
		cost += r.plat.DL1.Write(newBase+off, mem.WordSize)
		cost += 2 // the copy loop's own instructions
	}
	cost += r.plat.L2.WritebackRange(newBase, int(ri.size))
	cost += r.plat.IL1.InvalidateRange(ri.oldBase, int(ri.size))
	cost += r.plat.L2.InvalidateRange(ri.oldBase, int(ri.size))
	return cost
}

// lazyHook performs first-call relocation inside the measured window.
func (r *Runtime) lazyHook(target mem.Addr) {
	ri, ok := r.pending[target]
	if !ok {
		return
	}
	delete(r.pending, target)
	cost := r.relocationCost(ri, target)
	r.plat.CPU.AddCycles(cost)
	if r.events.Enabled() {
		r.emitReloc(ri, target, cost, "lazy")
	}
}

// emitReloc emits the dsr.reloc event of one relocation.
func (r *Runtime) emitReloc(ri relocInfo, newBase mem.Addr, cost mem.Cycles, when string) {
	r.events.Emit(dsrTrack, "dsr.reloc", telemetry.PhaseInstant,
		telemetry.String("func", ri.name),
		telemetry.Hex("old", ri.oldBase),
		telemetry.Hex("new", newBase),
		telemetry.Uint64("bytes", uint64(ri.size)),
		telemetry.Cycles("cost", cost),
		telemetry.String("when", when))
}

// Run performs one measured run on the current layout. Reboot must have
// been called; the paper's protocol is one Reboot per Run so that every
// measurement sees a fresh random layout.
func (r *Runtime) Run() (platform.RunResult, error) {
	res, _, err := r.RunBudget(cpu.NoBudget)
	return res, err
}

// RunBudget is Run under a partition-window cycle budget; the flag
// reports whether the program completed within it.
func (r *Runtime) RunBudget(budget mem.Cycles) (platform.RunResult, bool, error) {
	if r.img == nil {
		return platform.RunResult{}, false, fmt.Errorf("core: run before Reboot")
	}
	return r.plat.RunBudget(budget)
}
