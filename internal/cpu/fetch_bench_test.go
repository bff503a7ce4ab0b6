package cpu

import (
	"testing"

	"dsr/internal/cache"
	"dsr/internal/isa"
	"dsr/internal/loader"
	"dsr/internal/mem"
	"dsr/internal/prog"
	"dsr/internal/tlb"
)

// Fetch/dispatch microbenchmarks: the end-to-end per-instruction cost
// of the core. benchLoopProgram executes a counted arithmetic loop —
// the straight-line fetch fast path (same function, line, page) broken
// only by the backward branch every iteration.

const benchLoopIters = 10_000

func benchLoopProgram(b *testing.B) *loader.Image {
	b.Helper()
	fb := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.L0, 0).
		MovI(isa.L1, benchLoopIters).
		Label("loop").
		AddI(isa.L0, isa.L0, 1).
		OpI(isa.Xor, isa.L2, isa.L0, 0x55).
		OpI(isa.And, isa.L3, isa.L2, 0xFF).
		Op3(isa.Add, isa.L4, isa.L3, isa.L0).
		Cmp(isa.L0, isa.L1).
		Bl("loop").
		Halt()
	p := &prog.Program{Name: "fetchbench", Entry: "main"}
	if err := p.AddFunction(fb.MustBuild()); err != nil {
		b.Fatal(err)
	}
	img, err := loader.Load(p, loader.DefaultSequentialConfig())
	if err != nil {
		b.Fatal(err)
	}
	return img
}

// proximaFronts builds the ProximaLEON3 IL1/DL1/TLBs over next (the
// L1s' miss path and the TLBs' walk memory): the hierarchy New takes,
// and the package's one test seam below the core. Over nullMem every
// access costs 0 cycles, so a test sees only the core's own timing.
func proximaFronts(next mem.Backend) (il1, dl1 *cache.Cache, itlb, dtlb *tlb.TLB) {
	il1 = cache.New(cache.Config{
		Name: "IL1", Size: 16 * 1024, LineSize: 32, Ways: 4,
		HitLatency: 0, Placement: cache.PlacementModulo,
		Replacement: cache.ReplacementLRU, Write: cache.WriteBackAllocate,
	}, next)
	dl1 = cache.New(cache.Config{
		Name: "DL1", Size: 16 * 1024, LineSize: 16, Ways: 4,
		HitLatency: 0, Placement: cache.PlacementModulo,
		Replacement: cache.ReplacementLRU, Write: cache.WriteThroughNoAllocate,
	}, next)
	itlb = tlb.New(tlb.Config{Name: "ITLB", Entries: 64}, next, 0x7000_0000)
	dtlb = tlb.New(tlb.Config{Name: "DTLB", Entries: 64}, next, 0x7000_0000)
	return il1, dl1, itlb, dtlb
}

// newNullCPU builds a core under cfg on proximaFronts(nullMem{}).
func newNullCPU(cfg Config, img *loader.Image) *CPU {
	il1, dl1, it, dt := proximaFronts(nullMem{})
	return New(cfg, img, il1, dl1, it, dt, NewMemory())
}

// BenchmarkFetchLoop is the headline per-instruction cost: a tight
// counted loop through real L1s and TLBs. instrs/s is the simulator's
// effective instruction rate.
func BenchmarkFetchLoop(b *testing.B) {
	img := benchLoopProgram(b)
	c := newNullCPU(NewDefaultConfig(), img)
	b.ReportAllocs()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		c.Reset(stackTop)
		if _, err := c.Run(); err != nil {
			b.Fatal(err)
		}
		instrs += c.Counters().Instrs
	}
	b.StopTimer()
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkChargeDisabledTelemetry pins the zero-overhead guarantee of
// the disabled-telemetry charge path: with a nil Attribution, charge
// must be one addition plus one nil check.
func BenchmarkChargeDisabledTelemetry(b *testing.B) {
	img := benchLoopProgram(b)
	c := newNullCPU(NewDefaultConfig(), img)
	c.Reset(stackTop)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.charge(0, 1)
	}
	b.StopTimer()
	if c.Cycles() < mem.Cycles(b.N) {
		b.Fatal("charge lost cycles")
	}
}

// TestChargeDisabledAllocFree: the disabled-telemetry charge path and
// the whole fetch loop must be allocation-free (the trace append is the
// only allocating step in steady state, and this program has no
// ipoints).
func TestChargeDisabledAllocFree(t *testing.T) {
	fb := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.L0, 0).
		MovI(isa.L1, 64).
		Label("loop").
		AddI(isa.L0, isa.L0, 1).
		Cmp(isa.L0, isa.L1).
		Bl("loop").
		Halt()
	p := &prog.Program{Name: "allocfree", Entry: "main"}
	if err := p.AddFunction(fb.MustBuild()); err != nil {
		t.Fatal(err)
	}
	img, err := loader.Load(p, loader.DefaultSequentialConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := newNullCPU(NewDefaultConfig(), img)
	c.Reset(stackTop)
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		c.Reset(stackTop)
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("steady-state run allocates %v times", n)
	}
}
