package cache

import (
	"testing"

	"dsr/internal/mem"
)

// The microbenchmarks below pin the per-access cost of the cache model,
// which sits on the simulator's per-instruction hot path (every fetch
// goes through the IL1, every load/store through the DL1). The L1 hit
// path must stay allocation-free: the 0 allocs/op column is asserted by
// TestHitPathAllocFree below, and make bench-check gates ns/op.

func proximaIL1() Config {
	return Config{
		Name: "IL1", Size: 16 * 1024, LineSize: 32, Ways: 4,
		HitLatency: 0, Placement: PlacementModulo,
		Replacement: ReplacementLRU, Write: WriteBackAllocate,
	}
}

func proximaDL1() Config {
	return Config{
		Name: "DL1", Size: 16 * 1024, LineSize: 16, Ways: 4,
		HitLatency: 0, Placement: PlacementModulo,
		Replacement: ReplacementLRU, Write: WriteThroughNoAllocate,
	}
}

// warmSequential touches n bytes so subsequent accesses hit.
func warmSequential(c *Cache, n int) {
	for a := mem.Addr(0); a < mem.Addr(n); a += mem.Addr(c.cfg.LineSize) {
		c.Read(a, 1)
	}
}

// BenchmarkReadHitSameLine is the straight-line fetch pattern: repeated
// word reads within one resident line, each a hit on way 0 of its set
// (the one-compare path).
func BenchmarkReadHitSameLine(b *testing.B) {
	c := New(proximaIL1(), &flatMemory{readLat: 30})
	c.Read(0x100, 4)
	b.ReportAllocs()
	b.ResetTimer()
	var lat mem.Cycles
	for i := 0; i < b.N; i++ {
		lat += c.Read(0x100, 4)
	}
	sinkCycles = lat
}

// BenchmarkReadHitSweep walks a resident 8KB region word by word: hits
// in rotating sets/ways, the data-array sweep pattern of the case-study
// application.
func BenchmarkReadHitSweep(b *testing.B) {
	c := New(proximaDL1(), &flatMemory{readLat: 30})
	const region = 8 * 1024
	warmSequential(c, region)
	b.ReportAllocs()
	b.ResetTimer()
	var lat mem.Cycles
	a := mem.Addr(0)
	for i := 0; i < b.N; i++ {
		lat += c.Read(a, 4)
		a += 4
		if a >= region {
			a = 0
		}
	}
	sinkCycles = lat
}

// BenchmarkReadMissFill is the slow path: every access misses and fills.
func BenchmarkReadMissFill(b *testing.B) {
	c := New(proximaDL1(), &flatMemory{readLat: 30})
	b.ReportAllocs()
	b.ResetTimer()
	var lat mem.Cycles
	a := mem.Addr(0)
	for i := 0; i < b.N; i++ {
		lat += c.Read(a, 4)
		a += 64 * 1024 // always a fresh line, conflicting sets
	}
	sinkCycles = lat
}

// BenchmarkWriteThroughHit is the DL1 store pattern: write-through hits
// that always pay the next-level interface call.
func BenchmarkWriteThroughHit(b *testing.B) {
	c := New(proximaDL1(), &flatMemory{readLat: 30, writeLat: 10})
	c.Read(0x200, 4)
	b.ReportAllocs()
	b.ResetTimer()
	var lat mem.Cycles
	for i := 0; i < b.N; i++ {
		lat += c.Write(0x200, 4)
	}
	sinkCycles = lat
}

// BenchmarkReadHitHashPlacement is the hardware-randomised variant: the
// parametric-hash set index on the hit path.
func BenchmarkReadHitHashPlacement(b *testing.B) {
	cfg := proximaIL1()
	cfg.Placement = PlacementHashRandom
	cfg.Replacement = ReplacementRandom
	c := New(cfg, &flatMemory{readLat: 30})
	c.ReseedPlacement(42)
	c.Read(0x100, 4)
	b.ReportAllocs()
	b.ResetTimer()
	var lat mem.Cycles
	for i := 0; i < b.N; i++ {
		lat += c.Read(0x100, 4)
	}
	sinkCycles = lat
}

var sinkCycles mem.Cycles

// TestHitPathAllocFree is the allocation-free guarantee for the L1 hit
// path (read hit, write-through hit, and the hash-random variant).
func TestHitPathAllocFree(t *testing.T) {
	c := New(proximaDL1(), &flatMemory{readLat: 30, writeLat: 10})
	c.Read(0x300, 4)
	if n := testing.AllocsPerRun(1000, func() { sinkCycles = c.Read(0x300, 4) }); n != 0 {
		t.Errorf("read hit allocates %v times", n)
	}
	if n := testing.AllocsPerRun(1000, func() { sinkCycles = c.Write(0x300, 4) }); n != 0 {
		t.Errorf("write-through hit allocates %v times", n)
	}
	hw := proximaIL1()
	hw.Placement = PlacementHashRandom
	h := New(hw, &flatMemory{readLat: 30})
	h.ReseedPlacement(7)
	h.Read(0x300, 4)
	if n := testing.AllocsPerRun(1000, func() { sinkCycles = h.Read(0x300, 4) }); n != 0 {
		t.Errorf("hash-random read hit allocates %v times", n)
	}
}

// BenchmarkFlushAll is the partition-start flush after a run with a
// small working set: 16 lines of a 1024-line write-back L2 are filled
// (half of them dirty) and the whole cache is flushed. The op includes
// the 16 fills; the flush visits only the filled lines.
func BenchmarkFlushAll(b *testing.B) {
	c := New(Config{
		Name: "L2", Size: 32 * 1024, LineSize: 32, Ways: 1,
		HitLatency: 0, Placement: PlacementModulo,
		Replacement: ReplacementLRU, Write: WriteBackAllocate,
	}, &flatMemory{readLat: 30, writeLat: 30})
	b.ReportAllocs()
	b.ResetTimer()
	var lat mem.Cycles
	for i := 0; i < b.N; i++ {
		for k := mem.Addr(0); k < 16; k++ {
			if k&1 == 0 {
				lat += c.Write(k*0x220, 4)
			} else {
				lat += c.Read(k*0x220, 4)
			}
		}
		lat += c.FlushAll()
	}
	sinkCycles = lat
}
