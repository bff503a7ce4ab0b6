package cache

import (
	"testing"

	"dsr/internal/mem"
	"dsr/internal/prng"
)

// Equivalence tests for the strength-reduced hot path: every lookup
// shortcut (shift/mask geometry, single-line entry points) must be
// bit-identical to the plain div/mod formulation across the
// configuration matrix, including geometries the platform never uses.
// The recency-ordered sets are checked against the age-stamped LRU
// model in reference_test.go.

// equivConfigs is the geometry/policy matrix: direct-mapped through
// fully associative, small and large lines, both placements, both write
// policies, and a non-default "odd" geometry (one set, many ways).
func equivConfigs() []Config {
	return []Config{
		{Name: "dm-16", Size: 512, LineSize: 16, Ways: 1, Write: WriteBackAllocate},
		{Name: "dm-64", Size: 4096, LineSize: 64, Ways: 1, Write: WriteThroughNoAllocate},
		{Name: "2w-32", Size: 2048, LineSize: 32, Ways: 2, Write: WriteBackAllocate},
		{Name: "4w-wt", Size: 16 * 1024, LineSize: 16, Ways: 4, Write: WriteThroughNoAllocate},
		{Name: "4w-hash", Size: 8 * 1024, LineSize: 32, Ways: 4, Write: WriteBackAllocate,
			Placement: PlacementHashRandom},
		{Name: "fa", Size: 1024, LineSize: 16, Ways: 64, Write: WriteBackAllocate},
		{Name: "1set-hash-wt", Size: 256, LineSize: 32, Ways: 8, Write: WriteThroughNoAllocate,
			Placement: PlacementHashRandom},
	}
}

// refSetIndex is the textbook div/mod placement the production setIndex
// strength-reduces: line % sets for modulo placement, hash % sets for
// parametric-hash placement.
func refSetIndex(c *Cache, lineAddr mem.Addr) int {
	if c.cfg.Placement == PlacementHashRandom {
		x := uint64(lineAddr) ^ c.hashSeed
		x *= 0x9E3779B97F4A7C15
		x ^= x >> 29
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 32
		return int(x % uint64(c.sets))
	}
	return int(lineAddr % mem.Addr(c.sets))
}

// TestLineAddrEquivalence: addr>>lineShift must equal addr/LineSize for
// every configured geometry, over structured and random addresses.
func TestLineAddrEquivalence(t *testing.T) {
	for _, cfg := range equivConfigs() {
		c := New(cfg, nullBackend{})
		src := prng.NewMWC(0xA11CE)
		for i := 0; i < 20000; i++ {
			var a mem.Addr
			switch i % 3 {
			case 0: // dense low addresses, all byte offsets
				a = mem.Addr(i)
			case 1: // line-boundary straddles
				a = mem.Addr(i/3)*mem.Addr(cfg.LineSize) - 1
			default: // random 32-bit
				a = mem.Addr(prng.Uint64(src) & 0xFFFF_FFFF)
			}
			if got, want := c.lineAddr(a), a/mem.Addr(cfg.LineSize); got != want {
				t.Fatalf("%s: lineAddr(%#x) = %#x, want %#x", cfg.Name, a, got, want)
			}
		}
	}
}

// TestSetIndexEquivalence: the masked reduction must equal the modulo
// reduction for both placements, across seeds.
func TestSetIndexEquivalence(t *testing.T) {
	for _, cfg := range equivConfigs() {
		c := New(cfg, nullBackend{})
		for _, seed := range []uint64{0, 1, 2, 0xDEAD_BEEF, ^uint64(0)} {
			c.ReseedPlacement(seed)
			src := prng.NewMWC(seed ^ 0x5EED)
			for i := 0; i < 20000; i++ {
				la := mem.Addr(prng.Uint64(src) & 0x0FFF_FFFF)
				if i%2 == 0 {
					la = mem.Addr(i) // dense sequential lines
				}
				if got, want := c.setIndex(la), refSetIndex(c, la); got != want {
					t.Fatalf("%s seed %#x: setIndex(%#x) = %d, want %d",
						cfg.Name, seed, la, got, want)
				}
			}
		}
	}
}

type nullBackend struct{}

func (nullBackend) Read(mem.Addr, int) mem.Cycles  { return 7 }
func (nullBackend) Write(mem.Addr, int) mem.Cycles { return 5 }

// TestReadLineWriteLineEquivalence drives two identical caches with the
// same trace of single-line accesses — one through the general
// Read/Write interface, one through the inlinable ReadLine/WriteLine
// entry points — and demands identical latencies on every access and
// identical counters at the end. This is the contract the CPU relies on
// when it devirtualises its L1 fronts.
func TestReadLineWriteLineEquivalence(t *testing.T) {
	for _, cfg := range equivConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			a := New(cfg, nullBackend{})
			b := New(cfg, nullBackend{})
			a.ReseedPlacement(42)
			b.ReseedPlacement(42)
			src := prng.NewMWC(0xFACADE)
			for i := 0; i < 50000; i++ {
				// Word accesses that never straddle a line (the CPU's
				// guarantee for the single-line entry points).
				addr := mem.Addr(prng.Intn(src, 1<<16)) * 4
				size := 4
				if prng.Intn(src, 4) == 0 {
					size = 1 // byte store, as Stb issues
					addr += mem.Addr(prng.Intn(src, 4))
				}
				var la, lb mem.Cycles
				if prng.Intn(src, 3) == 0 {
					la = a.Write(addr, size)
					lb = b.WriteLine(addr, size)
				} else {
					la = a.Read(addr, size)
					lb = b.ReadLine(addr)
				}
				if la != lb {
					t.Fatalf("access %d addr %#x: Read/Write latency %d != line entry latency %d",
						i, addr, la, lb)
				}
			}
			if a.Counters() != b.Counters() {
				t.Fatalf("counters diverged:\n interface: %+v\n line:      %+v",
					a.Counters(), b.Counters())
			}
		})
	}
}
