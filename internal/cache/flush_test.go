package cache

import (
	"reflect"
	"testing"

	"dsr/internal/mem"
	"dsr/internal/prng"
)

// access is one transaction a recordingBackend saw.
type access struct {
	write bool
	addr  mem.Addr
	size  int
}

// recordingBackend logs every transaction in order; its latencies depend
// on the address so a misrouted writeback shows in the cycle sum too.
type recordingBackend struct{ log []access }

func (r *recordingBackend) Read(a mem.Addr, size int) mem.Cycles {
	r.log = append(r.log, access{false, a, size})
	return 3 + mem.Cycles(a>>4&7)
}

func (r *recordingBackend) Write(a mem.Addr, size int) mem.Cycles {
	r.log = append(r.log, access{true, a, size})
	return 5 + mem.Cycles(a>>4&7)
}

// fullScanFlush is FlushAll as a scan of every line in index order: the
// reference the filled-set bitmap must reproduce.
func fullScanFlush(c *Cache) mem.Cycles {
	var lat mem.Cycles
	for i := range c.lines {
		l := &c.lines[i]
		if !l.valid {
			continue
		}
		if l.dirty {
			c.ctr.Writebacks++
			lat += c.next.Write(l.tag*mem.Addr(c.cfg.LineSize), c.cfg.LineSize)
		}
		c.ctr.Invalidations++
		l.valid = false
		l.dirty = false
	}
	return lat
}

// TestFlushAllMatchesFullScan drives two caches with the same random
// reads, writes, range invalidations and writebacks, snapshots and
// restores, and flushes one with FlushAll and the other with a full
// scan. Every latency, the counters and the ordered next-level traffic
// must agree, and both caches must be empty after each flush. A
// Restore that dropped the bitmap would leave the restored lines valid
// and their writebacks missing.
func TestFlushAllMatchesFullScan(t *testing.T) {
	var cfgs []Config
	for _, repl := range []Replacement{ReplacementLRU, ReplacementRandom} {
		for _, pl := range []Placement{PlacementModulo, PlacementHashRandom} {
			for _, wp := range []WritePolicy{WriteThroughNoAllocate, WriteBackAllocate} {
				cfgs = append(cfgs,
					// 32 sets: the bitmap's only word is partly used.
					Config{Name: "3w", Size: 16 * 3 * 32, LineSize: 16, Ways: 3,
						HitLatency: 1, Placement: pl, Replacement: repl, Write: wp},
					// 128 sets: the bitmap spans two words.
					Config{Name: "2w128", Size: 16 * 2 * 128, LineSize: 16, Ways: 2,
						HitLatency: 1, Placement: pl, Replacement: repl, Write: wp},
					Config{Name: "dm", Size: 4096, LineSize: 32, Ways: 1,
						HitLatency: 1, Placement: pl, Replacement: repl, Write: wp})
			}
		}
	}
	for _, cfg := range cfgs {
		name := cfg.Name + "/" + cfg.Replacement.String() + "/" + cfg.Placement.String() + "/" + cfg.Write.String()
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 8; seed++ {
				checkFlushAgainstFullScan(t, cfg, seed)
			}
		})
	}
}

func checkFlushAgainstFullScan(t *testing.T, cfg Config, seed uint64) {
	t.Helper()
	ba, bb := &recordingBackend{}, &recordingBackend{}
	a, b := New(cfg, ba), New(cfg, bb)
	a.ReseedPlacement(seed)
	b.ReseedPlacement(seed)
	var snapA, snapB *Snapshot
	src := prng.NewMWC(seed)
	// Twice the cache's span, so sets conflict and lines get evicted.
	span := 2 * cfg.Size
	addr := func() mem.Addr { return mem.Addr(prng.Intn(src, span)) }
	flushes := 0
	seen := 0 // transactions already compared
	for op := 0; op < 3000; op++ {
		var la, lb mem.Cycles
		switch k := prng.Intn(src, 100); {
		case k < 45:
			x := addr()
			la, lb = a.Read(x, 4), b.Read(x, 4)
		case k < 80:
			x := addr()
			la, lb = a.Write(x, 4), b.Write(x, 4)
		case k < 85:
			x, n := addr(), 1+prng.Intn(src, 4*cfg.LineSize)
			la, lb = a.InvalidateRange(x, n), b.InvalidateRange(x, n)
		case k < 90:
			x, n := addr(), 1+prng.Intn(src, 4*cfg.LineSize)
			la, lb = a.WritebackRange(x, n), b.WritebackRange(x, n)
		case k < 93:
			snapA, snapB = a.Snapshot(), b.Snapshot()
		case k < 96:
			if snapA != nil {
				a.Restore(snapA)
				b.Restore(snapB)
			}
		default:
			la, lb = a.FlushAll(), fullScanFlush(b)
			flushes++
			if a.ValidLines() != 0 || b.ValidLines() != 0 {
				t.Fatalf("seed %d op %d: %d/%d valid lines after flush", seed, op, a.ValidLines(), b.ValidLines())
			}
		}
		if la != lb {
			t.Fatalf("seed %d op %d: latency %d, full scan %d", seed, op, la, lb)
		}
		if a.Counters() != b.Counters() {
			t.Fatalf("seed %d op %d: counters %+v, full scan %+v", seed, op, a.Counters(), b.Counters())
		}
		if len(ba.log) != len(bb.log) || !reflect.DeepEqual(ba.log[seen:], bb.log[seen:]) {
			t.Fatalf("seed %d op %d: next-level traffic diverged (%d vs %d transactions)",
				seed, op, len(ba.log), len(bb.log))
		}
		seen = len(ba.log)
	}
	if flushes == 0 {
		t.Fatalf("seed %d: no flush exercised", seed)
	}
	// A snapshot taken while lines are filled, a flush, then the
	// restore: the restored lines must be flushed again.
	for x := mem.Addr(0); x < mem.Addr(span); x += mem.Addr(cfg.LineSize) {
		a.Write(x, 4)
		b.Write(x, 4)
		a.Read(x, 4)
		b.Read(x, 4)
	}
	snapA, snapB = a.Snapshot(), b.Snapshot()
	a.FlushAll()
	fullScanFlush(b)
	a.Restore(snapA)
	b.Restore(snapB)
	if la, lb := a.FlushAll(), fullScanFlush(b); la != lb || a.Counters() != b.Counters() {
		t.Fatalf("seed %d: flush after restore: latency %d vs %d, counters %+v vs %+v",
			seed, la, lb, a.Counters(), b.Counters())
	}
	if !reflect.DeepEqual(ba.log, bb.log) {
		t.Fatalf("seed %d: next-level traffic diverged after restore", seed)
	}
	if a.ValidLines() != 0 {
		t.Fatalf("seed %d: %d valid lines after flushing a restored snapshot", seed, a.ValidLines())
	}
}
