package tlb

import (
	"cmp"
	"slices"
	"testing"

	"dsr/internal/mem"
	"dsr/internal/prng"
	"dsr/internal/telemetry"
)

// refEntry is one entry of the reference TLB.
type refEntry struct {
	valid bool
	page  mem.Addr
	age   uint64
}

// refTLB is the plain eager reference the production recency list must
// be bit-identical to: a linear-scan, fully associative LRU buffer that
// stamps an age from a clock on every access and evicts the first
// invalid entry, else the oldest.
type refTLB struct {
	walkMem mem.Backend
	entries []refEntry
	clock   uint64
	ctr     Counters
	base    mem.Addr
}

func newRefTLB(cfg Config, walkMem mem.Backend, base mem.Addr) *refTLB {
	return &refTLB{walkMem: walkMem, entries: make([]refEntry, cfg.Entries), base: base}
}

func (t *refTLB) translate(addr mem.Addr) mem.Cycles {
	page := mem.Page(addr)
	t.ctr.Accesses++
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].page == page {
			t.ctr.Hits++
			t.clock++
			t.entries[i].age = t.clock
			return 0
		}
	}
	t.ctr.Misses++
	var lat mem.Cycles
	for _, a := range []mem.Addr{
		t.base + (page>>12)*mem.WordSize,
		t.base + 0x1000 + (page>>6)*mem.WordSize,
		t.base + 0x100000 + page*mem.WordSize,
	} {
		lat += t.walkMem.Read(a, mem.WordSize)
	}
	victim := 0
	for i := range t.entries {
		if !t.entries[i].valid {
			victim = i
			break
		}
		if t.entries[i].age < t.entries[victim].age {
			victim = i
		}
	}
	t.clock++
	t.entries[victim] = refEntry{valid: true, page: page, age: t.clock}
	return lat
}

func (t *refTLB) flush() {
	for i := range t.entries {
		t.entries[i] = refEntry{}
	}
}

// clone copies the reference's state (its snapshot), sharing walkMem.
func (t *refTLB) clone() *refTLB {
	c := *t
	c.entries = slices.Clone(t.entries)
	return &c
}

// order returns the valid pages sorted by descending age: the recency
// order the production TLB keeps in pages[:n].
func (t *refTLB) order() []mem.Addr {
	var valid []refEntry
	for _, e := range t.entries {
		if e.valid {
			valid = append(valid, e)
		}
	}
	slices.SortFunc(valid, func(a, b refEntry) int { return cmp.Compare(b.age, a.age) })
	pages := make([]mem.Addr, len(valid))
	for i, e := range valid {
		pages[i] = e.page
	}
	return pages
}

type walkCounter struct{ reads int }

func (w *walkCounter) Read(mem.Addr, int) mem.Cycles  { w.reads++; return 11 }
func (w *walkCounter) Write(mem.Addr, int) mem.Cycles { return 0 }

// checkSame fails unless prod holds ref's counters, walk traffic and
// recency order (which fixes the resident set and every later victim).
func checkSame(t testing.TB, at int, prod *TLB, wProd *walkCounter, ref *refTLB, wRef *walkCounter) {
	t.Helper()
	if got, want := prod.Counters(), (Counters{
		Accesses: ref.ctr.Hits + ref.ctr.Misses,
		Hits:     ref.ctr.Hits, Misses: ref.ctr.Misses,
	}); got != want {
		t.Fatalf("op %d: counters %+v, want %+v", at, got, want)
	}
	if wProd.reads != wRef.reads {
		t.Fatalf("op %d: %d walk reads (prod) != %d (ref)", at, wProd.reads, wRef.reads)
	}
	if got, want := prod.pages[:prod.n], ref.order(); !slices.Equal(got, want) {
		t.Fatalf("op %d: recency order %#x, want %#x", at, got, want)
	}
	if prod.n == 0 && prod.pages[0] != ^mem.Addr(0) {
		t.Fatalf("op %d: empty TLB front %#x, want the ^0 sentinel", at, prod.pages[0])
	}
}

// TestTranslateEquivalence drives the production TLB and the eager
// reference with identical address streams — mixtures of same-page
// streaks (the inlined front compare), small alternating working sets
// (short recency passes) and capacity-evicting sweeps (full passes and
// LRU drops) — with flushes and counter resets interleaved. Latency
// must match on every access, and counters, walk traffic and the
// recency order itself at every checkpoint. Midway, a second TLB is
// restored from a snapshot of the first and driven alongside it; it
// must stay equal to the reference too. The _attributed variants
// install a profiler mid-stream, which must change nothing and book
// exactly the latency of every later translation. The small
// configurations keep evictions frequent.
func TestTranslateEquivalence(t *testing.T) {
	cfgs := []Config{
		{Name: "itlb", Entries: 64},
		{Name: "small", Entries: 4},
		{Name: "two", Entries: 2},
		{Name: "eight", Entries: 8},
	}
	for _, cfg := range cfgs {
		for _, attributed := range []bool{false, true} {
			name := cfg.Name
			if attributed {
				name += "_attributed"
			}
			t.Run(name, func(t *testing.T) { checkTranslateEquivalence(t, cfg, attributed) })
		}
	}
}

func checkTranslateEquivalence(t *testing.T, cfg Config, attributed bool) {
	wProd, wRef := &walkCounter{}, &walkCounter{}
	prod := New(cfg, wProd, 0x7000_0000)
	ref := newRefTLB(cfg, wRef, 0x7000_0000)
	var clone *TLB
	var wClone *walkCounter
	src := prng.NewMWC(0xD1FF ^ uint64(cfg.Entries))
	page := mem.Addr(0)
	var att *telemetry.Attribution
	var booked mem.Cycles
	for i := 0; i < 60000; i++ {
		if attributed && i == 20000 {
			att = telemetry.NewAttribution()
			prod.SetAttribution(att, telemetry.CompDTLBWalk)
		}
		if i == 30000 {
			wClone = &walkCounter{reads: wProd.reads}
			clone = New(cfg, wClone, 0x7000_0000)
			clone.Restore(prod.Snapshot())
		}
		switch prng.Intn(src, 100) {
		case 0: // flush (partition start)
			prod.Flush()
			ref.flush()
			if clone != nil {
				clone.Flush()
			}
			continue
		case 1: // counter reset mid-stream
			prod.ResetCounters()
			ref.ctr = Counters{}
			if clone != nil {
				clone.ResetCounters()
			}
			continue
		case 2, 3, 4: // jump to a random page (sweeps + evictions)
			page = mem.Addr(prng.Intn(src, 3*cfg.Entries))
		case 5, 6, 7, 8, 9, 10: // alternate within a small working set
			page = mem.Addr(prng.Intn(src, 3))
		default: // stay on the same page (the inlined front compare)
		}
		addr := page*mem.PageSize + mem.Addr(prng.Intn(src, int(mem.PageSize)))
		lp, lr := prod.Translate(addr), ref.translate(addr)
		if lp != lr {
			t.Fatalf("access %d page %#x: latency %d (prod) != %d (ref)", i, page, lp, lr)
		}
		if clone != nil {
			if lc := clone.Translate(addr); lc != lr {
				t.Fatalf("access %d page %#x: latency %d (restored) != %d (ref)", i, page, lc, lr)
			}
		}
		if att != nil {
			booked += lp
		}
		if i%1000 == 0 {
			checkSame(t, i, prod, wProd, ref, wRef)
			if clone != nil {
				checkSame(t, i, clone, wClone, ref, wRef)
			}
		}
	}
	checkSame(t, 60000, prod, wProd, ref, wRef)
	checkSame(t, 60000, clone, wClone, ref, wRef)
	if got := att.Component(telemetry.CompDTLBWalk); got != booked || att.Total() != booked {
		t.Fatalf("booked %d cycles (total %d) for %d cycles of translations", got, att.Total(), booked)
	}
}

// FuzzTLB runs an op stream against the production TLB and the
// reference at 2, 8 and 64 entries. Each op byte's low three bits pick
// the op: 0 Flush, 1 ResetCounters, 2 Snapshot (both sides keep a
// copy), 3 restore the last snapshot onto a fresh TLB that replaces the
// current one, 4-5 translate within a small range of 4 pages (page and
// in-page offset from the high bits), 6-7 translate within a large
// range of 256 pages (page from the next byte). After every op the two
// must agree on latency, counters, walk traffic and recency order.
func FuzzTLB(f *testing.F) {
	f.Add([]byte{0x04, 0x0c, 0x14, 0x04, 0x1c, 0x0c})
	f.Add([]byte{0x06, 0x00, 0x06, 0x01, 0x02, 0x06, 0x02, 0x03, 0x06, 0x00})
	f.Add([]byte{0x04, 0x02, 0x0c, 0x14, 0x01, 0x03, 0x1c, 0x00, 0x03, 0x04})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, entries := range []int{2, 8, 64} {
			cfg := Config{Name: "fuzz", Entries: entries}
			wProd, wRef := &walkCounter{}, &walkCounter{}
			prod := New(cfg, wProd, 0x7000_0000)
			ref := newRefTLB(cfg, wRef, 0x7000_0000)
			var snap *Snapshot
			var refSnap *refTLB
			for i := 0; i < len(ops); i++ {
				b := ops[i]
				var page mem.Addr
				switch b & 7 {
				case 0:
					prod.Flush()
					ref.flush()
				case 1:
					prod.ResetCounters()
					ref.ctr = Counters{}
				case 2:
					snap, refSnap = prod.Snapshot(), ref.clone()
				case 3:
					if snap != nil {
						prod = New(cfg, wProd, 0x7000_0000)
						prod.Restore(snap)
						ref = refSnap.clone()
					}
				case 4, 5:
					page = mem.Addr(b>>3) & 3
				case 6, 7:
					if i+1 < len(ops) {
						i++
						page = mem.Addr(ops[i])
					}
				}
				if b&7 >= 4 {
					addr := page*mem.PageSize + mem.Addr(b>>5)*mem.WordSize
					if lp, lr := prod.Translate(addr), ref.translate(addr); lp != lr {
						t.Fatalf("%d entries, op %d: latency %d (prod) != %d (ref)", entries, i, lp, lr)
					}
				}
				checkSame(t, i, prod, wProd, ref, wRef)
			}
		}
	})
}
