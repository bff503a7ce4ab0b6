package tlb

import (
	"testing"

	"dsr/internal/mem"
	"dsr/internal/prng"
	"dsr/internal/telemetry"
)

// refTLB is the plain eager reference the production TLB's accelerators
// (MRU page, hint table, deferred clock/age settling) must be
// bit-identical to: a linear-scan, fully associative LRU buffer that
// updates every counter and age on every access.
type refTLB struct {
	walkMem mem.Backend
	entries []entry
	clock   uint64
	ctr     Counters
	base    mem.Addr
}

func newRefTLB(cfg Config, walkMem mem.Backend, base mem.Addr) *refTLB {
	return &refTLB{walkMem: walkMem, entries: make([]entry, cfg.Entries), base: base}
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
	t.entries[victim] = entry{valid: true, page: page, age: t.clock}
	return lat
}

func (t *refTLB) flush() {
	for i := range t.entries {
		t.entries[i] = entry{}
	}
}

type walkCounter struct{ reads int }

func (w *walkCounter) Read(mem.Addr, int) mem.Cycles  { w.reads++; return 11 }
func (w *walkCounter) Write(mem.Addr, int) mem.Cycles { return 0 }

// TestTranslateEquivalence drives the production TLB and the eager
// reference with identical address streams — mixtures of same-page
// streaks (the deferred fast path), small alternating working sets (the
// hint table) and capacity-evicting sweeps (the LRU victim scan) — with
// flushes and counter resets interleaved to exercise the settle
// boundaries. Latency must match on every access, counters and the
// walk traffic at every checkpoint, and the resident set at the end.
// The _attributed variants install a profiler mid-stream (deferred
// fast-path hits pending), which must change nothing and book exactly
// the latency of every later translation. The small configurations
// keep evictions frequent.
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
	src := prng.NewMWC(0xD1FF ^ uint64(cfg.Entries))
	page := mem.Addr(0)
	var att *telemetry.Attribution
	var booked mem.Cycles
	for i := 0; i < 60000; i++ {
		if attributed && i == 20000 {
			att = telemetry.NewAttribution()
			prod.SetAttribution(att, telemetry.CompDTLBWalk)
		}
		switch prng.Intn(src, 100) {
		case 0: // flush (partition start)
			prod.Flush()
			ref.flush()
			continue
		case 1: // counter reset mid-stream
			prod.ResetCounters()
			ref.ctr = Counters{}
			continue
		case 2, 3, 4: // jump to a random page (sweeps + evictions)
			page = mem.Addr(prng.Intn(src, 3*cfg.Entries))
		case 5, 6, 7, 8, 9, 10: // alternate within a small working set
			page = mem.Addr(prng.Intn(src, 3))
		default: // stay on the same page (the deferred fast path)
		}
		addr := page*mem.PageSize + mem.Addr(prng.Intn(src, int(mem.PageSize)))
		lp, lr := prod.Translate(addr), ref.translate(addr)
		if lp != lr {
			t.Fatalf("access %d page %#x: latency %d (prod) != %d (ref)", i, page, lp, lr)
		}
		if att != nil {
			booked += lp
		}
		if i%1000 == 0 {
			if got, want := prod.Counters(), (Counters{
				Accesses: ref.ctr.Hits + ref.ctr.Misses,
				Hits:     ref.ctr.Hits, Misses: ref.ctr.Misses,
			}); got != want {
				t.Fatalf("access %d: counters %+v, want %+v", i, got, want)
			}
			if wProd.reads != wRef.reads {
				t.Fatalf("access %d: %d walk reads (prod) != %d (ref)", i, wProd.reads, wRef.reads)
			}
		}
	}
	if prod.ValidEntries() != func() int {
		n := 0
		for i := range ref.entries {
			if ref.entries[i].valid {
				n++
			}
		}
		return n
	}() {
		t.Fatal("resident entry count diverged")
	}
	// The resident *set* (not just its size) must match: evictions
	// depend on ages, so any drift in the deferred clock shows up
	// here as a different survivor.
	resident := map[mem.Addr]bool{}
	for i := range ref.entries {
		if ref.entries[i].valid {
			resident[ref.entries[i].page] = true
		}
	}
	for i := range prod.entries {
		if prod.entries[i].valid && !resident[prod.entries[i].page] {
			t.Fatalf("page %#x resident in prod but not in ref", prod.entries[i].page)
		}
	}
	if got := att.Component(telemetry.CompDTLBWalk); got != booked || att.Total() != booked {
		t.Fatalf("booked %d cycles (total %d) for %d cycles of translations", got, att.Total(), booked)
	}
}
