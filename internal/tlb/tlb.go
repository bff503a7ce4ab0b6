// Package tlb models the LEON3 MMU translation lookaside buffers: 64
// entries each for instructions and data (§III.A of the paper). The DSR
// pool allocator randomises TLB contents indirectly by drawing memory
// from a diverse set of pages (§III.B.5); a TLB miss costs a page-table
// walk through the memory hierarchy, modelled here as the WalkLevels
// reads of the SRMMU's 3-level walk issued to a backend. A hit costs
// nothing: the LEON3 pipelines it.
package tlb

import (
	"fmt"

	"dsr/internal/mem"
	"dsr/internal/telemetry"
)

// Config describes a TLB instance: a name and an entry count. The
// timing is the modelled LEON3's and not configurable: a hit costs 0
// cycles, a miss the WalkLevels page-table reads of one walk.
type Config struct {
	Name    string
	Entries int
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Entries <= 0 {
		return fmt.Errorf("tlb %q: non-positive entry count", c.Name)
	}
	return nil
}

// Counters are the TLB performance events. Accesses is always
// Hits+Misses; the TLB maintains only the latter two internally and
// derives Accesses in snapshots, which keeps the translation fast path
// to a single counter increment.
type Counters struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
}

// MissRatio returns misses/accesses, or 0 for an untouched TLB.
func (c Counters) MissRatio() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

type entry struct {
	valid bool
	page  mem.Addr
	age   uint64
}

// hintSize is the number of direct-mapped lookup hints (page → entry
// index) kept alongside the entry array. Hints are pure accelerators:
// always validated against the entry before use, so staleness after an
// eviction is harmless. 16 slots cover the hot working sets seen by the
// data TLB (stack page + a handful of data pages) without measurable
// cost on misses.
const (
	hintSize = 16
	hintMask = hintSize - 1
)

type hint struct {
	page mem.Addr // sentinel ^0 when empty
	idx  int32
}

// TLB is a fully associative, LRU-replaced translation buffer. The SRMMU
// TLB is fully associative, which is why software randomisation affects
// it only through the *number* of distinct pages touched, not their
// layout — the model reflects that.
type TLB struct {
	walkMem mem.Backend
	entries []entry
	clock   uint64
	ctr     Counters
	// mruPage/mru cache the most recently hit/inserted translation:
	// mruPage is the page number (sentinel ^0 when empty) and mru the
	// index of its entry. Translation streams have strong page locality,
	// so comparing against mruPage first turns the common
	// same-page-as-last-time case into one compare instead of a linear
	// scan. The pair is a lookup accelerator only — it is updated
	// together on every scan hit and insert, so it can never disagree
	// with the entry array, and a failed compare degrades to the scan.
	// Counters, ages and replacement are bit-identical either way. mru
	// is an index rather than an *entry so updates avoid the GC write
	// barrier a pointer-field store would pay on the hot path.
	//
	// hitsMark defers the fast path's clock tick and age write: a
	// fast-path hit only increments ctr.Hits, and settle() — run on
	// entry to every slow path — advances the clock by the number of
	// hits taken since the last settle (ctr.Hits - hitsMark) and writes
	// the MRU entry's age once. This is exact because clock and entry
	// ages are consumed only inside the slow paths (scan-hit age
	// updates, insert's LRU victim scan), which all pass through
	// settle() first: at that moment clock holds exactly the value the
	// last fast-path hit would have left, and no other age was written
	// in between (every other write also goes through a slow path). The
	// deferral is what brings Translate under the inlining budget, so
	// the common same-page translation costs one compare and one
	// increment with no call.
	mruPage  mem.Addr
	mru      int32
	hitsMark uint64
	// hints is the direct-mapped page→entry-index accelerator (see
	// the hint type); indexed by page & hintMask.
	hints [hintSize]hint
	// walkBase is a fixed region where the page tables live; walks read
	// from it so that walk traffic perturbs the data cache hierarchy the
	// way real walks do.
	walkBase mem.Addr

	// att, when set, books walks to comp (see SetAttribution).
	att  *telemetry.Attribution
	comp telemetry.Component
}

// New builds a TLB whose page-table walks are serviced by walkMem.
func New(cfg Config, walkMem mem.Backend, walkBase mem.Addr) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if walkMem == nil {
		panic(fmt.Sprintf("tlb %q: nil walk backend", cfg.Name))
	}
	t := &TLB{
		walkMem:  walkMem,
		entries:  make([]entry, cfg.Entries),
		mruPage:  ^mem.Addr(0), // sentinel: no translation cached yet
		walkBase: walkBase,
	}
	t.clearHints()
	return t
}

// SetAttribution installs (or clears, with nil) the cycle-attribution
// profiler: every page-table walk then books its latency to comp, in a
// hushed span. A hit costs nothing and books nothing.
func (t *TLB) SetAttribution(att *telemetry.Attribution, comp telemetry.Component) {
	t.att, t.comp = att, comp
}

// Counters returns a snapshot of the event counters.
func (t *TLB) Counters() Counters {
	c := t.ctr
	c.Accesses = c.Hits + c.Misses
	return c
}

// ResetCounters zeroes the event counters without touching contents.
// Deferred fast-path bookkeeping is settled first so the LRU clock
// stays aligned with the reference implementation across the reset.
func (t *TLB) ResetCounters() {
	t.settle()
	t.ctr = Counters{}
	t.hitsMark = 0
}

// Translate looks up the page containing addr and returns its latency:
// 0 on a hit, the page-table walk's on a miss. The MRU translation is
// checked first — one compare on the same-page-as-last-time fast path,
// which is small enough to inline into the CPU's access routines —
// before falling back to the hint table and then the scan; all paths
// perform identical counter and age updates, so the accelerators never
// change behaviour.
func (t *TLB) Translate(addr mem.Addr) mem.Cycles {
	if addr/mem.PageSize == t.mruPage {
		t.ctr.Hits++ // clock/age deferred; see hitsMark
		return 0
	}
	return t.translateScan(addr / mem.PageSize)
}

// settle applies the fast path's deferred bookkeeping: the clock
// advances by one per deferred hit and the MRU entry's age is written
// once, landing on exactly the values an eager implementation would
// have produced (see the hitsMark field comment). Runs on entry to
// every slow path and before counter resets.
func (t *TLB) settle() {
	if d := t.ctr.Hits - t.hitsMark; d != 0 {
		t.clock += d
		t.entries[t.mru].age = t.clock
		t.hitsMark = t.ctr.Hits
	}
}

// translateScan resolves a non-MRU page: first via the direct-mapped
// hint table (covers small multi-page working sets, e.g. stack/data
// alternation in the DTLB), then the full scan. Hints are validated
// against the entry array before use — a stale hint (its entry was
// evicted) fails the compare and degrades to the scan.
func (t *TLB) translateScan(page mem.Addr) mem.Cycles {
	t.settle()
	if h := &t.hints[page&hintMask]; h.page == page {
		if e := &t.entries[h.idx]; e.valid && e.page == page {
			return t.hit(e, page, h.idx)
		}
	}
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].page == page {
			t.hints[page&hintMask] = hint{page: page, idx: int32(i)}
			return t.hit(&t.entries[i], page, int32(i))
		}
	}
	return t.translateMiss(page)
}

// hit completes a translateScan hit on entry e, index idx, for page.
func (t *TLB) hit(e *entry, page mem.Addr, idx int32) mem.Cycles {
	t.ctr.Hits++
	t.clock++
	e.age = t.clock
	t.hitsMark = t.ctr.Hits // eager hit: clock already ticked
	t.mruPage, t.mru = page, idx
	return 0
}

// WalkLevels is the number of page-table reads one walk makes: the
// SRMMU's 3-level walk, len(WalkAddrs(base, page)).
const WalkLevels = 3

// WalkAddrs returns the addresses of the page-table entries a walk for
// page reads, level 1 first, with the tables at base. The walk is
// modelled after the SRMMU's multi-level tables: the upper-level
// entries are shared by large page groups (a level-1 entry covers
// 16 MB, a level-2 entry 256 KB), so walks for nearby pages re-read the
// same table lines and hit in the L2 — only the per-page level-3 entry
// is unique. This is what keeps TLB-miss cost low even when the DSR
// pools spread objects over many pages. A walk reads all of them.
func WalkAddrs(base, page mem.Addr) [WalkLevels]mem.Addr {
	return [WalkLevels]mem.Addr{
		base + (page>>12)*mem.WordSize,         // level 1
		base + 0x1000 + (page>>6)*mem.WordSize, // level 2
		base + 0x100000 + page*mem.WordSize,    // level 3
	}
}

// translateMiss is the outlined walk path, keeping the hit path compact.
//
//go:noinline
func (t *TLB) translateMiss(page mem.Addr) mem.Cycles {
	t.ctr.Misses++
	var lat mem.Cycles
	t.att.Hush()
	for _, a := range WalkAddrs(t.walkBase, page) {
		lat += t.walkMem.Read(a, mem.WordSize)
	}
	t.att.Unhush(t.comp, lat)
	t.insert(page)
	return lat
}

func (t *TLB) insert(page mem.Addr) {
	victim := 0
	for i := range t.entries {
		if !t.entries[i].valid {
			victim = i
			goto place
		}
		if t.entries[i].age < t.entries[victim].age {
			victim = i
		}
	}
place:
	t.clock++
	t.entries[victim] = entry{valid: true, page: page, age: t.clock}
	t.mruPage, t.mru = page, int32(victim)
	t.hints[page&hintMask] = hint{page: page, idx: int32(victim)}
}

// clearHints empties the MRU and hint accelerators.
func (t *TLB) clearHints() {
	t.mruPage, t.mru = ^mem.Addr(0), 0
	for i := range t.hints {
		t.hints[i] = hint{page: ^mem.Addr(0)}
	}
}

// Flush invalidates all entries (partition start, as with the caches).
func (t *TLB) Flush() {
	t.settle() // keep the LRU clock aligned across the flush
	for i := range t.entries {
		t.entries[i] = entry{}
	}
	t.clearHints()
}

// ValidEntries returns the number of valid entries (test convenience).
func (t *TLB) ValidEntries() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].valid {
			n++
		}
	}
	return n
}
