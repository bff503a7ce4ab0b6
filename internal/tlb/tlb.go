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

// TLB is a fully associative, LRU-replaced translation buffer. The SRMMU
// TLB is fully associative, which is why software randomisation affects
// it only through the *number* of distinct pages touched, not their
// layout — the model reflects that.
type TLB struct {
	walkMem mem.Backend
	// pages[:n] are the resident page numbers in recency order, most
	// recently used first, so pages[n-1] is the LRU victim; pages[0] is
	// the sentinel ^0 while the TLB is empty (no address maps to it),
	// which lets Translate test the most recent page with one compare.
	pages []mem.Addr
	n     int
	ctr   Counters
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
	t := &TLB{walkMem: walkMem, pages: make([]mem.Addr, cfg.Entries), walkBase: walkBase}
	t.Flush()
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
func (t *TLB) ResetCounters() { t.ctr = Counters{} }

// Translate looks up the page containing addr and returns its latency:
// 0 on a hit, the page-table walk's on a miss. The most recent page is
// checked first — one compare on the same-page-as-last-time fast path,
// which is small enough to inline into the CPU's access routines.
func (t *TLB) Translate(addr mem.Addr) mem.Cycles {
	if addr/mem.PageSize == t.pages[0] {
		t.ctr.Hits++
		return 0
	}
	return t.translateSlow(addr / mem.PageSize)
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

// translateSlow resolves a page that is not the most recent one. One
// pass walks the recency order and moves each page it passes back by
// one slot, with page in front: a hit stops where page was, so it moves
// to the front; a miss walks the page tables and drops the LRU page
// pages[n-1] when the TLB is full. This is exact LRU with invalid-first
// insertion. Real traffic finds most pages within a few slots of the
// front, so the pass is short.
func (t *TLB) translateSlow(page mem.Addr) mem.Cycles {
	prev := page
	for i, p := range t.pages[:t.n] {
		t.pages[i] = prev
		if p == page {
			t.ctr.Hits++
			return 0
		}
		prev = p
	}
	if t.n < len(t.pages) {
		t.pages[t.n] = prev
		t.n++
	}
	t.ctr.Misses++
	var lat mem.Cycles
	t.att.Hush()
	for _, a := range WalkAddrs(t.walkBase, page) {
		lat += t.walkMem.Read(a, mem.WordSize)
	}
	t.att.Unhush(t.comp, lat)
	return lat
}

// Flush invalidates all entries (partition start, as with the caches).
func (t *TLB) Flush() {
	t.n = 0
	t.pages[0] = ^mem.Addr(0)
}

// ValidEntries returns the number of valid entries (test convenience).
func (t *TLB) ValidEntries() int { return t.n }
