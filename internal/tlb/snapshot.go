package tlb

import "dsr/internal/mem"

// Snapshot is a full copy of a TLB's architectural and counter state:
// entries, LRU clock (with the fast path's deferred bookkeeping settled
// first), counters and lookup accelerators. Restoring it forks a booted
// machine's translation state for the next run.
type Snapshot struct {
	entries  []entry
	clock    uint64
	ctr      Counters
	mruPage  mem.Addr
	mru      int32
	hitsMark uint64
	hints    [hintSize]hint
}

// Snapshot captures the TLB's complete state. Deferred fast-path
// bookkeeping is settled first so the copy is the canonical state an
// eager implementation would hold.
func (t *TLB) Snapshot() *Snapshot {
	t.settle()
	return &Snapshot{
		entries:  append([]entry(nil), t.entries...),
		clock:    t.clock,
		ctr:      t.ctr,
		mruPage:  t.mruPage,
		mru:      t.mru,
		hitsMark: t.hitsMark,
		hints:    t.hints,
	}
}

// Restore reinstates a state captured by Snapshot on this TLB. The
// snapshot must come from a TLB with the same entry count (in practice:
// from this TLB).
func (t *TLB) Restore(s *Snapshot) {
	if len(s.entries) != len(t.entries) {
		panic("tlb: Restore with mismatched snapshot geometry")
	}
	copy(t.entries, s.entries)
	t.clock = s.clock
	t.ctr = s.ctr
	t.mruPage, t.mru = s.mruPage, s.mru
	t.hitsMark = s.hitsMark
	t.hints = s.hints
}
