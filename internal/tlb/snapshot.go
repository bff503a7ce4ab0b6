package tlb

import "dsr/internal/mem"

// Snapshot is a full copy of a TLB's architectural and counter state:
// the pages in recency order and the counters. Restoring it forks a
// booted machine's translation state for the next run.
type Snapshot struct {
	pages []mem.Addr
	n     int
	ctr   Counters
}

// Snapshot captures the TLB's complete state.
func (t *TLB) Snapshot() *Snapshot {
	return &Snapshot{pages: append([]mem.Addr(nil), t.pages...), n: t.n, ctr: t.ctr}
}

// Restore reinstates a state captured by Snapshot on this TLB. The
// snapshot must come from a TLB with the same entry count (in practice:
// from this TLB).
func (t *TLB) Restore(s *Snapshot) {
	if len(s.pages) != len(t.pages) {
		panic("tlb: Restore with mismatched snapshot geometry")
	}
	copy(t.pages, s.pages)
	t.n, t.ctr = s.n, s.ctr
}
