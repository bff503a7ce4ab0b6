package cache

import "dsr/internal/prng"

// Snapshot is a full copy of a cache's architectural and counter state —
// lines (in their recency order) and the filled bitmap, counters,
// placement-hash seed and (when the policy is random) the replacement
// generator state. A booted platform captures one per cache level;
// restoring it forks the boot state for the next run without replaying
// the boot traffic.
type Snapshot struct {
	lines  []line
	filled []uint64
	ctr    Counters

	hashSeed  uint64
	replState uint64
	hasRepl   bool
}

// Snapshot captures the cache's complete state.
func (c *Cache) Snapshot() *Snapshot {
	s := &Snapshot{
		lines:    append([]line(nil), c.lines...),
		filled:   append([]uint64(nil), c.filled...),
		ctr:      c.ctr,
		hashSeed: c.hashSeed,
	}
	if st, ok := c.repl.(prng.Stateful); ok {
		s.replState, s.hasRepl = st.State(), true
	}
	return s
}

// Restore reinstates a state captured by Snapshot on this cache. The
// snapshot must come from a cache of identical geometry (in practice:
// from this cache); contents, recency order, counters and generator
// state all revert, so a run after Restore is bit-identical to a run
// after the original boot.
func (c *Cache) Restore(s *Snapshot) {
	if len(s.lines) != len(c.lines) || len(s.filled) != len(c.filled) {
		panic("cache: Restore with mismatched snapshot geometry")
	}
	copy(c.lines, s.lines)
	copy(c.filled, s.filled)
	c.ctr = s.ctr
	c.hashSeed = s.hashSeed
	if st, ok := c.repl.(prng.Stateful); ok && s.hasRepl {
		st.SetState(s.replState)
	}
}
