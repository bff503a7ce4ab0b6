package cache

import "dsr/internal/prng"

// Snapshot is a full copy of a cache's architectural and counter state —
// lines and their filled bitmap, LRU clock, counters, placement-hash seed and (when the policy
// is random) the replacement generator state. A booted platform captures
// one per cache level; restoring it forks the boot state for the next
// run without replaying the boot traffic.
type Snapshot struct {
	lines   []line
	filled  []uint64
	clock   uint64
	ctr     Counters
	mru     []int32
	mruIdx  int32
	mruIdx2 int32

	hashSeed  uint64
	replState uint64
	hasRepl   bool
}

// Snapshot captures the cache's complete state.
func (c *Cache) Snapshot() *Snapshot {
	s := &Snapshot{
		lines:    append([]line(nil), c.lines...),
		filled:   append([]uint64(nil), c.filled...),
		clock:    c.clock,
		ctr:      c.ctr,
		mru:      append([]int32(nil), c.mru...),
		mruIdx:   c.mruIdx,
		mruIdx2:  c.mruIdx2,
		hashSeed: c.hashSeed,
	}
	if st, ok := c.repl.(prng.Stateful); ok {
		s.replState, s.hasRepl = st.State(), true
	}
	return s
}

// Restore reinstates a state captured by Snapshot on this cache. The
// snapshot must come from a cache of identical geometry (in practice:
// from this cache); contents, LRU ages, counters and generator state all
// revert, so a run after Restore is bit-identical to a run after the
// original boot.
func (c *Cache) Restore(s *Snapshot) {
	if len(s.lines) != len(c.lines) || len(s.mru) != len(c.mru) {
		panic("cache: Restore with mismatched snapshot geometry")
	}
	copy(c.lines, s.lines)
	copy(c.filled, s.filled)
	c.clock = s.clock
	c.ctr = s.ctr
	copy(c.mru, s.mru)
	c.mruIdx = s.mruIdx
	c.mruIdx2 = s.mruIdx2
	c.hashSeed = s.hashSeed
	if st, ok := c.repl.(prng.Stateful); ok && s.hasRepl {
		st.SetState(s.replState)
	}
}
