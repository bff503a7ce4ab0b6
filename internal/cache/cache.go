// Package cache models the set-associative caches of the PROXIMA LEON3
// platform (Fig. 1 of the paper): split 16KB 4-way L1 instruction and data
// caches (the data cache is write-through, no-write-allocate) and a 32KB
// direct-mapped unified write-back L2. The model is geometry- and
// policy-parametric so that the same code also implements the
// hardware-randomised caches used in the A4 ablation (random placement via
// a seeded parametric hash, random replacement).
//
// A cache services transactions through the mem.Backend interface and
// forwards misses to the next Backend level, accumulating latency along
// the way. Per-cache event counters implement the platform's performance
// monitoring counters (Table I of the paper).
package cache

import (
	"fmt"
	"math/bits"

	"dsr/internal/mem"
	"dsr/internal/prng"
	"dsr/internal/telemetry"
)

// Placement selects how a line address is mapped to a set.
type Placement int

const (
	// PlacementModulo is the conventional COTS placement: set = line mod sets.
	PlacementModulo Placement = iota
	// PlacementHashRandom is a seeded parametric hash of the line address,
	// modelling a hardware time-randomised cache. Reseeding between runs
	// re-randomises the layout without moving software.
	PlacementHashRandom
)

func (p Placement) String() string {
	switch p {
	case PlacementModulo:
		return "modulo"
	case PlacementHashRandom:
		return "hash-random"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// Replacement selects the victim policy within a set.
type Replacement int

const (
	// ReplacementLRU evicts the least recently used way.
	ReplacementLRU Replacement = iota
	// ReplacementRandom evicts a uniformly random way (hardware
	// time-randomised caches).
	ReplacementRandom
)

func (r Replacement) String() string {
	switch r {
	case ReplacementLRU:
		return "LRU"
	case ReplacementRandom:
		return "random"
	default:
		return fmt.Sprintf("Replacement(%d)", int(r))
	}
}

// WritePolicy selects how stores are handled.
type WritePolicy int

const (
	// WriteThroughNoAllocate propagates every store to the next level and
	// does not allocate a line on a store miss (the LEON3 DL1 policy).
	WriteThroughNoAllocate WritePolicy = iota
	// WriteBackAllocate marks lines dirty and writes them back on
	// eviction, allocating on store misses (the LEON3 L2 policy).
	WriteBackAllocate
)

func (w WritePolicy) String() string {
	switch w {
	case WriteThroughNoAllocate:
		return "write-through/no-allocate"
	case WriteBackAllocate:
		return "write-back/allocate"
	default:
		return fmt.Sprintf("WritePolicy(%d)", int(w))
	}
}

// Config fully describes a cache instance.
type Config struct {
	Name        string
	Size        int // total bytes; must be LineSize*Ways*sets
	LineSize    int // bytes per line, power of two
	Ways        int // associativity; 1 = direct-mapped
	HitLatency  mem.Cycles
	Placement   Placement
	Replacement Replacement
	Write       WritePolicy
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.Size <= 0 || c.LineSize <= 0 || c.Ways <= 0:
		return fmt.Errorf("cache %q: non-positive geometry", c.Name)
	case c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineSize)
	case c.Size%(c.LineSize*c.Ways) != 0:
		return fmt.Errorf("cache %q: size %d not divisible by line*ways=%d",
			c.Name, c.Size, c.LineSize*c.Ways)
	}
	sets := c.Size / (c.LineSize * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry.
func (c *Config) Sets() int { return c.Size / (c.LineSize * c.Ways) }

// WaySize returns the bytes covered by one way. The paper's DSR runtime
// bounds its random placement offsets by the *L2* way size so that every
// cache level's layout is randomised (§III.B.4).
func (c *Config) WaySize() int { return c.Size / c.Ways }

// Counters are the cache's performance-monitoring events.
type Counters struct {
	Accesses      uint64
	Reads         uint64
	Writes        uint64
	Hits          uint64
	Misses        uint64
	ReadMisses    uint64
	WriteMisses   uint64
	Evictions     uint64
	Writebacks    uint64 // dirty lines written to the next level
	Invalidations uint64 // lines discarded by invalidate operations
	Fills         uint64 // lines allocated
}

type line struct {
	valid bool
	dirty bool
	tag   mem.Addr // full line address (addr / lineSize); simplest tag form
}

// Cache is a single cache level. It is not safe for concurrent use: the
// simulated platform is single-core, as in the paper.
//
// The access path is the simulator's per-instruction hot path (every
// fetch goes through the IL1, every load/store through the DL1), so the
// geometry is strength-reduced at construction: LineSize and the set
// count are powers of two (enforced by Config.Validate), which turns
// the per-access divisions into shifts and masks (TestSetIndexEquivalence,
// TestLineAddrEquivalence). Under LRU replacement each set keeps its
// ways in recency order, most recently used first: a hit on way 0 (the
// repeated-line pattern that dominates) costs one compare, a hit deeper
// in the set moves its line to the front, and the LRU victim is the
// last way. Random replacement picks its victim by way position, so it
// never reorders a set. Hits, misses, victims and latencies are those
// of the age-stamped LRU model (TestCacheMatchesAgeReference, FuzzCache
// and the golden cycle files). A bitmap of the sets filled since the
// last flush lets FlushAll, which runs at every partition start, visit
// only those sets (TestFlushAllMatchesFullScan).
type Cache struct {
	cfg   Config
	next  mem.Backend
	sets  int
	lines []line // sets × ways, row-major; under LRU each set MRU first
	ctr   Counters

	// Strength-reduced geometry: addr>>lineShift == addr/LineSize and
	// line&setMask == line%sets, because both are powers of two.
	lineShift uint
	setMask   mem.Addr
	ways      int
	hitLat    mem.Cycles

	// Policy flags fixed at New: wt is cfg.Write ==
	// WriteThroughNoAllocate, lru is cfg.Replacement == ReplacementLRU
	// (the only policy that reorders a set) and hash is cfg.Placement ==
	// PlacementHashRandom.
	wt, lru, hash bool

	// filled is a bitmap over sets (bit i%64 of word i/64 is set i)
	// marking every set filled since the last FlushAll. fill is the
	// only place a line becomes valid, so every set holding a valid
	// line is marked (invalidated lines may leave theirs marked). Lines
	// move within a set, so the bit is per set, not per line. FlushAll
	// walks the marked sets instead of every line, which makes the
	// per-run partition-start flush cost proportional to what the run
	// touched. Snapshot and Restore carry it with the lines.
	filled []uint64

	// obs, when non-nil, receives one event per line access (the attack
	// observer hook). The default is nil and every call site is guarded
	// by a nil check, so the hot paths pay one predictable branch and
	// zero allocations when observation is off (proven by
	// TestObserverDisabledZeroAlloc and BenchmarkReadHitObserverOff).
	obs Observer

	hashSeed uint64
	repl     prng.Source // used only for ReplacementRandom

	att  *telemetry.Attribution // see SetAttribution
	comp telemetry.Component
}

// Observer receives one event per line access serviced by the cache: the
// side channel an attacker measures. set is the index under the current
// placement; hit is the lookup outcome. Accesses that straddle a line
// boundary report one event per touched line, matching the latency
// model. Flush/invalidate/writeback maintenance sweeps are not reported
// (they probe by address without a lookup outcome); their traffic to the
// next level is observed there.
type Observer interface {
	OnAccess(write bool, set int, hit bool)
}

// SetObserver installs (or, with nil, removes) the access observer.
func (c *Cache) SetObserver(o Observer) { c.obs = o }

// SetOccupancy returns the number of valid lines in set idx — what an
// ideal prime+probe attacker learns about the set after the victim ran.
func (c *Cache) SetOccupancy(idx int) int {
	n := 0
	set := c.set(idx)
	for w := range set {
		if set[w].valid {
			n++
		}
	}
	return n
}

// Occupancies returns the per-set valid-line counts (see SetOccupancy).
func (c *Cache) Occupancies() []int {
	out := make([]int, c.sets)
	for idx := range out {
		out[idx] = c.SetOccupancy(idx)
	}
	return out
}

// New builds a cache in front of next. It panics on invalid configuration,
// because configurations are compiled into the platform description and a
// bad one is a programming error.
func New(cfg Config, next mem.Backend) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if next == nil {
		panic(fmt.Sprintf("cache %q: nil next level", cfg.Name))
	}
	c := &Cache{
		cfg:       cfg,
		next:      next,
		sets:      cfg.Sets(),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		ways:      cfg.Ways,
		hitLat:    cfg.HitLatency,
	}
	c.setMask = mem.Addr(c.sets - 1)
	c.lines = make([]line, c.sets*cfg.Ways)
	c.filled = make([]uint64, (c.sets+63)/64)
	c.wt = cfg.Write == WriteThroughNoAllocate
	c.lru = cfg.Replacement == ReplacementLRU
	c.hash = cfg.Placement == PlacementHashRandom
	if cfg.Replacement == ReplacementRandom {
		c.repl = prng.NewMWC(0xC0FFEE)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// SetAttribution installs (or clears, with nil) the cycle-attribution
// profiler, which then books the cache's self-latency to comp: the hit
// latency per line accessed through Read and Write, one cycle per line
// probed by InvalidateRange and WritebackRange. ReadLine and WriteLine,
// the core's L1 front entry points, book nothing.
func (c *Cache) SetAttribution(att *telemetry.Attribution, comp telemetry.Component) {
	c.att, c.comp = att, comp
}

// Counters returns a snapshot of the event counters.
func (c *Cache) Counters() Counters { return c.ctr }

// ResetCounters zeroes the event counters without touching contents.
func (c *Cache) ResetCounters() { c.ctr = Counters{} }

// ReseedPlacement reseeds the parametric placement hash and the random
// replacement source. Hardware-randomised platforms reseed between runs.
// Seeds are whitened first: the measurement protocol reseeds with
// sequential values, and feeding those raw into the placement hash
// leaves detectable correlation between consecutive runs' layouts.
func (c *Cache) ReseedPlacement(seed uint64) {
	c.hashSeed = prng.Scramble(seed)
	if c.repl != nil {
		c.repl.Seed(seed ^ 0xD1CE)
	}
}

// lineAddr is addr/LineSize, strength-reduced to a shift (LineSize is a
// power of two by Config.Validate).
func (c *Cache) lineAddr(a mem.Addr) mem.Addr { return a >> c.lineShift }

// setIndex maps a line address to its set. The reductions are
// bit-identical to the div/mod form: x&(sets-1) == x%sets for the
// power-of-two set counts Validate enforces, including the final
// reduction of the parametric hash.
func (c *Cache) setIndex(lineAddr mem.Addr) int {
	if c.hash {
		// Multiply-xorshift parametric hash (Kosmidis et al. style random
		// placement): uniform over sets, stable within a run, reseedable.
		x := uint64(lineAddr) ^ c.hashSeed
		x *= 0x9E3779B97F4A7C15
		x ^= x >> 29
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 32
		return int(x & uint64(c.setMask))
	}
	return int(lineAddr & c.setMask)
}

func (c *Cache) set(idx int) []line {
	return c.lines[idx*c.ways : (idx+1)*c.ways]
}

// lookup returns the way holding lineAddr in the set, or -1.
func (c *Cache) lookup(set []line, lineAddr mem.Addr) int {
	for w := range set {
		if set[w].valid && set[w].tag == lineAddr {
			return w
		}
	}
	return -1
}

// promote looks for lineAddr past way 0 of set idx and returns the way
// holding it afterwards, or -1. Under LRU a hit moves the line to the
// front (way 0) and shifts the ways before it back by one, keeping the
// set in recency order. Callers test way 0 themselves first: that one
// compare serves most accesses.
func (c *Cache) promote(idx int, lineAddr mem.Addr) int {
	set := c.set(idx)
	for w := 1; w < len(set); w++ {
		if set[w].tag == lineAddr && set[w].valid {
			if !c.lru {
				return w
			}
			l := set[w]
			for ; w > 0; w-- {
				set[w] = set[w-1]
			}
			set[0] = l
			return 0
		}
	}
	return -1
}

// fill allocates lineAddr in set idx, evicting if necessary, and returns
// the latency of the fill traffic (next-level read plus any dirty
// writeback). The victim is the first invalid way, else the last way
// under LRU (the least recently used line) or a random way. Under LRU
// the new line goes to the front and the ways before the victim shift
// back by one.
func (c *Cache) fill(lineAddr mem.Addr, idx int, dirty bool) mem.Cycles {
	set := c.set(idx)
	w := 0
	for w < len(set) && set[w].valid {
		w++
	}
	var lat mem.Cycles
	if w == len(set) {
		if c.lru {
			w--
		} else {
			w = prng.Intn(c.repl, len(set))
		}
		c.ctr.Evictions++
		if set[w].dirty {
			c.ctr.Writebacks++
			lat += c.next.Write(set[w].tag<<c.lineShift, c.cfg.LineSize)
		}
	}
	lat += c.next.Read(lineAddr<<c.lineShift, c.cfg.LineSize)
	if c.lru {
		for ; w > 0; w-- {
			set[w] = set[w-1]
		}
	}
	set[w] = line{valid: true, dirty: dirty, tag: lineAddr}
	c.filled[idx>>6] |= 1 << (idx & 63)
	c.ctr.Fills++
	return lat
}

// Read implements mem.Backend. A read that straddles a line boundary is
// charged as two sequential line accesses, as the real hardware would.
// The single-line hit on way 0 — the per-instruction common case — is
// served by a straight-line fast path; the rest of the set and the fill
// are outlined in readSlow so this function stays small.
func (c *Cache) Read(addr mem.Addr, size int) mem.Cycles {
	if size <= 0 {
		size = 1
	}
	first := addr >> c.lineShift
	last := (addr + mem.Addr(size) - 1) >> c.lineShift
	c.att.Charge(c.comp, mem.Cycles(last-first+1)*c.hitLat)
	if first == last {
		return c.readLine(first)
	}
	var lat mem.Cycles
	for la := first; la <= last; la++ {
		lat += c.readLine(la)
	}
	return lat
}

// ReadLine charges a read fully contained in one cache line (the
// caller guarantees no line straddle — e.g. an aligned word when
// LineSize >= WordSize). It is behaviourally identical to Read for
// such accesses but small enough to inline into the CPU's hot paths,
// skipping one call level per access.
func (c *Cache) ReadLine(addr mem.Addr) mem.Cycles {
	return c.readLine(addr >> c.lineShift)
}

// WriteLine is ReadLine's store twin: a write of size bytes fully
// contained in one line.
func (c *Cache) WriteLine(addr mem.Addr, size int) mem.Cycles {
	return c.writeLine(addr>>c.lineShift, size)
}

func (c *Cache) readLine(la mem.Addr) mem.Cycles {
	c.ctr.Accesses++
	c.ctr.Reads++
	idx := c.setIndex(la)
	if l := &c.lines[idx*c.ways]; l.tag == la && l.valid {
		c.ctr.Hits++
		if c.obs != nil {
			c.obs.OnAccess(false, idx, true)
		}
		return c.hitLat
	}
	return c.readSlow(la, idx)
}

// readSlow is the outlined read path past way 0: the rest of the set,
// then on a miss the fill.
//
//go:noinline
func (c *Cache) readSlow(la mem.Addr, idx int) mem.Cycles {
	hit := c.promote(idx, la) >= 0
	if c.obs != nil {
		c.obs.OnAccess(false, idx, hit)
	}
	if hit {
		c.ctr.Hits++
		return c.hitLat
	}
	c.ctr.Misses++
	c.ctr.ReadMisses++
	return c.hitLat + c.fill(la, idx, false)
}

// Write implements mem.Backend.
func (c *Cache) Write(addr mem.Addr, size int) mem.Cycles {
	if size <= 0 {
		size = 1
	}
	first := addr >> c.lineShift
	last := (addr + mem.Addr(size) - 1) >> c.lineShift
	c.att.Charge(c.comp, mem.Cycles(last-first+1)*c.hitLat)
	if first == last {
		return c.writeLine(first, size)
	}
	var lat mem.Cycles
	for la := first; la <= last; la++ {
		// Charge each touched line; partial sizes matter only for the
		// write-through traffic, which we approximate per line.
		lat += c.writeLine(la, c.cfg.LineSize)
	}
	return lat
}

func (c *Cache) writeLine(la mem.Addr, size int) mem.Cycles {
	c.ctr.Accesses++
	c.ctr.Writes++
	idx := c.setIndex(la)
	w := 0
	if l := &c.lines[idx*c.ways]; l.tag != la || !l.valid {
		w = c.promote(idx, la)
	}
	if c.wt {
		if w >= 0 {
			c.ctr.Hits++
		} else {
			c.ctr.Misses++
			c.ctr.WriteMisses++
		}
		if c.obs != nil {
			c.obs.OnAccess(true, idx, w >= 0)
		}
		// The store always propagates. LEON3 has a store buffer that hides
		// part of this latency; the next level's write cost models the
		// visible portion.
		return c.hitLat + c.next.Write(la<<c.lineShift, size)
	}
	return c.writeBack(la, idx, w)
}

// writeBack is the write-back/allocate path, outlined from writeLine so
// the write-through DL1 hot path stays small. w is the hit way, or -1.
func (c *Cache) writeBack(la mem.Addr, idx, w int) mem.Cycles {
	switch c.cfg.Write {
	case WriteBackAllocate:
		if w >= 0 {
			c.ctr.Hits++
			c.lines[idx*c.ways+w].dirty = true
			if c.obs != nil {
				c.obs.OnAccess(true, idx, true)
			}
			return c.hitLat
		}
		c.ctr.Misses++
		c.ctr.WriteMisses++
		if c.obs != nil {
			c.obs.OnAccess(true, idx, false)
		}
		return c.hitLat + c.fill(la, idx, true)
	default:
		panic("cache: unknown write policy")
	}
}

// FlushAll writes back every dirty line and invalidates the whole cache,
// returning the cost. PikeOS is configured to flush caches at partition
// start (§IV), which is what guarantees a canonical initial state.
//
// Only sets in the filled bitmap are visited, in ascending set order
// and each set's ways in order: the same lines, writebacks (and their
// order at the next level), latency and counters as a scan of every
// line, since a set outside the bitmap holds no valid line.
func (c *Cache) FlushAll() mem.Cycles {
	var lat mem.Cycles
	for wi, word := range c.filled {
		for word != 0 {
			idx := wi<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			set := c.set(idx)
			for w := range set {
				l := &set[w]
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
		}
		c.filled[wi] = 0
	}
	return lat
}

// InvalidateRange discards (without writeback) all lines overlapping
// [base, base+size). The DSR relocation routine uses it to drop stale
// instruction lines at a function's old location (§III.B.1: "any updated
// IL1 or L2 entry corresponding to the old location need to be
// invalidated").
func (c *Cache) InvalidateRange(base mem.Addr, size int) mem.Cycles {
	var lat mem.Cycles
	first := c.lineAddr(base)
	last := c.lineAddr(base + mem.Addr(size) - 1)
	for la := first; la <= last; la++ {
		idx := c.setIndex(la)
		set := c.set(idx)
		if w := c.lookup(set, la); w >= 0 {
			set[w].valid = false
			set[w].dirty = false
			c.ctr.Invalidations++
		}
		lat++ // one cycle per probed line, matching a software loop of ASI stores
	}
	c.att.Charge(c.comp, lat)
	return lat
}

// WritebackRange writes back (keeping valid) all dirty lines overlapping
// [base, base+size). The DSR relocation routine uses it to push relocated
// code from the data path to memory before it can be fetched — SPARC has
// no hardware I/D coherence (§III.B.1).
func (c *Cache) WritebackRange(base mem.Addr, size int) mem.Cycles {
	var lat mem.Cycles
	first := c.lineAddr(base)
	last := c.lineAddr(base + mem.Addr(size) - 1)
	for la := first; la <= last; la++ {
		idx := c.setIndex(la)
		set := c.set(idx)
		if w := c.lookup(set, la); w >= 0 && set[w].dirty {
			set[w].dirty = false
			c.ctr.Writebacks++
			lat += c.next.Write(la*mem.Addr(c.cfg.LineSize), c.cfg.LineSize)
		}
		lat++
	}
	c.att.Charge(c.comp, mem.Cycles(last-first+1))
	return lat
}

// Contains reports whether addr is currently cached (any way, valid).
// Used by tests and by layout-risk analyses.
func (c *Cache) Contains(addr mem.Addr) bool {
	la := c.lineAddr(addr)
	set := c.set(c.setIndex(la))
	return c.lookup(set, la) >= 0
}

// ValidLines returns the number of valid lines, a convenience for tests.
func (c *Cache) ValidLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}

// SetOf returns the set index addr maps to under the current placement,
// exposed for layout-conflict analyses (e.g. the incremental-integration
// example computes which functions collide in the direct-mapped L2).
func (c *Cache) SetOf(addr mem.Addr) int { return c.setIndex(c.lineAddr(addr)) }
