package cache

import (
	"cmp"
	"slices"
	"testing"

	"dsr/internal/mem"
	"dsr/internal/prng"
)

// ageLine is one line of the age-stamped reference cache.
type ageLine struct {
	valid, dirty bool
	tag          mem.Addr
	age          uint64
}

// ageCache is the age-stamped LRU cache the recency-ordered production
// cache must reproduce: lines never move, a clock stamps a line's age on
// every hit and fill, and a fill takes the first invalid way, else the
// oldest line under LRU or a seeded prng.Intn way under random
// replacement. Set indices use the textbook div/mod form.
//
// Its FlushAll departs from the age-stamped model in one place, the
// order of a set's writebacks: it visits the valid lines of a set most
// recent first under LRU (where the production cache keeps them in that
// order) and by way under random replacement. The sets themselves go in
// ascending order. The two orders agree whenever a set holds at most one
// dirty line, as in every write-back cache the platform builds (the
// direct-mapped L2).
type ageCache struct {
	cfg      Config
	sets     int
	lines    []ageLine
	clock    uint64
	ctr      Counters
	next     mem.Backend
	hashSeed uint64
	repl     *prng.MWC
}

func newAgeCache(cfg Config, next mem.Backend) *ageCache {
	r := &ageCache{cfg: cfg, sets: cfg.Sets(), lines: make([]ageLine, cfg.Size/cfg.LineSize), next: next}
	if cfg.Replacement == ReplacementRandom {
		r.repl = prng.NewMWC(0xC0FFEE)
	}
	return r
}

// clone is the reference's Snapshot/Restore: a deep copy sharing next.
func (r *ageCache) clone() *ageCache {
	c := *r
	c.lines = slices.Clone(r.lines)
	if r.repl != nil {
		c.repl = prng.NewMWC(0)
		c.repl.SetState(r.repl.State())
	}
	return &c
}

func (r *ageCache) reseed(seed uint64) {
	r.hashSeed = prng.Scramble(seed)
	if r.repl != nil {
		r.repl.Seed(seed ^ 0xD1CE)
	}
}

func (r *ageCache) set(la mem.Addr) []ageLine {
	idx := int(la % mem.Addr(r.sets))
	if r.cfg.Placement == PlacementHashRandom {
		x := uint64(la) ^ r.hashSeed
		x *= 0x9E3779B97F4A7C15
		x ^= x >> 29
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 32
		idx = int(x % uint64(r.sets))
	}
	return r.lines[idx*r.cfg.Ways : (idx+1)*r.cfg.Ways]
}

func (r *ageCache) lookup(la mem.Addr) *ageLine {
	set := r.set(la)
	for w := range set {
		if set[w].valid && set[w].tag == la {
			return &set[w]
		}
	}
	return nil
}

func (r *ageCache) touch(l *ageLine) {
	r.clock++
	l.age = r.clock
}

func (r *ageCache) fill(la mem.Addr, dirty bool) mem.Cycles {
	set := r.set(la)
	v := -1
	for w := range set {
		if !set[w].valid {
			v = w
			break
		}
	}
	var lat mem.Cycles
	if v < 0 {
		if r.repl != nil {
			v = prng.Intn(r.repl, len(set))
		} else {
			v = 0
			for w := range set {
				if set[w].age < set[v].age {
					v = w
				}
			}
		}
		r.ctr.Evictions++
		if set[v].dirty {
			r.ctr.Writebacks++
			lat += r.next.Write(set[v].tag*mem.Addr(r.cfg.LineSize), r.cfg.LineSize)
		}
	}
	lat += r.next.Read(la*mem.Addr(r.cfg.LineSize), r.cfg.LineSize)
	set[v] = ageLine{valid: true, dirty: dirty, tag: la}
	r.touch(&set[v])
	r.ctr.Fills++
	return lat
}

// span returns the line addresses [first, last] an access touches.
func (r *ageCache) span(addr mem.Addr, size int) (first, last mem.Addr) {
	if size <= 0 {
		size = 1
	}
	ls := mem.Addr(r.cfg.LineSize)
	return addr / ls, (addr + mem.Addr(size) - 1) / ls
}

func (r *ageCache) read(addr mem.Addr, size int) mem.Cycles {
	var lat mem.Cycles
	first, last := r.span(addr, size)
	for la := first; la <= last; la++ {
		r.ctr.Accesses++
		r.ctr.Reads++
		lat += r.cfg.HitLatency
		if l := r.lookup(la); l != nil {
			r.ctr.Hits++
			r.touch(l)
			continue
		}
		r.ctr.Misses++
		r.ctr.ReadMisses++
		lat += r.fill(la, false)
	}
	return lat
}

func (r *ageCache) write(addr mem.Addr, size int) mem.Cycles {
	var lat mem.Cycles
	first, last := r.span(addr, size)
	if first != last {
		size = r.cfg.LineSize
	}
	for la := first; la <= last; la++ {
		r.ctr.Accesses++
		r.ctr.Writes++
		lat += r.cfg.HitLatency
		l := r.lookup(la)
		if l != nil {
			r.ctr.Hits++
			r.touch(l)
		} else {
			r.ctr.Misses++
			r.ctr.WriteMisses++
		}
		switch {
		case r.cfg.Write == WriteThroughNoAllocate:
			lat += r.next.Write(la*mem.Addr(r.cfg.LineSize), size)
		case l != nil:
			l.dirty = true
		default:
			lat += r.fill(la, true)
		}
	}
	return lat
}

func (r *ageCache) invalidateRange(base mem.Addr, size int) mem.Cycles {
	first, last := r.span(base, size)
	for la := first; la <= last; la++ {
		if l := r.lookup(la); l != nil {
			*l = ageLine{}
			r.ctr.Invalidations++
		}
	}
	return mem.Cycles(last - first + 1)
}

func (r *ageCache) writebackRange(base mem.Addr, size int) mem.Cycles {
	first, last := r.span(base, size)
	lat := mem.Cycles(last - first + 1)
	for la := first; la <= last; la++ {
		if l := r.lookup(la); l != nil && l.dirty {
			l.dirty = false
			r.ctr.Writebacks++
			lat += r.next.Write(la*mem.Addr(r.cfg.LineSize), r.cfg.LineSize)
		}
	}
	return lat
}

func (r *ageCache) flushAll() mem.Cycles {
	var lat mem.Cycles
	for idx := 0; idx < r.sets; idx++ {
		for _, w := range r.order(idx) {
			l := &r.lines[idx*r.cfg.Ways+w]
			if l.dirty {
				r.ctr.Writebacks++
				lat += r.next.Write(l.tag*mem.Addr(r.cfg.LineSize), r.cfg.LineSize)
			}
			r.ctr.Invalidations++
			*l = ageLine{}
		}
	}
	return lat
}

// order returns the ways of set idx that hold valid lines: most recent
// first under LRU, by way under random replacement.
func (r *ageCache) order(idx int) []int {
	set := r.lines[idx*r.cfg.Ways : (idx+1)*r.cfg.Ways]
	var ways []int
	for w := range set {
		if set[w].valid {
			ways = append(ways, w)
		}
	}
	if r.cfg.Replacement == ReplacementLRU {
		slices.SortFunc(ways, func(a, b int) int { return cmp.Compare(set[b].age, set[a].age) })
	}
	return ways
}

// Operations of an oracle trace.
const (
	opRead = iota
	opWrite
	opInvalidate
	opWriteback
	opFlush
	opSnapshot
	opRestore
	opContains
	opReseed
	numOps
)

// agePair drives the production cache and the reference through the
// same operations and checks them against each other after every one.
type agePair struct {
	cfg     Config
	prod    *Cache
	ref     *ageCache
	pb, rb  *recordingBackend
	snap    *Snapshot
	refSnap *ageCache
	seen    int // transactions already compared
}

func newAgePair(cfg Config, seed uint64) *agePair {
	p := &agePair{cfg: cfg, pb: &recordingBackend{}, rb: &recordingBackend{}}
	p.prod, p.ref = New(cfg, p.pb), newAgeCache(cfg, p.rb)
	p.prod.ReseedPlacement(seed)
	p.ref.reseed(seed)
	return p
}

// step applies op to both caches with address addr and size n, then
// checks them.
func (p *agePair) step(t testing.TB, at, op int, addr mem.Addr, n int) {
	t.Helper()
	var lp, lr mem.Cycles
	switch op {
	case opRead:
		lp, lr = p.prod.Read(addr, n), p.ref.read(addr, n)
	case opWrite:
		lp, lr = p.prod.Write(addr, n), p.ref.write(addr, n)
	case opInvalidate:
		lp, lr = p.prod.InvalidateRange(addr, n), p.ref.invalidateRange(addr, n)
	case opWriteback:
		lp, lr = p.prod.WritebackRange(addr, n), p.ref.writebackRange(addr, n)
	case opFlush:
		lp, lr = p.prod.FlushAll(), p.ref.flushAll()
	case opSnapshot:
		p.snap, p.refSnap = p.prod.Snapshot(), p.ref.clone()
	case opRestore:
		// Onto a second cache, which replaces the first.
		if p.snap != nil {
			p.prod = New(p.cfg, p.pb)
			p.prod.Restore(p.snap)
			p.ref = p.refSnap.clone()
		}
	case opContains:
		la := addr / mem.Addr(p.cfg.LineSize)
		if got, want := p.prod.Contains(addr), p.ref.lookup(la) != nil; got != want {
			t.Fatalf("%s op %d: Contains(%#x) = %v, want %v", p.cfg.Name, at, addr, got, want)
		}
	case opReseed:
		p.prod.ReseedPlacement(uint64(n))
		p.ref.reseed(uint64(n))
	}
	if lp != lr {
		t.Fatalf("%s op %d (kind %d, addr %#x, n %d): latency %d, reference %d",
			p.cfg.Name, at, op, addr, n, lp, lr)
	}
	p.check(t, at)
}

// check compares counters, the ordered next-level traffic and every
// set's contents: way by way under random replacement, the valid lines
// in descending reference age under LRU.
func (p *agePair) check(t testing.TB, at int) {
	t.Helper()
	if got, want := p.prod.Counters(), p.ref.ctr; got != want {
		t.Fatalf("%s op %d: counters %+v, reference %+v", p.cfg.Name, at, got, want)
	}
	if len(p.pb.log) != len(p.rb.log) || !slices.Equal(p.pb.log[p.seen:], p.rb.log[p.seen:]) {
		t.Fatalf("%s op %d: next-level traffic diverged (%d vs %d transactions)",
			p.cfg.Name, at, len(p.pb.log), len(p.rb.log))
	}
	p.seen = len(p.pb.log)
	for idx := 0; idx < p.ref.sets; idx++ {
		if !p.sameSet(idx) {
			var want []ageLine
			for _, w := range p.ref.order(idx) {
				want = append(want, p.ref.lines[idx*p.cfg.Ways+w])
			}
			t.Fatalf("%s op %d: set %d holds %+v, reference (valid, in order) %+v",
				p.cfg.Name, at, idx, p.prod.set(idx), want)
		}
	}
}

// sameSet reports whether set idx holds the reference's lines: at the
// same ways under random replacement, and under LRU the valid lines in
// descending reference age with the invalid ways anywhere.
func (p *agePair) sameSet(idx int) bool {
	got := p.prod.set(idx)
	want := p.ref.lines[idx*p.cfg.Ways : (idx+1)*p.cfg.Ways]
	same := func(l line, r ageLine) bool {
		return l.valid == r.valid && (!l.valid || l.tag == r.tag && l.dirty == r.dirty)
	}
	if p.cfg.Replacement == ReplacementRandom {
		for w := range got {
			if !same(got[w], want[w]) {
				return false
			}
		}
		return true
	}
	valid := 0
	for _, r := range want {
		if r.valid {
			valid++
		}
	}
	prevAge := ^uint64(0)
	for _, l := range got {
		if !l.valid {
			continue
		}
		r := slices.IndexFunc(want, func(r ageLine) bool { return r.valid && r.tag == l.tag })
		if r < 0 || !same(l, want[r]) || want[r].age >= prevAge {
			return false
		}
		prevAge = want[r].age
		valid--
	}
	return valid == 0
}

// ageReferenceConfigs is equivConfigs plus random-replacement
// geometries, every one with a nonzero hit latency.
func ageReferenceConfigs() []Config {
	cfgs := append(equivConfigs(),
		Config{Name: "4w-rand", Size: 1024, LineSize: 16, Ways: 4,
			Write: WriteBackAllocate, Replacement: ReplacementRandom},
		Config{Name: "4w-rand-hash-wt", Size: 2048, LineSize: 32, Ways: 4,
			Write: WriteThroughNoAllocate, Replacement: ReplacementRandom, Placement: PlacementHashRandom},
		Config{Name: "8w-rand-1set", Size: 256, LineSize: 32, Ways: 8,
			Write: WriteBackAllocate, Replacement: ReplacementRandom},
		Config{Name: "dm-rand-hash", Size: 1024, LineSize: 32, Ways: 1,
			Write: WriteBackAllocate, Replacement: ReplacementRandom, Placement: PlacementHashRandom})
	for i := range cfgs {
		cfgs[i].HitLatency = 2
	}
	return cfgs
}

// TestCacheMatchesAgeReference drives the production cache and the
// age-stamped reference with random traces: reads and writes (some
// straddling a line boundary) with locality, so hits land at every
// recency depth, mixed with range invalidations (which leave holes in
// the middle of a set), range writebacks, Contains probes, full
// flushes, reseeds, and snapshots restored onto a second cache. After
// every operation the latency, counters, ordered next-level traffic and
// every set's contents must agree.
func TestCacheMatchesAgeReference(t *testing.T) {
	for _, cfg := range ageReferenceConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				p := newAgePair(cfg, seed)
				src := prng.NewMWC(seed ^ 0xA9E)
				span := 3 * cfg.Size
				addr := mem.Addr(0)
				for i := 0; i < 4000; i++ {
					if prng.Intn(src, 4) == 0 {
						addr = mem.Addr(prng.Intn(src, span))
					} else {
						// Near the last address: hits at shallow depths.
						addr = mem.Addr((int(addr) + (prng.Intn(src, 9)-4)*cfg.LineSize + span) % span)
					}
					n := []int{4, 4, 1, 8, cfg.LineSize}[prng.Intn(src, 5)]
					var op int
					switch k := prng.Intn(src, 100); {
					case k < 50:
						op = opRead
					case k < 80:
						op = opWrite
					case k < 86:
						op, n = opInvalidate, 1+prng.Intn(src, 3*cfg.LineSize)
					case k < 90:
						op, n = opWriteback, 1+prng.Intn(src, 3*cfg.LineSize)
					case k < 94:
						op = opContains
					case k < 96:
						op = opSnapshot
					case k < 98:
						op = opRestore
					case k < 99:
						op = opFlush
					default:
						op, n = opReseed, prng.Intn(src, 1<<20)
					}
					p.step(t, i, op, addr, n)
				}
			}
		})
	}
}

// FuzzCache runs an op stream against the production cache and the
// age-stamped reference over five small geometries (direct-mapped,
// 2-way and 4-way LRU, 4-way and 8-way random). Each op byte's low
// four bits pick the operation (modulo the number of operations) and
// the high four bits the size; the next byte, when the op takes an
// address, is the address in words. After every op the two must agree
// as in TestCacheMatchesAgeReference.
func FuzzCache(f *testing.F) {
	f.Add([]byte{0x10, 0x00, 0x10, 0x04, 0x10, 0x08, 0x10, 0x00, 0x10, 0x10})
	f.Add([]byte{0x11, 0x02, 0x02, 0x03, 0x10, 0x42, 0x04, 0x10, 0x02})
	f.Add([]byte{0x10, 0x01, 0x05, 0x11, 0x41, 0x06, 0x10, 0x01, 0x03, 0x01})
	cfgs := []Config{
		{Name: "dm-wb", Size: 256, LineSize: 16, Ways: 1, Write: WriteBackAllocate},
		{Name: "2w-wb", Size: 256, LineSize: 16, Ways: 2, Write: WriteBackAllocate},
		{Name: "4w-wt", Size: 512, LineSize: 16, Ways: 4, Write: WriteThroughNoAllocate},
		{Name: "4w-rand", Size: 256, LineSize: 16, Ways: 4, Write: WriteBackAllocate,
			Replacement: ReplacementRandom},
		{Name: "8w-rand-hash-wt", Size: 512, LineSize: 16, Ways: 8, Write: WriteThroughNoAllocate,
			Replacement: ReplacementRandom, Placement: PlacementHashRandom},
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, cfg := range cfgs {
			cfg.HitLatency = 1
			p := newAgePair(cfg, 1)
			for i := 0; i < len(ops); i++ {
				b := ops[i]
				op, n := int(b&15)%numOps, 1+int(b>>4)*4
				var addr mem.Addr
				switch op {
				case opRead, opWrite, opInvalidate, opWriteback, opContains:
					if i+1 < len(ops) {
						i++
						addr = mem.Addr(ops[i]) * mem.WordSize
					}
				}
				p.step(t, i, op, addr, n)
			}
		}
	})
}
