// Package heap implements the DSR runtime's randomising memory
// allocator, modelled on the HeapLayers/DieHard design the paper builds
// on (§III.B.3, §III.B.5): memory objects are placed in fresh chunks
// carved from a large pool, at a random offset between zero and the
// maximum cache way size, so that the object can land on any cache line
// of a way. Chunks are page-aligned and the pool spans a diverse set of
// pages, which is what randomises the TLBs. Separate pools are used for
// code and for data, as in DieHard.
package heap

import (
	"fmt"

	"dsr/internal/mem"
	"dsr/internal/prng"
)

// Pool carves page-aligned chunks from a fixed region and places one
// object per chunk at a random aligned offset.
type Pool struct {
	name        string
	space       *mem.Space
	offsetBound int
	align       int
	src         prng.Source

	// chunks recycles the chunk records handed to the space, and names
	// caches each object's chunk name: the DSR runtime allocates its
	// objects in a fresh order every run, so a recycled record rarely
	// held the same object before, and only the cache keeps a
	// steady-state reboot free of heap allocation here.
	chunks []*mem.Object
	live   int
	names  map[string]string
}

// NewPool builds a pool over [base, base+size). offsetBound is the
// exclusive upper bound of the random starting offset (the paper sets it
// to the L2 way size so all cache levels are randomised, §III.B.4);
// align is the offset granularity (8 keeps SPARC double-word alignment).
func NewPool(name string, base, size mem.Addr, offsetBound, align int, src prng.Source) *Pool {
	if offsetBound <= 0 || align <= 0 || offsetBound%align != 0 {
		panic(fmt.Sprintf("heap %q: offsetBound %d must be positive and divisible by align %d",
			name, offsetBound, align))
	}
	if !mem.IsAligned(base, mem.PageSize) {
		panic(fmt.Sprintf("heap %q: base %#x not page-aligned", name, base))
	}
	if src == nil {
		panic(fmt.Sprintf("heap %q: nil random source", name))
	}
	return &Pool{
		name:        name,
		space:       mem.NewSpace(base, size),
		offsetBound: offsetBound,
		align:       align,
		src:         src,
	}
}

// OffsetBound returns the pool's random-offset bound.
func (p *Pool) OffsetBound() int { return p.offsetBound }

// Reset forgets all placements and reseeds the random source: the start
// of a new DSR run (partition reboot, §IV).
func (p *Pool) Reset(seed uint64) {
	p.space.Reset()
	p.src.Seed(seed)
	p.live = 0
}

// Allocate places obj in a fresh page-aligned chunk at a random offset
// and returns the assigned base address.
func (p *Pool) Allocate(obj *mem.Object) (mem.Addr, error) {
	offset := mem.Addr(prng.AlignedOffset(p.src, p.offsetBound, p.align))
	// Honour the object's own alignment on top of the pool granularity.
	if obj.Align > mem.Addr(p.align) {
		offset = mem.Align(offset, obj.Align)
		if offset >= mem.Addr(p.offsetBound) {
			offset = 0
		}
	}
	chunkSize := mem.Align(offset+obj.Size, mem.PageSize)
	var chunk *mem.Object
	if p.live < len(p.chunks) {
		chunk = p.chunks[p.live]
	} else {
		chunk = &mem.Object{}
		p.chunks = append(p.chunks, chunk)
	}
	p.live++
	name, ok := p.names[obj.Name]
	if !ok {
		name = obj.Name + ".chunk"
		if p.names == nil {
			p.names = map[string]string{}
		}
		p.names[obj.Name] = name
	}
	*chunk = mem.Object{
		Name:  name,
		Kind:  obj.Kind,
		Size:  chunkSize,
		Align: mem.PageSize,
	}
	if err := p.space.Place(chunk); err != nil {
		return 0, fmt.Errorf("heap %q: %w", p.name, err)
	}
	obj.Base = chunk.Base + offset
	return obj.Base, nil
}

// PagesTouched returns the distinct pages backing current allocations;
// the TLB-randomisation property (§III.B.5) is that this set is large
// and varies across runs.
func (p *Pool) PagesTouched() []mem.Addr { return p.space.PagesTouched() }

// PagesTouchedCount returns len(PagesTouched()) without allocating the
// page list; reboot statistics use it on the per-run path.
func (p *Pool) PagesTouchedCount() int { return p.space.PagesTouchedCount() }

// Used returns the bytes of pool address space consumed.
func (p *Pool) Used() mem.Addr { return p.space.Used() }
