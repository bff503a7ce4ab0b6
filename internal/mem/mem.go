// Package mem provides the basic address arithmetic and memory-object
// bookkeeping shared by the whole simulator: physical addresses, alignment
// helpers, object descriptors (a named, sized, aligned region such as a
// function body or a data table) and a simple address-space allocator used
// by the deterministic loader and by the randomising runtime alike.
package mem

import (
	"cmp"
	"fmt"
	"slices"
)

// Addr is a physical byte address in the simulated machine.
// The simulated LEON3 platform has a 32-bit physical address space, but we
// carry addresses in 64 bits so that intermediate arithmetic cannot wrap.
type Addr uint64

// WordSize is the architectural word size in bytes (SPARC v8 is 32-bit).
const WordSize = 4

// DoubleWord is the stack alignment required by the SPARC v8 ABI; the
// paper (§III.B.2) stresses that random stack offsets must be multiples
// of 8 to keep the stack pointer double-word aligned.
const DoubleWord = 8

// PageSize is the MMU page size used by the TLB model.
const PageSize = 4096

// Align rounds a up to the next multiple of align. align must be a power
// of two; Align panics otherwise because a misaligned allocator is a
// programming error, not a runtime condition.
func Align(a Addr, align Addr) Addr {
	if align == 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d is not a power of two", align))
	}
	return (a + align - 1) &^ (align - 1)
}

// IsAligned reports whether a is a multiple of align (power of two).
func IsAligned(a Addr, align Addr) bool {
	if align == 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d is not a power of two", align))
	}
	return a&(align-1) == 0
}

// Page returns the page number containing a.
func Page(a Addr) Addr { return a / PageSize }

// ObjectKind distinguishes the classes of memory object the randomiser
// can move. The paper randomises functions (code) and stack frames; data
// objects are placed through the randomised pool allocator as well.
type ObjectKind int

const (
	// KindCode is a function body.
	KindCode ObjectKind = iota
	// KindData is a global data object (tables, buffers, constants).
	KindData
	// KindStack is a stack region.
	KindStack
	// KindMetadata is DSR runtime metadata (pointer tables, offset tables).
	KindMetadata
)

func (k ObjectKind) String() string {
	switch k {
	case KindCode:
		return "code"
	case KindData:
		return "data"
	case KindStack:
		return "stack"
	case KindMetadata:
		return "metadata"
	default:
		return fmt.Sprintf("ObjectKind(%d)", int(k))
	}
}

// Object describes a placed memory object. Base is assigned by a loader
// or by the DSR runtime; Size and Align are fixed at build time.
type Object struct {
	Name  string
	Kind  ObjectKind
	Size  Addr
	Align Addr
	Base  Addr
}

// End returns the first address past the object.
func (o *Object) End() Addr { return o.Base + o.Size }

// Contains reports whether a falls inside the object's placed range.
func (o *Object) Contains(a Addr) bool { return a >= o.Base && a < o.End() }

// Overlaps reports whether two placed objects share any byte.
func (o *Object) Overlaps(p *Object) bool {
	return o.Base < p.End() && p.Base < o.End()
}

func (o *Object) String() string {
	return fmt.Sprintf("%s %q [%#x,%#x) size=%d", o.Kind, o.Name, o.Base, o.End(), o.Size)
}

// Space is a simple bump allocator over a contiguous address range,
// used by the deterministic loader to lay out images sequentially and by
// the pool allocator to carve page-diverse chunks.
type Space struct {
	base Addr
	end  Addr
	next Addr
	objs []*Object

	// scratch is the page-range buffer PagesTouchedCount reuses across
	// calls so per-reboot statistics stay allocation-free.
	scratch []pageRange
}

// pageRange is an inclusive page-number interval covered by one object.
type pageRange struct{ lo, hi Addr }

// byLo orders page ranges by first page. The merge sweeps of
// PagesTouched and PagesTouchedCount do not depend on how ties are
// ordered, so an unstable sort serves.
func byLo(a, b pageRange) int { return cmp.Compare(a.lo, b.lo) }

// NewSpace returns an allocator over [base, base+size).
func NewSpace(base, size Addr) *Space {
	return &Space{base: base, end: base + size, next: base}
}

// Base returns the first address of the space.
func (s *Space) Base() Addr { return s.base }

// End returns the first address past the space.
func (s *Space) End() Addr { return s.end }

// Used returns the number of bytes consumed so far, including padding.
func (s *Space) Used() Addr { return s.next - s.base }

// Objects returns the objects placed so far, in placement order.
func (s *Space) Objects() []*Object { return s.objs }

// Place assigns the next suitably aligned address to obj and records it.
// It returns an error if the space is exhausted.
func (s *Space) Place(obj *Object) error {
	align := obj.Align
	if align == 0 {
		align = WordSize
	}
	base := Align(s.next, align)
	if base+obj.Size > s.end {
		return fmt.Errorf("mem: space exhausted placing %q: need %d bytes at %#x, space ends at %#x",
			obj.Name, obj.Size, base, s.end)
	}
	obj.Base = base
	s.next = base + obj.Size
	s.objs = append(s.objs, obj)
	return nil
}

// PlaceAt assigns a caller-chosen base address to obj and records it.
// The address must be suitably aligned, inside the space, and must not
// overlap any previously placed object.
func (s *Space) PlaceAt(obj *Object, base Addr) error {
	align := obj.Align
	if align == 0 {
		align = WordSize
	}
	if !IsAligned(base, align) {
		return fmt.Errorf("mem: %q requires %d-byte alignment, got %#x", obj.Name, align, base)
	}
	if base < s.base || base+obj.Size > s.end {
		return fmt.Errorf("mem: %q at [%#x,%#x) outside space [%#x,%#x)",
			obj.Name, base, base+obj.Size, s.base, s.end)
	}
	placed := *obj
	placed.Base = base
	for _, o := range s.objs {
		if o.Overlaps(&placed) {
			return fmt.Errorf("mem: %q at [%#x,%#x) overlaps %s", obj.Name, base, base+obj.Size, o)
		}
	}
	obj.Base = base
	s.objs = append(s.objs, obj)
	if base+obj.Size > s.next {
		s.next = base + obj.Size
	}
	return nil
}

// Reset forgets all placements, allowing the space to be reused for a
// fresh layout (a new DSR run).
func (s *Space) Reset() {
	s.next = s.base
	s.objs = s.objs[:0]
}

// PagesTouched returns the sorted set of distinct page numbers covered by
// the placed objects. The DSR pool allocator uses page diversity to
// randomise TLB contents (§III.B.5).
//
// Each object covers one contiguous page range, so instead of hashing
// every page into a set and sorting the keys (the previous
// implementation: O(pages) map inserts plus an O(p log p) sort), the
// object ranges are sorted — O(n log n) in the object count, which is
// much smaller than the page count — and the pages emitted in one
// ascending merge that skips overlaps.
func (s *Space) PagesTouched() []Addr {
	if len(s.objs) == 0 {
		return nil
	}
	ranges := make([]pageRange, len(s.objs))
	total := 0
	for i, o := range s.objs {
		r := pageRange{Page(o.Base), Page(o.End() - 1)}
		ranges[i] = r
		total += int(r.hi - r.lo + 1)
	}
	slices.SortFunc(ranges, byLo)
	pages := make([]Addr, 0, total) // upper bound; overlaps emit once
	next := ranges[0].lo            // first page not yet emitted
	for _, r := range ranges {
		lo := r.lo
		if lo < next {
			lo = next // skip the part an earlier range already emitted
		}
		for p := lo; p <= r.hi; p++ {
			pages = append(pages, p)
		}
		if r.hi >= next {
			next = r.hi + 1
		}
	}
	return pages
}

// PagesTouchedCount returns len(PagesTouched()) without materialising
// the page list: the ranges are merged with the same sorted sweep but
// only counted. Hot callers that need the cardinality for statistics
// (BootStats is computed on every DSR reboot) use this to avoid
// allocating a page slice per run.
func (s *Space) PagesTouchedCount() int {
	if len(s.objs) == 0 {
		return 0
	}
	ranges := s.scratch[:0]
	for _, o := range s.objs {
		ranges = append(ranges, pageRange{Page(o.Base), Page(o.End() - 1)})
	}
	s.scratch = ranges
	slices.SortFunc(ranges, byLo)
	n := 0
	next := ranges[0].lo
	for _, r := range ranges {
		lo := r.lo
		if lo < next {
			lo = next
		}
		if r.hi >= lo {
			n += int(r.hi - lo + 1)
		}
		if r.hi >= next {
			next = r.hi + 1
		}
	}
	return n
}

// Cycles counts processor clock cycles. All latency accounting in the
// simulator is expressed in Cycles.
type Cycles uint64

// Backend is any component that can service a memory transaction and
// report its latency: a cache level, the bus, or the DRAM controller.
// Transactions never fail; the simulated machine has no faulting memory.
type Backend interface {
	// Read fetches size bytes at addr and returns the latency.
	Read(addr Addr, size int) Cycles
	// Write stores size bytes at addr and returns the latency.
	Write(addr Addr, size int) Cycles
}
