package cachedom

import "dsr/internal/mem"

// Footprint bounds the lines a program region may bring into each set
// of one cache. Lines come in two kinds: exactly placed lines (known
// addresses under a deterministic layout), kept as per-set line sets,
// and relatively counted lines of objects whose base is unknown but
// 8-byte aligned (stack frames in every mode, every object under DSR).
// k consecutive lines fall into k consecutive sets, so an unknown-base
// object of k lines adds at most ceil(k/sets) lines to any one set.
//
// The WCET analyzer's loop persistence asks whether a region's
// footprint fits the cache; the leakage analyzer counts the victim
// lines a run may leave resident, and saturates the footprint when an
// access has no statically known address.
type Footprint struct {
	Dom      *Dom
	exact    []map[mem.Addr]bool
	rel      []int
	relLines int
	top      bool
}

// NewFootprint returns an empty footprint over d.
func NewFootprint(d *Dom) *Footprint {
	return &Footprint{Dom: d, exact: make([]map[mem.Addr]bool, d.NSets), rel: make([]int, d.NSets)}
}

// AddRange adds the concretely placed lines covering [lo, hi] (byte
// addresses, inclusive).
func (f *Footprint) AddRange(lo, hi mem.Addr) {
	for l := f.Dom.LineOf(lo); l <= f.Dom.LineOf(hi); l++ {
		s := f.Dom.SetOf(l)
		if f.exact[s] == nil {
			f.exact[s] = map[mem.Addr]bool{}
		}
		f.exact[s][l] = true
	}
}

// AddRelative adds an unknown-base object spanning at most k lines.
func (f *Footprint) AddRelative(k int) {
	per := (k + int(f.Dom.NSets) - 1) / int(f.Dom.NSets)
	for s := range f.rel {
		f.rel[s] += per
	}
	f.relLines += k
}

// Saturate records an access with no statically known address: any
// line may be in any set, up to the associativity.
func (f *Footprint) Saturate() { f.top = true }

// PerSet bounds the footprint's lines in set s.
func (f *Footprint) PerSet(s int) int {
	if f.top {
		return f.Dom.NWays
	}
	return len(f.exact[s]) + f.rel[s]
}

// Fits reports whether every set's footprint is within the
// associativity, so no footprint line evicts another. A saturated
// footprint never fits.
func (f *Footprint) Fits() bool {
	if f.top {
		return false
	}
	for s := range f.rel {
		if f.PerSet(s) > f.Dom.NWays {
			return false
		}
	}
	return true
}

// Lines bounds the distinct lines of the footprint (the cache capacity
// when saturated).
func (f *Footprint) Lines() int {
	if f.top {
		return int(f.Dom.NSets) * f.Dom.NWays
	}
	n := f.relLines
	for s := range f.exact {
		n += len(f.exact[s])
	}
	return n
}

// SpanLines bounds the distinct lines an unknown-base (8-byte aligned)
// object of size bytes can span.
func (d *Dom) SpanLines(size int64) int {
	if size <= 0 {
		return 1
	}
	return int((size-1)/int64(d.LineSz)) + 2
}
