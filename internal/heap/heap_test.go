package heap

import (
	"testing"
	"testing/quick"

	"dsr/internal/mem"
	"dsr/internal/prng"
)

func newTestPool(bound int) *Pool {
	return NewPool("code", 0x4400_0000, 64<<20, bound, 8, prng.NewMWC(1))
}

func TestAllocateWithinBoundAndAligned(t *testing.T) {
	p := newTestPool(32 * 1024)
	for i := 0; i < 200; i++ {
		obj := &mem.Object{Name: "f", Kind: mem.KindCode, Size: 512, Align: 8}
		base, err := p.Allocate(obj)
		if err != nil {
			t.Fatal(err)
		}
		off := base % mem.PageSize
		_ = off
		chunkStart := base &^ (mem.PageSize - 1)
		// Offset within the chunk must be below the bound and 8-aligned.
		offset := base - chunkStart
		// base may be in a later page of the chunk if offset > 4096.
		if offset%8 != 0 {
			t.Fatalf("offset %d not 8-aligned", offset)
		}
		if !mem.IsAligned(base, 8) {
			t.Fatalf("base %#x not aligned", base)
		}
	}
}

func TestOffsetsCoverTheWay(t *testing.T) {
	// With bound 1024 and alignment 8 there are 128 slots; over many
	// allocations most slots must be hit.
	p := NewPool("d", 0x5400_0000, 64<<20, 1024, 8, prng.NewMWC(7))
	seen := map[mem.Addr]bool{}
	for i := 0; i < 3000; i++ {
		obj := &mem.Object{Name: "o", Size: 64, Align: 8}
		if _, err := p.Allocate(obj); err != nil {
			t.Fatal(err)
		}
		// offset = base mod 1024 only if chunk start is 1024-aligned;
		// chunks are page-aligned, and 1024 divides 4096, so this holds.
		seen[obj.Base%1024] = true
	}
	if len(seen) < 120 {
		t.Errorf("offsets hit %d/128 slots", len(seen))
	}
}

func TestDifferentSeedsDifferentLayouts(t *testing.T) {
	layout := func(seed uint64) []mem.Addr {
		p := newTestPool(32 * 1024)
		p.Reset(seed)
		var bases []mem.Addr
		for i := 0; i < 20; i++ {
			obj := &mem.Object{Name: "f", Size: 256, Align: 8}
			if _, err := p.Allocate(obj); err != nil {
				t.Fatal(err)
			}
			bases = append(bases, obj.Base)
		}
		return bases
	}
	a, b := layout(1), layout(2)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > 5 {
		t.Errorf("layouts share %d/20 placements across seeds", same)
	}
	// Same seed must reproduce exactly (measurement protocol relies on it).
	c := layout(1)
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("same seed produced different layout")
		}
	}
}

func TestNoOverlapProperty(t *testing.T) {
	f := func(sizes []uint16, seed uint64) bool {
		p := newTestPool(4096)
		p.Reset(seed)
		var objs []*mem.Object
		for _, sz := range sizes {
			if sz == 0 {
				continue
			}
			o := &mem.Object{Name: "o", Size: mem.Addr(sz), Align: 8}
			if _, err := p.Allocate(o); err != nil {
				return true // pool exhaustion acceptable
			}
			objs = append(objs, o)
		}
		for i := 0; i < len(objs); i++ {
			for j := i + 1; j < len(objs); j++ {
				if objs[i].Overlaps(objs[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPageDiversity(t *testing.T) {
	p := newTestPool(32 * 1024)
	for i := 0; i < 30; i++ {
		if _, err := p.Allocate(&mem.Object{Name: "f", Size: 1024, Align: 8}); err != nil {
			t.Fatal(err)
		}
	}
	// Every object sits in its own chunk ≥ 1 page: at least 30 pages.
	if got := len(p.PagesTouched()); got < 30 {
		t.Errorf("pages touched=%d, want >=30 (TLB diversity)", got)
	}
}

func TestResetReclaimsSpace(t *testing.T) {
	p := newTestPool(32 * 1024)
	for i := 0; i < 10; i++ {
		if _, err := p.Allocate(&mem.Object{Name: "f", Size: 128, Align: 8}); err != nil {
			t.Fatal(err)
		}
	}
	used := p.Used()
	if used == 0 {
		t.Fatal("nothing used")
	}
	p.Reset(9)
	if p.Used() != 0 {
		t.Error("Reset did not reclaim")
	}
}

func TestRespectsObjectAlignment(t *testing.T) {
	p := newTestPool(32 * 1024)
	for i := 0; i < 100; i++ {
		o := &mem.Object{Name: "a", Size: 100, Align: 64}
		if _, err := p.Allocate(o); err != nil {
			t.Fatal(err)
		}
		if !mem.IsAligned(o.Base, 64) {
			t.Fatalf("alloc %d violated 64-byte alignment: %#x", i, o.Base)
		}
	}
}

func TestExhaustion(t *testing.T) {
	p := NewPool("tiny", 0x4400_0000, 3*mem.PageSize, 1024, 8, prng.NewMWC(1))
	var err error
	for i := 0; i < 10 && err == nil; i++ {
		_, err = p.Allocate(&mem.Object{Name: "f", Size: mem.PageSize, Align: 8})
	}
	if err == nil {
		t.Error("pool never exhausted")
	}
}

func TestConstructorValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"bad bound":   func() { NewPool("x", 0x1000, 1<<20, 0, 8, prng.NewMWC(1)) },
		"indivisible": func() { NewPool("x", 0x1000, 1<<20, 100, 8, prng.NewMWC(1)) },
		"unaligned":   func() { NewPool("x", 0x1001, 1<<20, 1024, 8, prng.NewMWC(1)) },
		"nil source":  func() { NewPool("x", 0x1000, 1<<20, 1024, 8, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
