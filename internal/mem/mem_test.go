package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAlign(t *testing.T) {
	cases := []struct {
		a, align, want Addr
	}{
		{0, 4, 0},
		{1, 4, 4},
		{3, 4, 4},
		{4, 4, 4},
		{5, 8, 8},
		{8, 8, 8},
		{9, 8, 16},
		{4095, 4096, 4096},
		{4096, 4096, 4096},
		{4097, 4096, 8192},
	}
	for _, c := range cases {
		if got := Align(c.a, c.align); got != c.want {
			t.Errorf("Align(%d,%d)=%d, want %d", c.a, c.align, got, c.want)
		}
	}
}

func TestAlignPanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Align(1, 3) did not panic")
		}
	}()
	Align(1, 3)
}

func TestIsAligned(t *testing.T) {
	if !IsAligned(16, 8) {
		t.Error("16 should be 8-aligned")
	}
	if IsAligned(12, 8) {
		t.Error("12 should not be 8-aligned")
	}
	if !IsAligned(0, 4096) {
		t.Error("0 should be page-aligned")
	}
}

// Property: Align result is always aligned, never smaller than the input,
// and within one alignment unit of the input.
func TestAlignProperties(t *testing.T) {
	f := func(a uint32, shift uint8) bool {
		align := Addr(1) << (shift % 13)
		got := Align(Addr(a), align)
		return IsAligned(got, align) && got >= Addr(a) && got < Addr(a)+align
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPageHelpers(t *testing.T) {
	if Page(0) != 0 || Page(4095) != 0 || Page(4096) != 1 {
		t.Error("Page boundaries wrong")
	}
}

func TestObjectContainsOverlaps(t *testing.T) {
	a := &Object{Name: "a", Size: 100, Base: 1000}
	b := &Object{Name: "b", Size: 50, Base: 1050}
	c := &Object{Name: "c", Size: 50, Base: 1100}
	if !a.Contains(1000) || !a.Contains(1099) || a.Contains(1100) {
		t.Error("Contains boundary wrong")
	}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("a and b should overlap")
	}
	if a.Overlaps(c) || c.Overlaps(a) {
		t.Error("a and c should not overlap")
	}
}

func TestSpacePlaceSequential(t *testing.T) {
	s := NewSpace(0x1000, 0x1000)
	o1 := &Object{Name: "f1", Kind: KindCode, Size: 100, Align: 4}
	o2 := &Object{Name: "f2", Kind: KindCode, Size: 60, Align: 8}
	if err := s.Place(o1); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(o2); err != nil {
		t.Fatal(err)
	}
	if o1.Base != 0x1000 {
		t.Errorf("o1.Base=%#x, want 0x1000", o1.Base)
	}
	if o2.Base != Align(0x1000+100, 8) {
		t.Errorf("o2.Base=%#x, want %#x", o2.Base, Align(0x1000+100, 8))
	}
	if o1.Overlaps(o2) {
		t.Error("sequential placements overlap")
	}
}

func TestSpaceExhaustion(t *testing.T) {
	s := NewSpace(0, 64)
	if err := s.Place(&Object{Name: "big", Size: 65, Align: 4}); err == nil {
		t.Error("expected exhaustion error")
	}
	if err := s.Place(&Object{Name: "fits", Size: 64, Align: 4}); err != nil {
		t.Errorf("64-byte object should fit: %v", err)
	}
	if err := s.Place(&Object{Name: "more", Size: 1, Align: 4}); err == nil {
		t.Error("expected exhaustion after space is full")
	}
}

func TestSpacePlaceAt(t *testing.T) {
	s := NewSpace(0x2000, 0x2000)
	a := &Object{Name: "a", Size: 256, Align: 8}
	if err := s.PlaceAt(a, 0x2100); err != nil {
		t.Fatal(err)
	}
	// Overlap rejected.
	b := &Object{Name: "b", Size: 16, Align: 8}
	if err := s.PlaceAt(b, 0x21f8); err == nil {
		t.Error("expected overlap error")
	}
	// Misalignment rejected.
	if err := s.PlaceAt(b, 0x2204); err == nil {
		t.Error("expected alignment error")
	}
	// Out of range rejected.
	if err := s.PlaceAt(b, 0x3ff8); err == nil {
		t.Error("expected out-of-range error")
	}
	if err := s.PlaceAt(b, 0x2200); err != nil {
		t.Errorf("valid placement rejected: %v", err)
	}
}

func TestSpaceReset(t *testing.T) {
	s := NewSpace(0, 1024)
	if err := s.Place(&Object{Name: "x", Size: 512, Align: 4}); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if s.Used() != 0 || len(s.Objects()) != 0 {
		t.Error("Reset did not clear the space")
	}
	if err := s.Place(&Object{Name: "y", Size: 1024, Align: 4}); err != nil {
		t.Errorf("full-size placement after Reset failed: %v", err)
	}
}

func TestPagesTouched(t *testing.T) {
	s := NewSpace(0, 4*PageSize)
	// One object spanning two pages, one inside a later page.
	if err := s.PlaceAt(&Object{Name: "span", Size: PageSize, Align: 8}, PageSize/2); err != nil {
		t.Fatal(err)
	}
	if err := s.PlaceAt(&Object{Name: "tail", Size: 64, Align: 8}, 3*PageSize); err != nil {
		t.Fatal(err)
	}
	pages := s.PagesTouched()
	want := []Addr{0, 1, 3}
	if len(pages) != len(want) {
		t.Fatalf("pages=%v, want %v", pages, want)
	}
	for i := range want {
		if pages[i] != want[i] {
			t.Fatalf("pages=%v, want %v", pages, want)
		}
	}
}

// TestPagesTouchedCount: the count equals len(PagesTouched()) over
// random object sets mixing single-page objects, objects spanning page
// boundaries, objects sharing a page, page-adjacent objects and
// byte-overlapping objects (recorded directly, as no placement path
// makes them).
func TestPagesTouchedCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewSpace(0, 64*PageSize)
	if got := s.PagesTouchedCount(); got != 0 {
		t.Fatalf("empty space: count %d", got)
	}
	for trial := 0; trial < 2000; trial++ {
		s.Reset()
		for n := 1 + rng.Intn(12); n > 0; n-- {
			var base, size Addr
			switch rng.Intn(4) {
			case 0: // inside one page
				base = Addr(rng.Intn(64))*PageSize + Addr(rng.Intn(PageSize/2))
				size = 1 + Addr(rng.Intn(PageSize/2))
			case 1: // ending exactly at a page boundary: the next page is adjacent
				p := Addr(1 + rng.Intn(62))
				size = 1 + Addr(rng.Intn(3*PageSize))
				if size > p*PageSize {
					size = p * PageSize
				}
				base = p*PageSize - size
			case 2: // starting exactly at a page boundary
				base = Addr(rng.Intn(60)) * PageSize
				size = 1 + Addr(rng.Intn(4*PageSize))
			default: // anywhere, any length up to a few pages
				base = Addr(rng.Intn(60 * PageSize))
				size = 1 + Addr(rng.Intn(4*PageSize))
			}
			s.objs = append(s.objs, &Object{Name: "o", Base: base, Size: size})
		}
		set := map[Addr]bool{}
		for _, o := range s.objs {
			for p := Page(o.Base); p <= Page(o.End()-1); p++ {
				set[p] = true
			}
		}
		got, want := s.PagesTouchedCount(), len(s.PagesTouched())
		if got != want || want != len(set) {
			t.Fatalf("trial %d: PagesTouchedCount %d, len(PagesTouched) %d, distinct pages %d over %v",
				trial, got, want, len(set), s.objs)
		}
	}
	// The count runs on every DSR reboot: no allocation once the
	// scratch buffer has grown.
	if a := testing.AllocsPerRun(100, func() { s.PagesTouchedCount() }); a != 0 {
		t.Errorf("PagesTouchedCount allocates %v times per call", a)
	}
}

// Property: objects placed by Place never overlap pairwise.
func TestPlaceNoOverlapProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		s := NewSpace(0x10000, 1<<20)
		var placed []*Object
		for i, sz := range sizes {
			if sz == 0 {
				continue
			}
			o := &Object{Name: "o", Size: Addr(sz), Align: 8}
			if err := s.Place(o); err != nil {
				return true // exhaustion is fine
			}
			_ = i
			placed = append(placed, o)
		}
		for i := 0; i < len(placed); i++ {
			for j := i + 1; j < len(placed); j++ {
				if placed[i].Overlaps(placed[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	if KindCode.String() != "code" || KindData.String() != "data" ||
		KindStack.String() != "stack" || KindMetadata.String() != "metadata" {
		t.Error("ObjectKind.String mismatch")
	}
	if ObjectKind(99).String() == "" {
		t.Error("unknown kind should still stringify")
	}
}
