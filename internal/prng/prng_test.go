package prng

import (
	"math"
	"testing"
	"testing/quick"
)

func sources(seed uint64) map[string]Source {
	return map[string]Source{
		"mwc":  NewMWC(seed),
		"lfsr": NewLFSR(seed),
	}
}

func TestDeterminism(t *testing.T) {
	for name := range sources(1) {
		a := sources(12345)[name]
		b := sources(12345)[name]
		for i := 0; i < 100; i++ {
			if a.Uint32() != b.Uint32() {
				t.Errorf("%s: same seed diverged at draw %d", name, i)
				break
			}
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	for name := range sources(1) {
		a := sources(1)[name]
		b := sources(2)[name]
		same := 0
		for i := 0; i < 100; i++ {
			if a.Uint32() == b.Uint32() {
				same++
			}
		}
		if same > 5 {
			t.Errorf("%s: seeds 1 and 2 agree on %d/100 draws", name, same)
		}
	}
}

func TestZeroSeedIsNonDegenerate(t *testing.T) {
	for name, src := range sources(0) {
		zero := 0
		for i := 0; i < 100; i++ {
			if src.Uint32() == 0 {
				zero++
			}
		}
		if zero > 3 {
			t.Errorf("%s: zero seed produced %d/100 zero outputs", name, zero)
		}
	}
}

// The MWC absorbing state must be escaped at seeding time.
func TestMWCAbsorbingStateRemapped(t *testing.T) {
	m := &MWC{}
	m.Seed(uint64(mwcA-1)<<32 | uint64(mwcA-1))
	seen := map[uint32]bool{}
	for i := 0; i < 16; i++ {
		seen[m.Uint32()] = true
	}
	if len(seen) < 8 {
		t.Errorf("MWC seeded at absorbing state produced only %d distinct values", len(seen))
	}
}

// Basic uniformity: mean of many draws scaled to [0,1) should be ~0.5 and
// each of 16 buckets should hold roughly 1/16 of the mass.
func TestUniformity(t *testing.T) {
	const n = 200000
	for name, src := range sources(42) {
		var sum float64
		buckets := make([]int, 16)
		for i := 0; i < n; i++ {
			v := src.Uint32()
			sum += float64(v) / float64(math.MaxUint32)
			buckets[v>>28]++
		}
		mean := sum / n
		if mean < 0.49 || mean > 0.51 {
			t.Errorf("%s: mean=%f, want ~0.5", name, mean)
		}
		for i, b := range buckets {
			frac := float64(b) / n
			if frac < 1.0/16-0.01 || frac > 1.0/16+0.01 {
				t.Errorf("%s: bucket %d holds %f of the mass, want ~%f", name, i, frac, 1.0/16)
			}
		}
	}
}

// Serial correlation of successive draws should be near zero.
func TestSerialCorrelation(t *testing.T) {
	const n = 100000
	for name, src := range sources(7) {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(src.Uint32()) / float64(math.MaxUint32)
		}
		var mean float64
		for _, x := range xs {
			mean += x
		}
		mean /= n
		var num, den float64
		for i := 0; i < n-1; i++ {
			num += (xs[i] - mean) * (xs[i+1] - mean)
		}
		for _, x := range xs {
			den += (x - mean) * (x - mean)
		}
		r := num / den
		if math.Abs(r) > 0.01 {
			t.Errorf("%s: lag-1 autocorrelation %f, want |r|<0.01", name, r)
		}
	}
}

func TestIntnRange(t *testing.T) {
	src := NewMWC(9)
	for i := 0; i < 1000; i++ {
		v := Intn(src, 7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(src, 0) did not panic")
		}
	}()
	Intn(NewMWC(1), 0)
}

// Property: AlignedOffset always returns a multiple of align in [0,bound).
func TestAlignedOffsetProperty(t *testing.T) {
	src := NewMWC(3)
	f := func(slots uint8) bool {
		n := int(slots%64) + 1
		bound := n * 8
		v := AlignedOffset(src, bound, 8)
		return v >= 0 && v < bound && v%8 == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAlignedOffsetCoversAllSlots(t *testing.T) {
	src := NewMWC(11)
	seen := map[int]bool{}
	for i := 0; i < 2000; i++ {
		seen[AlignedOffset(src, 64, 8)] = true
	}
	if len(seen) != 8 {
		t.Errorf("AlignedOffset(64,8) hit %d/8 slots", len(seen))
	}
}

func TestAlignedOffsetValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AlignedOffset with bound not divisible by align did not panic")
		}
	}()
	AlignedOffset(NewMWC(1), 20, 8)
}

func TestFloat64Range(t *testing.T) {
	src := NewLFSR(5)
	for i := 0; i < 1000; i++ {
		f := Float64(src)
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
	}
}

// TestFloat64Pinned pins Float64's first outputs on both generators, so
// a change to its mapping or draw order shows.
func TestFloat64Pinned(t *testing.T) {
	want := [][2]uint64{
		{0x3f9c5601bf7ceee0, 0x3feaaa26321dc3c5},
		{0x3fe7e96193a96f1a, 0x3fe7a5b8b5c9202c},
		{0x3fa354e8a3216770, 0x3fdefff05ee18778},
	}
	m, l := NewMWC(1), NewLFSR(1)
	for i, w := range want {
		if got := math.Float64bits(Float64(m)); got != w[0] {
			t.Errorf("MWC draw %d: %#016x, want %#016x", i, got, w[0])
		}
		if got := math.Float64bits(Float64(l)); got != w[1] {
			t.Errorf("LFSR draw %d: %#016x, want %#016x", i, got, w[1])
		}
	}
}

// TestMWCFloat64MatchesFloat64 runs the method and the Source helper on
// twin streams: every draw and the state after it must agree.
func TestMWCFloat64MatchesFloat64(t *testing.T) {
	a, b := NewMWC(2024), NewMWC(2024)
	for i := 0; i < 100000; i++ {
		x, y := a.Float64(), Float64(b)
		if math.Float64bits(x) != math.Float64bits(y) || a.State() != b.State() {
			t.Fatalf("draw %d: method %v, Float64 %v", i, x, y)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	src := NewMWC(77)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := Perm(src, n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermVaries(t *testing.T) {
	src := NewMWC(123)
	distinct := map[string]bool{}
	for i := 0; i < 50; i++ {
		p := Perm(src, 6)
		key := ""
		for _, v := range p {
			key += string(rune('a' + v))
		}
		distinct[key] = true
	}
	if len(distinct) < 20 {
		t.Errorf("50 draws of Perm(6) produced only %d distinct permutations", len(distinct))
	}
}

// LFSR must have full period behaviour at word granularity: no repeats in
// a short window, and state never reaches zero.
func TestLFSRNoShortCycle(t *testing.T) {
	l := NewLFSR(1)
	seen := map[uint32]int{}
	for i := 0; i < 10000; i++ {
		v := l.Uint32()
		if prev, ok := seen[v]; ok {
			t.Fatalf("LFSR output repeated at draws %d and %d", prev, i)
		}
		seen[v] = i
	}
}

func BenchmarkMWC(b *testing.B) {
	m := NewMWC(1)
	for i := 0; i < b.N; i++ {
		_ = m.Uint32()
	}
}

func BenchmarkLFSR(b *testing.B) {
	l := NewLFSR(1)
	for i := 0; i < b.N; i++ {
		_ = l.Uint32()
	}
}
