package spaceapp

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"dsr/internal/prng"
)

// referenceGenScene is GenScene in its direct form: one Exp per lit
// pixel and every draw through the Source interface. GenScene must
// reproduce it byte for byte.
func referenceGenScene(seed uint64, litFrac float64) *Scene {
	src := prng.NewMWC(seed ^ 0xC0DE)
	s := &Scene{Pixels: make([]byte, NumLenses*PixelsPerLens)}
	for l := 0; l < NumLenses; l++ {
		lit := prng.Float64(src) < litFrac
		if lit {
			s.Lit++
		}
		cx := float64(LensPixels)/2 + prng.Float64(src)*6 - 3
		cy := float64(LensPixels)/2 + prng.Float64(src)*6 - 3
		base := l * PixelsPerLens
		for y := 0; y < LensPixels; y++ {
			for x := 0; x < LensPixels; x++ {
				var v float64
				if lit {
					dx := float64(x) - cx
					dy := float64(y) - cy
					v = 230 * math.Exp(-(dx*dx+dy*dy)/60)
					v += prng.Float64(src) * 25
				} else {
					v = prng.Float64(src) * 30
				}
				if v > 255 {
					v = 255
				}
				s.Pixels[base+y*LensPixels+x] = byte(v)
			}
		}
	}
	return s
}

func TestGenSceneMatchesReference(t *testing.T) {
	seeds := uint64(500)
	if testing.Short() {
		seeds = 50
	}
	for _, litFrac := range []float64{0, 0.3, LitFraction, 1} {
		for seed := uint64(0); seed < seeds; seed++ {
			got, want := GenScene(seed, litFrac), referenceGenScene(seed, litFrac)
			if got.Lit != want.Lit {
				t.Fatalf("seed %d lit %.2f: Lit=%d, reference %d", seed, litFrac, got.Lit, want.Lit)
			}
			if i := firstDiff(got.Pixels, want.Pixels); i >= 0 {
				t.Fatalf("seed %d lit %.2f: pixel %d = %d, reference %d",
					seed, litFrac, i, got.Pixels[i], want.Pixels[i])
			}
		}
	}
}

// TestGenSceneIntoReuse draws each seed's scene into one reused buffer
// straight after a fully lit scene and then after a fully dark one: the
// bytes and Lit must be GenScene's, whatever the buffer held before.
func TestGenSceneIntoReuse(t *testing.T) {
	seeds := uint64(50)
	if testing.Short() {
		seeds = 10
	}
	var s Scene
	for _, litFrac := range []float64{0, 0.3, LitFraction, 1} {
		for seed := uint64(0); seed < seeds; seed++ {
			want := GenScene(seed, litFrac)
			for _, prev := range []float64{1, 0} {
				GenSceneInto(&s, seed+1, prev)
				GenSceneInto(&s, seed, litFrac)
				if s.Lit != want.Lit {
					t.Fatalf("seed %d lit %.2f after lit %.0f: Lit=%d, GenScene %d", seed, litFrac, prev, s.Lit, want.Lit)
				}
				if i := firstDiff(s.Pixels, want.Pixels); i >= 0 {
					t.Fatalf("seed %d lit %.2f after lit %.0f: pixel %d = %d, GenScene %d",
						seed, litFrac, prev, i, s.Pixels[i], want.Pixels[i])
				}
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestLitRowGuard feeds litRow row factors that are off by more than the
// rounding bound, so each pixel shows which path it took: near an integer
// it must use the direct form, elsewhere the separable value it is given.
func TestLitRowGuard(t *testing.T) {
	const cx, dy = 17.5, -1.25
	direct := func(x int) float64 {
		dx := float64(x) - cx
		return 230 * math.Exp(-(dx*dx+dy*dy)/60)
	}
	var row, noise [LensPixels]float64
	want := make([]byte, LensPixels)
	for x := range row {
		spot := direct(x)
		switch x % 3 {
		case 0, 1:
			// Noise that puts the direct sum exactly on an integer k
			// (k = 255 in column 1, the clamp), with a separable value
			// within the guard below it: alone it would give k-1.
			k := math.Ceil(spot) + 2
			if x%3 == 1 {
				k = 255
			}
			noise[x] = k - spot
			if spot+noise[x] != k {
				t.Fatalf("x=%d: spot+noise=%.17g, want %g", x, spot+noise[x], k)
			}
			row[x] = spot - spotGuard/2
			want[x] = byte(k)
		case 2:
			// Outside the guard the separable value is trusted.
			noise[x] = math.Ceil(spot) - spot
			row[x] = spot - 0.5
			want[x] = byte(math.Ceil(spot) - 1)
		}
	}
	var got [LensPixels]byte
	litRow(&got, &row, &noise, 1, cx, dy)
	if i := firstDiff(got[:], want); i >= 0 {
		t.Fatalf("pixel %d (path %d) = %d, want %d", i, i%3, got[i], want[i])
	}
}

// referenceGenControlInput is GenControlInput with every draw through
// the Source interface.
func referenceGenControlInput(seed uint64) *ControlInput {
	src := prng.NewMWC(seed ^ 0x5EA5)
	in := &ControlInput{
		Raw:     make([]uint32, RawWords),
		Mailbox: make([]uint32, MailboxWords),
	}
	for i := 0; i < 16; i++ {
		in.Raw[i] = src.Uint32()
	}
	for z := 0; z < NumZones; z++ {
		v := float32(prng.Float64(src)*40 - 20)
		if prng.Float64(src) < 0.02 {
			v *= 5
		}
		in.Raw[16+z] = math.Float32bits(v)
	}
	for i := range in.Mailbox {
		w := src.Uint32()
		op := uint32(prng.Intn(src, 6))
		in.Mailbox[i] = w&0x0FFFFFFF | op<<28
	}
	return in
}

func TestGenControlInputMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 1000; seed++ {
		got, want := GenControlInput(seed), referenceGenControlInput(seed)
		if !slices.Equal(got.Raw, want.Raw) || !slices.Equal(got.Mailbox, want.Mailbox) {
			t.Fatalf("seed %d: input differs from the reference", seed)
		}
	}
}

// TestGenControlInputIntoReuse draws each seed's input into one reused
// buffer that last held another seed's: it must be GenControlInput's.
func TestGenControlInputIntoReuse(t *testing.T) {
	var in ControlInput
	for seed := uint64(0); seed < 1000; seed++ {
		GenControlInputInto(&in, seed+7919)
		GenControlInputInto(&in, seed)
		want := GenControlInput(seed)
		if !slices.Equal(in.Raw, want.Raw) || !slices.Equal(in.Mailbox, want.Mailbox) {
			t.Fatalf("seed %d: reused input differs from GenControlInput", seed)
		}
	}
}

var sceneSink *Scene

// BenchmarkGenScene measures one scene at the paper's lit fraction.
func BenchmarkGenScene(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sceneSink = GenScene(uint64(i), LitFraction)
	}
}
