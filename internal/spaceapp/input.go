package spaceapp

import (
	"fmt"
	"math"

	"dsr/internal/cpu"
	"dsr/internal/loader"
	"dsr/internal/mem"
	"dsr/internal/prng"
)

// ControlInput is one activation's input vector for the control task:
// the raw sensor DMA buffer and the spacecraft uplink mailbox.
type ControlInput struct {
	Raw     []uint32 // RawWords: 16 header words + NumZones wfe floats
	Mailbox []uint32 // MailboxWords command words
}

// GenControlInput synthesises a plausible input: wavefront errors mostly
// inside the ±50 validation window with ~2% outliers (exercising the
// substitution path), and a mailbox with a mix of known and unknown
// opcodes. The same seed always yields the same input.
func GenControlInput(seed uint64) *ControlInput {
	in := new(ControlInput)
	GenControlInputInto(in, seed)
	return in
}

// GenControlInputInto draws GenControlInput(seed) into in, reusing its
// buffers (allocated on first use). Every word is overwritten.
func GenControlInputInto(in *ControlInput, seed uint64) {
	if len(in.Raw) != RawWords || len(in.Mailbox) != MailboxWords {
		in.Raw = make([]uint32, RawWords)
		in.Mailbox = make([]uint32, MailboxWords)
	}
	src := prng.NewMWC(seed ^ 0x5EA5)
	for i := 0; i < 16; i++ {
		in.Raw[i] = src.Uint32()
	}
	for z := 0; z < NumZones; z++ {
		v := float32(src.Float64()*40 - 20) // nominal ±20
		if src.Float64() < 0.02 {
			v *= 5 // occasional out-of-window outlier
		}
		in.Raw[16+z] = math.Float32bits(v)
	}
	for i := range in.Mailbox {
		w := src.Uint32()
		op := uint32(prng.Intn(src, 6)) // opcodes 0..5; 1-3 are known
		in.Mailbox[i] = w&0x0FFFFFFF | op<<28
	}
}

// ApplyControlInput pokes the input into the loaded image's buffers
// (the DMA delivery of fresh sensor data before an activation).
func ApplyControlInput(m *cpu.Memory, img *loader.Image, in *ControlInput) error {
	raw, ok := img.Symbols[SymSensorRaw]
	if !ok {
		return fmt.Errorf("spaceapp: image has no %s", SymSensorRaw)
	}
	mb, ok := img.Symbols[SymMailbox]
	if !ok {
		return fmt.Errorf("spaceapp: image has no %s", SymMailbox)
	}
	for i, w := range in.Raw {
		m.StoreWord(raw+mem.Addr(i)*4, w)
	}
	for i, w := range in.Mailbox {
		m.StoreWord(mb+mem.Addr(i)*4, w)
	}
	return nil
}

// Scene is one activation's input for the image-processing task: the
// 12×12 lens array, 34×34 pixels each, row-major by lens then pixel.
type Scene struct {
	Pixels []byte // NumLenses * PixelsPerLens
	// Lit is how many lenses the generator made bright (informative).
	Lit int
}

// GenScene synthesises a lens array in which litFrac of the lenses are
// brightly illuminated (a Gaussian-ish spot) and the rest are dim noise.
// The paper's inputs light around 70% of the lenses.
//
// A lit pixel's value is 230*exp(-(dx²+dy²)/60) plus uniform noise in
// [0,25), truncated to a byte and clamped at 255. The spot is separable,
// so each lit lens takes 34 row factors 230*exp(-dx²/60) and 34 column
// factors exp(-dy²/60), 68 Exp calls instead of 1,156, and a pixel is
// their product; litRow keeps every byte equal to the one the direct
// expression gives. The draws and their order are those of the direct
// form: per lens the lit draw and the centre (cx, cy), then one draw per
// pixel in row-major order.
func GenScene(seed uint64, litFrac float64) *Scene {
	s := new(Scene)
	GenSceneInto(s, seed, litFrac)
	return s
}

// GenSceneInto draws GenScene(seed, litFrac) into s, reusing its pixel
// buffer (allocated on first use). Every pixel is overwritten and Lit
// is recounted, so what s held before leaves no trace.
func GenSceneInto(s *Scene, seed uint64, litFrac float64) {
	if len(s.Pixels) != NumLenses*PixelsPerLens {
		s.Pixels = make([]byte, NumLenses*PixelsPerLens)
	}
	s.Lit = 0
	src := prng.NewMWC(seed ^ 0xC0DE)
	var row, col, noise [LensPixels]float64
	for l := 0; l < NumLenses; l++ {
		lit := src.Float64() < litFrac
		// Spot centre, slightly offset per lens (the wavefront slope).
		cx := float64(LensPixels)/2 + src.Float64()*6 - 3
		cy := float64(LensPixels)/2 + src.Float64()*6 - 3
		px := s.Pixels[l*PixelsPerLens : (l+1)*PixelsPerLens]
		if !lit {
			for i := range px {
				px[i] = byte(src.Float64() * 30)
			}
			continue
		}
		s.Lit++
		for i := range row {
			dx := float64(i) - cx
			row[i] = 230 * math.Exp(-dx*dx/60)
			dy := float64(i) - cy
			col[i] = math.Exp(-dy * dy / 60)
		}
		for y := range col {
			for x := range noise {
				noise[x] = src.Float64() * 25
			}
			litRow((*[LensPixels]byte)(px[y*LensPixels:]), &row, &noise, col[y], cx, float64(y)-cy)
		}
	}
}

// spotGuard is the distance from an integer within which litRow does not
// trust a separable pixel value.
//
// Why 1e-9 suffices. Let u = 2^-53. Both forms compute the same offsets
// dx, dy and the same rounded squares, with |dx|, |dy| < 20 (the centre
// lies in [14, 20), pixels in [0, 33]), so the exact exponent t of those
// squares has |t| < 13.4. The direct form rounds their sum and the
// quotient (argument error <= 2.01u|t| < 26.9u); the separable form
// rounds each quotient (< 13.4u for their sum). math.Exp is accurate to
// 1 ulp (2u), and each product by 230 or by a factor rounds once (u).
// To first order the direct value is 230*e^t*(1+ε) with |ε| < 29.9u, the
// separable one with |ε| < 19.4u, so they differ by less than
// 230*50u < 1.3e-12. Adding the same noise (< 25) rounds each sum at
// magnitude < 512, at most half an ulp there (2.9e-14) each. A byte is
// floor(v) clamped at the integer 255, so the two bytes can differ only
// if an integer lies between the two sums, that is within 1.4e-12 of
// the separable one. The guard leaves a margin of over 700×.
const spotGuard = 1e-9

// litRow fills out, one pixel row of a lit lens, whose column factor is
// c and whose offset from the spot centre is dy. Pixel x is
// row[x]*c + noise[x], truncated and clamped at 255, unless that value
// lies within spotGuard of an integer: then the spot is recomputed in
// its direct form with dx = x-cx and the same noise.
func litRow(out *[LensPixels]byte, row, noise *[LensPixels]float64, c, cx, dy float64) {
	for x := range out {
		v := row[x]*c + noise[x]
		i := int(v)
		if f := v - float64(i); f < spotGuard || f > 1-spotGuard {
			dx := float64(x) - cx
			v = 230 * math.Exp(-(dx*dx+dy*dy)/60)
			v += noise[x]
			i = int(v)
		}
		out[x] = byte(min(i, 255))
	}
}

// ApplyScene pokes the lens images into the processing task's buffer.
func ApplyScene(m *cpu.Memory, img *loader.Image, s *Scene) error {
	base, ok := img.Symbols[SymScene]
	if !ok {
		return fmt.Errorf("spaceapp: image has no %s", SymScene)
	}
	// Pack bytes big-endian into words, as the target stores them.
	for i := 0; i+3 < len(s.Pixels); i += 4 {
		w := uint32(s.Pixels[i])<<24 | uint32(s.Pixels[i+1])<<16 |
			uint32(s.Pixels[i+2])<<8 | uint32(s.Pixels[i+3])
		m.StoreWord(base+mem.Addr(i), w)
	}
	return nil
}
