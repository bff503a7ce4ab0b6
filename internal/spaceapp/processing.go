package spaceapp

import (
	"math"

	"dsr/internal/isa"
	"dsr/internal/prog"
)

// Processing-task symbol names.
const (
	SymScene      = "scene"
	SymLensFlags  = "lens_flags"
	SymLensTotals = "lens_totals"
	SymCentroids  = "centroids" // cx[0..143] then cy[0..143]
	SymWfeOut     = "wfe_out"
	SymProcConsts = "proc_consts"
)

// proc_consts word indices.
const (
	pcZero = iota
	pcCenter
	numProcConsts
)

func procConstWords() []uint32 {
	w := make([]uint32, numProcConsts)
	w[pcZero] = f32(0)
	w[pcCenter] = f32(fineCenter)
	return w
}

// BuildProcessing constructs the low-criticality image-processing task
// (§IV): phase 1 computes a coarse intensity/threshold pass over every
// lens; phase 2 refines the lightened lenses (~70%) with a sub-pixel
// weighted centroid and per-lens wavefront error. The program halts with
// the RMS wavefront error (float bits) in %o0.
func BuildProcessing() (*prog.Program, error) {
	p := &prog.Program{Name: "processing", Entry: "proc_main"}
	data := []*prog.DataObject{
		{Name: SymScene, Size: NumLenses * PixelsPerLens, Align: 8},
		{Name: SymLensFlags, Size: NumLenses * 4, Align: 8},
		{Name: SymLensTotals, Size: NumLenses * 4, Align: 8},
		{Name: SymCentroids, Size: 2 * NumLenses * 4, Align: 8},
		{Name: SymWfeOut, Size: NumLenses * 4, Align: 8},
		{Name: SymProcConsts, Size: numProcConsts * 4, Align: 8, Init: procConstWords()},
	}
	for _, d := range data {
		if err := p.AddData(d); err != nil {
			return nil, err
		}
	}
	funcs := []*prog.Function{
		procMain(),
		coarsePhase(),
		lensTotal(),
		finePhase(),
		lensCentroid(),
		rmsWfe(),
	}
	for _, f := range funcs {
		if err := p.AddFunction(f); err != nil {
			return nil, err
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func procMain() *prog.Function {
	return prog.NewFunc("proc_main", prog.MinFrame).
		Prologue().
		IPoint(1).
		Call("coarse_phase").
		Call("fine_phase").
		Call("rms_wfe"). // RMS float bits land in %o0
		IPoint(2).
		Halt().
		MustBuild()
}

// coarse_phase: total intensity and lit decision per lens.
func coarsePhase() *prog.Function {
	b := prog.NewFunc("coarse_phase", prog.MinFrame)
	b.Prologue().
		MovI(isa.L0, 0). // lens index
		Label("lens").
		Mov(isa.O0, isa.L0).
		Call("lens_total"). // total in %o0
		Set(isa.L1, SymLensTotals).
		SllI(isa.L2, isa.L0, 2).
		Add(isa.L3, isa.L1, isa.L2).
		St(isa.O0, isa.L3, 0).
		// flag = total > threshold
		MovI(isa.L4, 0).
		CmpI(isa.O0, LitThreshold).
		Ble("dim").
		MovI(isa.L4, 1).
		Label("dim").
		Set(isa.L1, SymLensFlags).
		Add(isa.L3, isa.L1, isa.L2).
		St(isa.L4, isa.L3, 0).
		AddI(isa.L0, isa.L0, 1).
		CmpI(isa.L0, NumLenses).
		Bl("lens").
		Epilogue()
	return b.MustBuild()
}

// lens_total(l): phase-1 sampled intensity — the top byte of each pixel
// word (one pixel in four), summed over the lens image.
func lensTotal() *prog.Function {
	b := prog.NewFunc("lens_total", prog.MinFrame)
	b.Prologue().
		Set(isa.L0, SymScene).
		MulI(isa.L1, isa.I0, PixelsPerLens).
		Add(isa.L0, isa.L0, isa.L1). // lens base
		MovI(isa.L2, 0).             // word index
		MovI(isa.L3, 0).             // sum
		Label("loop").
		SllI(isa.L4, isa.L2, 2).
		Add(isa.L5, isa.L0, isa.L4).
		Ld(isa.L6, isa.L5, 0).
		SrlI(isa.L6, isa.L6, 24). // sampled pixel
		Add(isa.L3, isa.L3, isa.L6).
		AddI(isa.L2, isa.L2, 1).
		CmpI(isa.L2, PixelsPerLens/4).
		Bl("loop").
		Mov(isa.I0, isa.L3).
		Epilogue()
	return b.MustBuild()
}

// fine_phase: sub-pixel refinement of every lit lens.
func finePhase() *prog.Function {
	b := prog.NewFunc("fine_phase", prog.MinFrame)
	b.Prologue().
		MovI(isa.L0, 0).
		Label("lens").
		Set(isa.L1, SymLensFlags).
		SllI(isa.L2, isa.L0, 2).
		Add(isa.L3, isa.L1, isa.L2).
		Ld(isa.L4, isa.L3, 0).
		CmpI(isa.L4, 0).
		Be("skip"). // dim lens: not processed (the paper's ~30%)
		Mov(isa.O0, isa.L0).
		Call("lens_centroid").
		Label("skip").
		AddI(isa.L0, isa.L0, 1).
		CmpI(isa.L0, NumLenses).
		Bl("lens").
		Epilogue()
	return b.MustBuild()
}

// lens_centroid(l): integer weighted centroid over the central
// FineWindow² pixels, converted to float with fitos, divided (the
// jittery FPU ops), and turned into a wavefront error via fsqrt.
func lensCentroid() *prog.Function {
	// MinFrame plus one double-word-aligned local slot: the int→float
	// conversions bounce sx/sy/sw through [%sp+LocalBase].
	b := prog.NewFunc("lens_centroid", prog.MinFrame+8)
	b.Prologue().
		Set(isa.L0, SymScene).
		MulI(isa.L1, isa.I0, PixelsPerLens).
		Add(isa.L0, isa.L0, isa.L1). // lens base
		MovI(isa.L1, 0).             // y
		MovI(isa.L2, 0).             // sw
		MovI(isa.L3, 0).             // sx
		MovI(isa.L4, 0).             // sy
		Label("rows").
		MovI(isa.L5, 0). // x
		// row base = lens + (FineOrigin+y)*LensPixels + FineOrigin
		AddI(isa.L6, isa.L1, FineOrigin).
		MulI(isa.L6, isa.L6, LensPixels).
		Add(isa.L6, isa.L0, isa.L6).
		Label("cols").
		Add(isa.L7, isa.L6, isa.L5).
		Ldub(isa.G1, isa.L7, FineOrigin). // w = pixel
		Add(isa.L2, isa.L2, isa.G1).      // sw += w
		Mul(isa.G2, isa.G1, isa.L5).
		Add(isa.L3, isa.L3, isa.G2). // sx += w*x
		Mul(isa.G2, isa.G1, isa.L1).
		Add(isa.L4, isa.L4, isa.G2). // sy += w*y
		AddI(isa.L5, isa.L5, 1).
		CmpI(isa.L5, FineWindow).
		Bl("cols").
		AddI(isa.L1, isa.L1, 1).
		CmpI(isa.L1, FineWindow).
		Bl("rows").
		// Guard sw == 0 (cannot happen for a lit lens, but stay safe).
		CmpI(isa.L2, 0).
		Be("zero").
		// cx = sx/sw, cy = sy/sw in float.
		St(isa.L3, isa.SP, prog.LocalBase).
		FLd(0, isa.SP, prog.LocalBase).
		Fitos(0, 0). // float(sx)
		St(isa.L4, isa.SP, prog.LocalBase).
		FLd(1, isa.SP, prog.LocalBase).
		Fitos(1, 1). // float(sy)
		St(isa.L2, isa.SP, prog.LocalBase).
		FLd(2, isa.SP, prog.LocalBase).
		Fitos(2, 2).   // float(sw)
		Fdiv(0, 0, 2). // cx
		Fdiv(1, 1, 2). // cy
		// store centroids
		Set(isa.L5, SymCentroids).
		SllI(isa.L6, isa.I0, 2).
		Add(isa.L7, isa.L5, isa.L6).
		FSt(0, isa.L7, 0).
		FSt(1, isa.L7, NumLenses*4).
		// wfe = sqrt((cx-c)^2 + (cy-c)^2)
		Set(isa.L5, SymProcConsts).
		FLd(3, isa.L5, pcCenter*4).
		Fsub(0, 0, 3).
		Fsub(1, 1, 3).
		Fmul(0, 0, 0).
		Fmul(1, 1, 1).
		Fadd(0, 0, 1).
		Fsqrt(0, 0).
		Ba("store").
		Label("zero").
		Set(isa.L5, SymProcConsts).
		FLd(0, isa.L5, pcZero*4).
		Label("store").
		Set(isa.L5, SymWfeOut).
		SllI(isa.L6, isa.I0, 2).
		Add(isa.L7, isa.L5, isa.L6).
		FSt(0, isa.L7, 0).
		Epilogue()
	return b.MustBuild()
}

// rms_wfe: aggregate RMS wavefront error over the lit lenses.
func rmsWfe() *prog.Function {
	b := prog.NewFunc("rms_wfe", prog.MinFrame+16)
	b.Prologue().
		Set(isa.L0, SymLensFlags).
		Set(isa.L1, SymWfeOut).
		Set(isa.L2, SymProcConsts).
		FLd(0, isa.L2, pcZero*4). // acc
		MovI(isa.L3, 0).          // lens
		MovI(isa.L4, 0).          // lit count
		Label("loop").
		SllI(isa.L5, isa.L3, 2).
		Add(isa.L6, isa.L0, isa.L5).
		Ld(isa.L7, isa.L6, 0).
		CmpI(isa.L7, 0).
		Be("next").
		AddI(isa.L4, isa.L4, 1).
		Add(isa.L6, isa.L1, isa.L5).
		FLd(1, isa.L6, 0).
		Fmul(1, 1, 1).
		Fadd(0, 0, 1).
		Label("next").
		AddI(isa.L3, isa.L3, 1).
		CmpI(isa.L3, NumLenses).
		Bl("loop").
		// rms = sqrt(acc / float(lit)); lit==0 → 0
		CmpI(isa.L4, 0).
		Be("empty").
		St(isa.L4, isa.SP, prog.LocalBase).
		FLd(2, isa.SP, prog.LocalBase).
		Fitos(2, 2).
		Fdiv(0, 0, 2).
		Fsqrt(0, 0).
		Ba("out").
		Label("empty").
		FLd(0, isa.L2, pcZero*4).
		Label("out").
		FSt(0, isa.SP, prog.LocalBase).
		Ld(isa.I0, isa.SP, prog.LocalBase). // RMS bits → caller %o0
		Epilogue()
	return b.MustBuild()
}

// ProcessingResult is the golden model's output. It is a value of
// fixed-size arrays, so a golden check allocates nothing.
type ProcessingResult struct {
	RMSBits   uint32 // float32 bits of the RMS wavefront error
	Lit       int
	Flags     [NumLenses]bool
	Wfe       [NumLenses]float32
	Totals    [NumLenses]int32
	Centroids [NumLenses][2]float32
}

// ProcessingReference is the bit-exact golden model of the processing
// task (same operation order as the IR code).
func ProcessingReference(s *Scene) ProcessingResult {
	var res ProcessingResult
	for l := 0; l < NumLenses; l++ {
		base := l * PixelsPerLens
		// Phase 1: sampled total (every 4th pixel = top byte per word).
		var total int32
		for w := 0; w < PixelsPerLens/4; w++ {
			total += int32(s.Pixels[base+w*4])
		}
		res.Totals[l] = total
		res.Flags[l] = total > LitThreshold
	}
	for l := 0; l < NumLenses; l++ {
		if !res.Flags[l] {
			continue
		}
		res.Lit++
		base := l * PixelsPerLens
		var sw, sx, sy int32
		for y := 0; y < FineWindow; y++ {
			row := base + (FineOrigin+y)*LensPixels + FineOrigin
			for x := 0; x < FineWindow; x++ {
				w := int32(s.Pixels[row+x])
				sw += w
				sx += w * int32(x)
				sy += w * int32(y)
			}
		}
		if sw == 0 {
			continue
		}
		cx := float32(sx) / float32(sw)
		cy := float32(sy) / float32(sw)
		res.Centroids[l] = [2]float32{cx, cy}
		dx := cx - fineCenter
		dy := cy - fineCenter
		res.Wfe[l] = float32(math.Sqrt(float64(dx*dx + dy*dy)))
	}
	var acc float32
	for l := 0; l < NumLenses; l++ {
		if res.Flags[l] {
			acc = acc + res.Wfe[l]*res.Wfe[l]
		}
	}
	if res.Lit > 0 {
		rms := float32(math.Sqrt(float64(acc / float32(res.Lit))))
		res.RMSBits = math.Float32bits(rms)
	}
	return res
}
