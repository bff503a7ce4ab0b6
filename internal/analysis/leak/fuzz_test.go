package leak

import (
	"testing"

	"dsr/internal/attack"
	"dsr/internal/isa"
	"dsr/internal/loader"
	"dsr/internal/mem"
	"dsr/internal/platform"
	"dsr/internal/prog"
)

// FuzzLeakSound is the leakage analyzer's standing soundness oracle,
// the side-channel sibling of wcet.FuzzWCETSound. Every fuzz input is
// decoded into a small structured program whose 64-word buffer is the
// secret: the static analyzer bounds both channels, then the victim
// runs under the attack observers with several secret values, and the
// measured observations must stay inside the static bounds:
//
//   - each run's final per-cache occupancy total ≤ the channel's
//     footprint-line bound,
//   - log2(#distinct prime+probe vector keys) ≤ AccessBits,
//   - log2(#distinct trace keys) ≤ TraceBits, and
//   - log2(#distinct cycle counts) ≤ TraceBits (timing is a function
//     of the path and the per-access outcomes the trace bound counts).
//
// A refusal (Bounded=false) is always acceptable — the invariant
// constrains only the bounds the analyzer is willing to claim.
func FuzzLeakSound(f *testing.F) {
	f.Add([]byte{})                                  // empty body
	f.Add([]byte{0, 1, 2, 3})                        // straight line
	f.Add([]byte{2, 0, 6, 0, 3, 1, 1})               // secret-dependent diamond
	f.Add([]byte{4, 10, 0, 7, 2, 9, 3, 5, 5})        // one loop with a store
	f.Add([]byte{4, 3, 4, 5, 2, 8, 5, 1, 6, 5})      // nested loops
	f.Add([]byte{6, 2, 0, 9, 6, 1, 7, 3})            // diamonds and a call
	f.Add([]byte{8, 0, 8, 5, 4, 6, 8, 2, 5, 7, 0})   // FPU inside a loop
	f.Add([]byte{4, 200, 2, 11, 6, 99, 2, 2, 5, 5})  // loop over a secret load
	f.Add([]byte{2, 4, 6, 4, 3, 0, 2, 12, 6, 12, 3}) // two secret branches

	f.Fuzz(func(t *testing.T, data []byte) {
		p := genLeakProgram(data)
		if p == nil {
			return
		}
		r := analyzeDet(p)
		if !r.Bounded {
			// Refusing is sound; claiming is what we check.
			if !r.HasErrors() {
				t.Fatalf("not bounded but no Error diagnostic:\n%s", diagText(r))
			}
			return
		}

		const secrets = 4
		vec := map[string]bool{}
		trc := map[string]bool{}
		cyc := map[string]bool{}
		for _, o := range observeSecrets(t, p, secrets) {
			for ci, occ := range [][]int{o.IL1, o.DL1, o.L2} {
				total := 0
				for _, n := range occ {
					total += n
				}
				if ch := r.Channels[ci]; total > ch.FootprintLines {
					t.Fatalf("UNSOUND: %s occupancy %d lines > static footprint %d\ndiags:\n%s",
						ch.Cache, total, ch.FootprintLines, diagText(r))
				}
			}
			vec[o.PrimeProbeKey(true)] = true
			trc[o.TraceKey()] = true
			cyc[o.CyclesKey()] = true
		}
		if got := attack.DistinctBits(len(vec)); got > r.AccessBits+1e-9 {
			t.Fatalf("UNSOUND: measured access bits %f > static %f (%d keys over %d secrets)",
				got, r.AccessBits, len(vec), secrets)
		}
		if got := attack.DistinctBits(len(trc)); got > r.TraceBits+1e-9 {
			t.Fatalf("UNSOUND: measured trace bits %f > static %f", got, r.TraceBits)
		}
		if got := attack.DistinctBits(len(cyc)); got > r.TraceBits+1e-9 {
			t.Fatalf("UNSOUND: measured timing bits %f > static trace bound %f", got, r.TraceBits)
		}
	})
}

// observeSecrets runs p's deterministic build n times, each with a
// different secret in "buf", under the prime+probe/evict+time probe.
func observeSecrets(t *testing.T, p *prog.Program, n int) []attack.Observation {
	t.Helper()
	img, err := loader.Load(p, loader.DefaultSequentialConfig())
	if err != nil {
		t.Fatalf("load after a bounded analysis: %v", err)
	}
	base, ok := img.Symbols["buf"]
	if !ok {
		t.Fatal("generated image has no buf symbol")
	}
	out := make([]attack.Observation, 0, n)
	for v := 0; v < n; v++ {
		plat := platform.New(platform.ProximaLEON3())
		plat.LoadImage(img)
		probe := attack.Attach(plat)
		for w := 0; w < leakBufWords; w++ {
			secret := uint32(v+1)*2654435761 ^ uint32(w)*0x9E3779B9
			plat.Mem.StoreWord(base+mem.Addr(w)*4, secret)
		}
		probe.Reset()
		res, err := plat.Run()
		if err != nil {
			t.Fatalf("secret %d: %v", v, err)
		}
		out = append(out, probe.Snapshot(res.Cycles))
	}
	return out
}

const leakBufWords = 64

// genLeakProgram deterministically decodes fuzz bytes into a valid
// program, or nil when the decoded body fails to build. The grammar
// mirrors wcet's fuzz grammar (counted loops two deep over L6/L7,
// arithmetic, buffer loads/stores, forward diamonds, a leaf call, FPU
// blocks) so the two soundness fuzzers explore the same program space;
// here the buffer doubles as the secret the dynamic oracle varies.
func genLeakProgram(data []byte) *prog.Program {
	if len(data) > 96 {
		data = data[:96] // cap simulated run length
	}
	scratch := []isa.Reg{isa.L0, isa.L1, isa.L2, isa.L3, isa.L4}
	counters := []isa.Reg{isa.L6, isa.L7}
	intOps := []isa.Op{isa.Add, isa.Sub, isa.Mul, isa.Xor, isa.Or, isa.And}

	b := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		Set(isa.I5, "buf")
	for i, r := range scratch {
		b.MovI(r, int32(i+1))
	}

	next := func(i *int) byte {
		if *i >= len(data) {
			return 0
		}
		v := data[*i]
		*i++
		return v
	}

	type openLoop struct {
		reg   isa.Reg
		bound int32
		label string
	}
	var loops []openLoop
	labelID := 0
	callUsed := false

	i := 0
	for i < len(data) {
		switch next(&i) % 9 {
		case 0, 1: // integer arithmetic
			op := intOps[int(next(&i))%len(intOps)]
			rd := scratch[int(next(&i))%len(scratch)]
			rs := scratch[int(next(&i))%len(scratch)]
			if next(&i)%2 == 0 {
				b.OpI(op, rd, rs, int32(next(&i))%17)
			} else {
				b.Op3(op, rd, rs, scratch[int(next(&i))%len(scratch)])
			}
		case 2: // load a secret word from the buffer
			rd := scratch[int(next(&i))%len(scratch)]
			b.Ld(rd, isa.I5, int32(next(&i))%leakBufWords*4)
		case 3: // store into the buffer
			rs := scratch[int(next(&i))%len(scratch)]
			b.St(rs, isa.I5, int32(next(&i))%leakBufWords*4)
		case 4: // open a counted loop
			if len(loops) >= len(counters) {
				continue
			}
			reg := counters[len(loops)]
			bound := int32(next(&i))%13 + 1
			labelID++
			l := openLoop{reg: reg, bound: bound, label: "L" + string(rune('a'+labelID%26)) + string(rune('0'+labelID/26))}
			b.MovI(reg, 0).Label(l.label)
			loops = append(loops, l)
		case 5: // close the innermost loop
			if len(loops) == 0 {
				continue
			}
			l := loops[len(loops)-1]
			loops = loops[:len(loops)-1]
			b.AddI(l.reg, l.reg, 1).CmpI(l.reg, l.bound).Bl(l.label)
		case 6: // forward diamond (secret-dependent when r holds a load)
			labelID++
			skip := "S" + string(rune('a'+labelID%26)) + string(rune('0'+labelID/26))
			r := scratch[int(next(&i))%len(scratch)]
			b.CmpI(r, int32(next(&i))%8)
			if next(&i)%2 == 0 {
				b.Be(skip)
			} else {
				b.Bg(skip)
			}
			b.OpI(intOps[int(next(&i))%len(intOps)], r, r, 3)
			b.Label(skip)
		case 7: // call the leaf helper
			callUsed = true
			b.Call("helper")
		case 8: // FPU block (fdiv exercises the jitter bound)
			off1 := int32(next(&i)) % leakBufWords * 4
			off2 := int32(next(&i)) % leakBufWords * 4
			f0, f1, f2, f3 := isa.FReg(0), isa.FReg(1), isa.FReg(2), isa.FReg(3)
			b.FLd(f0, isa.I5, off1).
				FLd(f1, isa.I5, off2).
				Fadd(f2, f0, f1).
				Fdiv(f3, f2, f1).
				FSt(f3, isa.I5, off2)
		}
	}
	for len(loops) > 0 { // close any loops left open
		l := loops[len(loops)-1]
		loops = loops[:len(loops)-1]
		b.AddI(l.reg, l.reg, 1).CmpI(l.reg, l.bound).Bl(l.label)
	}
	b.Halt()

	main, err := b.Build()
	if err != nil {
		return nil
	}
	p := &prog.Program{Name: "leakfuzz", Entry: "main"}
	if err := p.AddData(&prog.DataObject{Name: "buf", Size: leakBufWords * 4, Align: 8}); err != nil {
		return nil
	}
	if err := p.AddFunction(main); err != nil {
		return nil
	}
	if callUsed {
		helper, err := prog.NewLeaf("helper").
			AddI(isa.O0, isa.O0, 1).
			MulI(isa.O1, isa.O0, 3).
			RetLeaf().
			Build()
		if err != nil {
			return nil
		}
		if err := p.AddFunction(helper); err != nil {
			return nil
		}
	}
	if err := p.Validate(); err != nil {
		return nil
	}
	return p
}
