// Package progtest generates small structured programs from fuzz
// bytes, the shared input grammar of the generated-input oracles: the
// static WCET analyzer's soundness fuzzer and the engine/interpreter
// equivalence fuzzer.
package progtest

import (
	"dsr/internal/isa"
	"dsr/internal/prog"
)

// GenProgram deterministically decodes fuzz bytes into a valid program,
// or nil when the decoded body fails to build. The grammar keeps every
// loop a counted loop over a dedicated register (L6 outer, L7 inner) so
// the generated corpus exercises inference, nesting, the cache domains
// and interprocedural composition rather than the refusal paths.
func GenProgram(data []byte) *prog.Program {
	if len(data) > 96 {
		data = data[:96] // cap simulated run length
	}
	const bufWords = 64
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
		case 2: // load from the buffer
			rd := scratch[int(next(&i))%len(scratch)]
			b.Ld(rd, isa.I5, int32(next(&i))%bufWords*4)
		case 3: // store into the buffer
			rs := scratch[int(next(&i))%len(scratch)]
			b.St(rs, isa.I5, int32(next(&i))%bufWords*4)
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
		case 6: // forward diamond
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
			off1 := int32(next(&i)) % bufWords * 4
			off2 := int32(next(&i)) % bufWords * 4
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
	p := &prog.Program{Name: "fuzz", Entry: "main"}
	if err := p.AddData(&prog.DataObject{Name: "buf", Size: bufWords * 4, Align: 8}); err != nil {
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
