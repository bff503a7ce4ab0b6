package cpu

import (
	"testing"
	"testing/quick"

	"dsr/internal/isa"
	"dsr/internal/loader"
	"dsr/internal/mem"
	"dsr/internal/prng"
	"dsr/internal/prog"
)

// refALU is an independent reference evaluator for straight-line integer
// code: a plain register map with Go-native semantics. The CPU must
// produce identical final register state for any such program.
type refALU struct {
	regs map[isa.Reg]uint32
}

func (r *refALU) get(reg isa.Reg) uint32 {
	if reg == isa.G0 {
		return 0
	}
	return r.regs[reg]
}

func (r *refALU) set(reg isa.Reg, v uint32) {
	if reg != isa.G0 {
		r.regs[reg] = v
	}
}

func (r *refALU) exec(in isa.Instr) {
	src2 := func() uint32 {
		if in.UseImm {
			return uint32(in.Imm)
		}
		return r.get(in.Rs2)
	}
	a := r.get(in.Rs1)
	switch in.Op {
	case isa.Add:
		r.set(in.Rd, a+src2())
	case isa.Sub:
		r.set(in.Rd, a-src2())
	case isa.And:
		r.set(in.Rd, a&src2())
	case isa.Or:
		r.set(in.Rd, a|src2())
	case isa.Xor:
		r.set(in.Rd, a^src2())
	case isa.Sll:
		r.set(in.Rd, a<<(src2()&31))
	case isa.Srl:
		r.set(in.Rd, a>>(src2()&31))
	case isa.Sra:
		r.set(in.Rd, uint32(int32(a)>>(src2()&31)))
	case isa.Mul:
		r.set(in.Rd, uint32(int32(a)*int32(src2())))
	case isa.Mov:
		r.set(in.Rd, src2())
	case isa.Set:
		r.set(in.Rd, uint32(in.Imm))
	}
}

// aluRegs are the registers the generated programs use: locals only, so
// window mechanics cannot mask ALU bugs (they are tested separately).
var aluRegs = []isa.Reg{isa.L0, isa.L1, isa.L2, isa.L3, isa.L4, isa.L5, isa.L6, isa.L7}

func randomALUInstr(src prng.Source) isa.Instr {
	ops := []isa.Op{isa.Add, isa.Sub, isa.And, isa.Or, isa.Xor,
		isa.Sll, isa.Srl, isa.Sra, isa.Mul, isa.Mov, isa.Set}
	op := ops[prng.Intn(src, len(ops))]
	in := isa.Instr{
		Op:  op,
		Rd:  aluRegs[prng.Intn(src, len(aluRegs))],
		Rs1: aluRegs[prng.Intn(src, len(aluRegs))],
	}
	switch op {
	case isa.Set:
		in.Imm = int32(src.Uint32())
	case isa.Mov:
		if prng.Intn(src, 2) == 0 {
			in.Rs2 = aluRegs[prng.Intn(src, len(aluRegs))]
		} else {
			in.Imm, in.UseImm = int32(src.Uint32()>>16)-32768, true
		}
	default:
		if prng.Intn(src, 2) == 0 {
			in.Rs2 = aluRegs[prng.Intn(src, len(aluRegs))]
		} else {
			in.Imm, in.UseImm = int32(prng.Intn(src, 64)), true
		}
	}
	return in
}

// TestALUDifferential compares the CPU against the reference evaluator
// on random straight-line programs.
func TestALUDifferential(t *testing.T) {
	src := prng.NewMWC(777)
	run := func() bool {
		n := 20 + prng.Intn(src, 60)
		code := make([]isa.Instr, 0, n+2)
		code = append(code, isa.Instr{Op: isa.Save, Imm: prog.MinFrame})
		body := make([]isa.Instr, 0, n)
		for i := 0; i < n; i++ {
			in := randomALUInstr(src)
			body = append(body, in)
		}
		code = append(code, body...)
		code = append(code, isa.Instr{Op: isa.Halt})

		p := &prog.Program{Name: "diff", Entry: "main"}
		if err := p.AddFunction(&prog.Function{
			Name: "main", FrameSize: prog.MinFrame, Code: code,
		}); err != nil {
			t.Fatal(err)
		}
		img, err := loader.Load(p, loader.DefaultSequentialConfig())
		if err != nil {
			t.Fatal(err)
		}
		c := newNullCPU(NewDefaultConfig(), img)
		c.Reset(stackTop)
		if _, err := c.Run(); err != nil {
			t.Logf("cpu error: %v", err)
			return false
		}

		ref := &refALU{regs: map[isa.Reg]uint32{}}
		for _, in := range body {
			ref.exec(in)
		}
		for _, r := range aluRegs {
			if c.Reg(r) != ref.get(r) {
				t.Logf("register %s: cpu=%#x ref=%#x", r, c.Reg(r), ref.get(r))
				return false
			}
		}
		return true
	}
	if err := quick.Check(func(uint8) bool { return run() }, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestMemoryRoundTripDifferential checks that arbitrary store/load
// sequences through the timed path agree with a plain map model.
func TestMemoryRoundTripDifferential(t *testing.T) {
	f := func(ops []uint32, seed uint64) bool {
		src := prng.NewMWC(seed)
		m := NewMemory()
		ref := map[uint64]uint32{}
		base := uint64(0x5000_0000)
		for _, op := range ops {
			addr := base + uint64(op%4096)*4
			if prng.Intn(src, 2) == 0 {
				v := src.Uint32()
				m.StoreWord(mem.Addr(addr), v)
				ref[addr] = v
			} else if m.LoadWord(mem.Addr(addr)) != ref[addr] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
