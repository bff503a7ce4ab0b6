package cpu

import (
	"dsr/internal/isa"
	"dsr/internal/loader"
	"dsr/internal/prog"
)

// This file is the decode half of the threaded-code engine (see
// engine.go for the dispatch loop and DESIGN.md §13 for the full
// argument): each function is predecoded once per (function,
// layout-class) pair into a µop array plus, per instruction index, the
// length of the fusible straight-line run starting there. Only the
// fusible ALU ops and the engine's hot families get tags of their own,
// decode-time specialised (register vs immediate forms split, operands
// resolved to flat-register-file bank/index pairs); every other opcode
// decodes to uExec and runs through exec (cpu.go), so any function
// decodes.
//
// The decode is layout-invariant within a class: the only
// placement-dependent instruction fields are the Set/Call immediates the
// loader patches with symbol addresses, and those are read from the
// *current* PlacedFunc's code at execution time (uSetSym, and exec for
// calls), so one decoded program serves every placement whose base has
// the same offset within an IL1 line. With 8-byte allocation alignment
// and 32-byte lines that is four classes per function, warm after a
// handful of reboots and reused across the thousands of runs of a
// campaign.

// µop tags. Order matters only for the fusible group: tags below
// fusedEnd cost exactly one base-issue cycle, cannot fault, touch no
// memory hierarchy and transfer no control, so the engine executes runs
// of them back-to-back with a single batched charge and no
// per-instruction window/budget/watchdog checks.
const (
	uNop uint8 = iota
	uAddR
	uAddI
	uSubR
	uSubI
	uAndR
	uAndI
	uOrR
	uOrI
	uXorR
	uXorI
	uSllR
	uSllI
	uSrlR
	uSrlI
	uSraR
	uSraI
	uCmpR
	uCmpI
	uMovR
	uMovI
	uSet
	uSetSym
	fusedEnd // sentinel: everything below is non-fusible

	uMulR
	uMulI
	uLd
	uLdub
	uSt
	uStb
	uFLd
	uFSt
	uFadd
	uFsub
	uFmul
	uBr   // any branch; the isa.Op rides in the a operand
	uExec // every other opcode, executed by exec
)

// uop is one predecoded instruction. Integer operands are (bank, index)
// pairs into the flat register file: bank selects rbase (globals, outs,
// locals, ins of the current window), index the word within the bank.
// %g0 reads resolve to (0,0) — rfile[0], permanently zero — and %g0
// writes to (0, scratch), so the execution loop needs no special cases.
// FP operands and a branch's op use the index fields directly. imm
// carries the immediate or the branch displacement (in instructions).
type uop struct {
	tag    uint8
	db, di uint8 // rd (or store-source / FP rd)
	ab, ai uint8 // rs1 (or FP rs1)
	bb, bi uint8 // rs2 (or FP rs2)
	imm    int32
}

// uprog is one decoded function for one layout class. run[i] is the
// number of consecutive fusible µops starting at i that stay inside
// instruction i's fetch-window chunk (zero for non-fusible µops); the
// chunk boundaries are static per class because the IL1 line size
// divides the page size, so an aligned line never straddles a page.
// res[cwp] is the operand-resolved form of ops for one window pointer
// (see ruop), built lazily by resolve.
type uprog struct {
	ops []uop
	run []uint16
	res [][]ruop
}

// ruop is a uop with its operands pre-resolved to absolute register-file
// indices for one window pointer. The bank arithmetic the execution loop
// would otherwise do per operand (rbase[bank]+index) depends only on cwp
// — insIdx is derived from it — so it can be done once per (program,
// cwp) instead of per executed instruction. FP operands pass through
// unchanged: their bank fields are zero and rbase[0] is zero. run is
// uprog.run[i] copied alongside so the dispatch loop reads one record
// per instruction instead of two arrays.
type ruop struct {
	tag     uint8
	d, a, b uint8
	run     uint16
	imm     int32
}

// resolve returns ops with operands resolved for the CPU's current
// window pointer, building and caching the resolution on first use.
// Callers must re-resolve after any window rotation (save, restore,
// ret) — and New guarantees every resolved index fits a uint8.
func (c *CPU) resolve(p *uprog) []ruop {
	if p.res == nil {
		p.res = make([][]ruop, c.cfg.NumWindows)
	}
	if r := p.res[c.cwp]; r != nil {
		return r
	}
	base := [4]int32{0, outBase(c.cwp), localBase(c.cwp), outBase(c.insIdx)}
	r := make([]ruop, len(p.ops))
	for i := range p.ops {
		u := &p.ops[i]
		r[i] = ruop{
			tag: u.tag,
			d:   uint8(base[u.db&3] + int32(u.di)),
			a:   uint8(base[u.ab&3] + int32(u.ai)),
			b:   uint8(base[u.bb&3] + int32(u.bi)),
			run: p.run[i],
			imm: u.imm,
		}
	}
	p.res[c.cwp] = r
	return r
}

// decodeKey identifies a decoded program: the immutable source function
// and the placement's offset within an IL1 line.
type decodeKey struct {
	fn    *prog.Function
	class uint32
}

// rsOp encodes a register read operand.
func rsOp(r isa.Reg) (uint8, uint8) { return uint8(r >> 3), uint8(r & 7) }

// rdOp encodes a register write operand; %g0 writes land in the scratch
// slot (bank 0 so rbase adds nothing).
func rdOp(r isa.Reg, scratch uint8) (uint8, uint8) {
	if r == isa.G0 {
		return 0, scratch
	}
	return uint8(r >> 3), uint8(r & 7)
}

// decoded returns the µop program for pf under the current line size,
// consulting the per-CPU cache. The one-entry (lastPf, lastClass) cache
// makes the common case — consecutive regions of the same function — a
// pointer compare.
func (c *CPU) decoded(pf *loader.PlacedFunc) *uprog {
	class := uint32(pf.Base & (c.fetchLine - 1))
	if pf == c.lastPf && class == c.lastClass {
		return c.lastP
	}
	key := decodeKey{fn: pf.Fn, class: class}
	p, ok := c.decCache[key]
	if !ok {
		p = c.decodeFunc(pf.Fn, class)
		if c.decCache == nil {
			c.decCache = make(map[decodeKey]*uprog)
		}
		c.decCache[key] = p
	}
	c.lastPf, c.lastClass, c.lastP = pf, class, p
	return p
}

// decodeFunc lowers fn's code for one layout class. The IL1 line size
// is a power of two dividing the page size and the %g0 scratch slot
// fits a µop operand; New refuses any other configuration.
func (c *CPU) decodeFunc(fn *prog.Function, class uint32) *uprog {
	scratch := uint8(c.scratchIdx())
	line := uint32(c.fetchLine)
	code := fn.Code
	p := &uprog{ops: make([]uop, len(code)), run: make([]uint16, len(code))}
	for i := range code {
		in := &code[i]
		u := &p.ops[i]
		u.imm = in.Imm

		alu := func(rTag, iTag uint8) {
			u.db, u.di = rdOp(in.Rd, scratch)
			u.ab, u.ai = rsOp(in.Rs1)
			if in.UseImm {
				u.tag = iTag
			} else {
				u.tag = rTag
				u.bb, u.bi = rsOp(in.Rs2)
			}
		}
		fpu := func(tag uint8) {
			u.tag = tag
			u.di = uint8(in.FRd)
			u.ai = uint8(in.FRs1)
			u.bi = uint8(in.FRs2)
		}

		switch in.Op {
		case isa.Nop:
			u.tag = uNop
		case isa.Add:
			alu(uAddR, uAddI)
		case isa.Sub:
			alu(uSubR, uSubI)
		case isa.And:
			alu(uAndR, uAndI)
		case isa.Or:
			alu(uOrR, uOrI)
		case isa.Xor:
			alu(uXorR, uXorI)
		case isa.Sll:
			alu(uSllR, uSllI)
			u.imm = int32(uint32(in.Imm) & 31) // pre-masked shift amount
		case isa.Srl:
			alu(uSrlR, uSrlI)
			u.imm = int32(uint32(in.Imm) & 31)
		case isa.Sra:
			alu(uSraR, uSraI)
			u.imm = int32(uint32(in.Imm) & 31)
		case isa.Mul:
			alu(uMulR, uMulI)
		case isa.Cmp:
			u.ab, u.ai = rsOp(in.Rs1)
			if in.UseImm {
				u.tag = uCmpI
			} else {
				u.tag = uCmpR
				u.bb, u.bi = rsOp(in.Rs2)
			}
		case isa.Set:
			u.db, u.di = rdOp(in.Rd, scratch)
			if in.Sym != "" {
				u.tag = uSetSym // address patched per placement; read at exec
			} else {
				u.tag = uSet
			}
		case isa.Mov:
			u.db, u.di = rdOp(in.Rd, scratch)
			if in.UseImm {
				u.tag = uMovI
			} else {
				u.tag = uMovR
				u.ab, u.ai = rsOp(in.Rs2)
			}
		case isa.Ld:
			u.tag = uLd
			u.db, u.di = rdOp(in.Rd, scratch)
			u.ab, u.ai = rsOp(in.Rs1)
		case isa.Ldub:
			u.tag = uLdub
			u.db, u.di = rdOp(in.Rd, scratch)
			u.ab, u.ai = rsOp(in.Rs1)
		case isa.St:
			u.tag = uSt
			u.db, u.di = rsOp(in.Rd) // store source: a read operand
			u.ab, u.ai = rsOp(in.Rs1)
		case isa.Stb:
			u.tag = uStb
			u.db, u.di = rsOp(in.Rd)
			u.ab, u.ai = rsOp(in.Rs1)
		case isa.FLd:
			u.tag = uFLd
			u.di = uint8(in.FRd)
			u.ab, u.ai = rsOp(in.Rs1)
		case isa.FSt:
			u.tag = uFSt
			u.bi = uint8(in.FRs2)
			u.ab, u.ai = rsOp(in.Rs1)
		case isa.Fadd:
			fpu(uFadd)
		case isa.Fsub:
			fpu(uFsub)
		case isa.Fmul:
			fpu(uFmul)
		case isa.Ba, isa.Be, isa.Bne, isa.Bl, isa.Ble, isa.Bg, isa.Bge,
			isa.Fbe, isa.Fbne, isa.Fbl, isa.Fbg:
			u.tag, u.ai, u.imm = uBr, uint8(in.Op), in.Disp
		default:
			u.tag = uExec
		}
	}

	// Fusible-run lengths, scanned backwards. A run ends at the last
	// instruction of its chunk: the next sequential fetch crosses into a
	// new IL1 line, which the interpreter serves via the slow path, so
	// the engine must stop fusing there and re-check the window.
	var chain uint16
	for i := len(code) - 1; i >= 0; i-- {
		if i+1 == len(code) || (class+uint32(i+1)*uint32(isa.InstrBytes))&(line-1) == 0 {
			chain = 0
		}
		if p.ops[i].tag < fusedEnd {
			chain++
			p.run[i] = chain
		} else {
			chain = 0
		}
	}
	return p
}
