package cpu

import (
	"math"

	"dsr/internal/isa"
	"dsr/internal/loader"
	"dsr/internal/mem"
	"dsr/internal/telemetry"
)

// This file is the dispatch half of the threaded-code engine: Run and
// RunBudget hand the whole execution to runFast unless the interpreter
// is forced, and runFast executes predecoded µops (decode.go).
// The engine defines no instruction semantics of its own. Opcodes
// outside its fused ALU runs and hot families decode to uExec and run
// through exec, the interpreter's one definition of every opcode
// (cpu.go); each hot-family arm — multiply, FP add/sub/mul, branches,
// loads and stores — calls the helper that exec's arm calls, inlined
// but for the byte accesses' dread and dwrite.
// Every observable of a run (cycle counter, PMCs, registers, memory,
// cache/TLB state, trace points, attribution, error values and the PC
// at every stop) is byte-identical to the interpreter's (Step), which
// the equivalence suites in engine_test.go pin.
//
// Where the speed comes from: within one fetch-window chunk (IL1 line ∩
// function), straight-line runs of single-cycle ALU µops execute
// back-to-back with one batched cycle/instruction-counter charge and no
// per-instruction fetch, window, budget or watchdog checks — the
// decode-time run[] lengths plus a headroom clamp make that exact rather
// than approximate. Operands are pre-resolved to absolute register-file
// indices per window pointer (decode.go: resolve), so the hot dispatch
// does no bank arithmetic. Window re-arms for sequential line crossings
// and intra-function control transfers pay exactly the interpreter's
// slow-fetch accesses (ITLB translate + IL1 line read) without leaving
// the dispatch loop. The cycle and retired-instruction counters are
// carried in locals (cyc, ins) and written back to the CPU only around
// calls that read or charge them, and at every exit.
//
// Attribution does not change the dispatch: exec and the shared helpers
// book the variable charge points, memory traffic books through dread
// and dwrite and their hushed spans, the inline re-arm books its IL1
// front directly, and the fixed-latency events (base issue, taken
// branches, load-use, store-issue) are booked in bulk from the PMCs on
// return (bookFixed).

// NoBudget is the budget of an unbounded run: it makes RunBudget's
// cycle gate unreachable, so RunBudget(NoBudget) stops only at Halt or
// on an error.
const NoBudget = ^mem.Cycles(0)

// rfileSlots is the padded register-file size the engine addresses: one
// more than the largest index a resolved uint8 operand can carry, so
// rf[u.d] needs no bounds check against a *[rfileSlots]uint32.
const rfileSlots = 256

// engineOK reports whether the threaded-code engine may execute: unless
// the equivalence suites force the interpreter, it always may. What the
// engine needs to stay exact New guarantees: IL1 and ITLB hits cost
// zero (so the fetch window is free), the IL1 line size divides the
// page size (so fetch-window boundaries depend only on the placement's
// line offset — the layout class), and every register-file index
// including the %g0 scratch slot fits the µop encoding. Attribution is
// not a condition: the engine books the same components as the
// interpreter.
func (c *CPU) engineOK() bool { return !c.forceInterp }

// runFast executes until Halt, an error, the instruction watchdog or
// the cycle budget, byte-identical to the Step loop. The outer loop
// performs the per-instruction gates and the exact fetch (fast window
// hit or fetchSlow with its cache/TLB side effects); the inner loop
// stays within one decoded function and re-enters the outer loop only
// when control leaves the function or the window cannot be re-armed
// inline.
func (c *CPU) runFast(budget mem.Cycles) error {
	rf := (*[rfileSlots]uint32)(c.rfile[:rfileSlots])
	line := c.fetchLine
	itlb, il1 := c.itlb, c.il1
	att := c.att
	// Under attribution the engine books the fixed-latency events —
	// base issue, taken branches, load-use, store-issue — in bulk from
	// the PMCs when it returns rather than at every event, which keeps
	// the fused runs and the hot arms free of booking.
	if att != nil {
		from := c.ctr
		defer c.bookFixed(&from)
	}
	// maxI as an effective bound: MaxInstrs==0 means no watchdog, which
	// the sentinel makes a plain always-false compare instead of a
	// two-legged test on every gate.
	maxI := ^uint64(0)
	if c.cfg.MaxInstrs > 0 {
		maxI = c.cfg.MaxInstrs
	}

outer:
	for {
		if c.halted {
			return nil
		}
		// Per-instruction gates, before any fetch side effects — budget
		// before watchdog, the same order as RunBudget's loop condition
		// (plain Run passes NoBudget, so the budget gate is inert there).
		if c.cycles >= budget {
			return nil
		}
		if c.ctr.Instrs >= maxI {
			return ErrMaxInstrs
		}
		if pc := c.pc; !(pc >= c.fetchLo && pc < c.fetchHi && pc&(isa.InstrBytes-1) == 0) {
			if _, err := c.fetchSlow(); err != nil {
				return err
			}
		}
		pf := c.curFn
		p := c.decoded(pf)
		ro := c.resolve(p)
		base := pf.Base
		fnEnd := base + mem.Addr(len(p.ops))*isa.InstrBytes
		i := int((c.pc - base) >> 2)
		wLo := int((c.fetchLo - base) >> 2)
		wHi := int((c.fetchHi - base) >> 2)
		// Counter locals: written back to the CPU around every call that
		// can read or charge them (memory traffic, exec), and at every
		// exit from the loop.
		cyc := c.cycles
		ins := c.ctr.Instrs

		for {
			if k := int(ro[i].run); k > 0 {
				// Fused straight-line run: k single-cycle ALU µops, all
				// inside the armed window. Clamp to the watchdog and
				// budget headroom, so the batched charge stops exactly
				// where the interpreter's per-instruction checks would.
				// The watchdog's is ≥ 1 (its gate just passed). The
				// budget's is none when fetching the run's first µop
				// crossed the budget: that µop still retires, since the
				// interpreter's gates precede its fetch.
				if h := maxI - ins; uint64(k) > h {
					k = int(h)
				}
				if cyc >= budget {
					k = 1
				} else if h := budget - cyc; uint64(k) > uint64(h) {
					k = int(h)
				}
				ins += uint64(k)
				cyc += mem.Cycles(k)
				end := i + k
				if end > len(ro) {
					end = len(ro) // never taken (runs stay in-function); proves i < len(ro) below
				}
				for ; i < end; i++ {
					u := &ro[i]
					switch u.tag {
					case uAddR:
						rf[u.d] = rf[u.a] + rf[u.b]
					case uAddI:
						rf[u.d] = rf[u.a] + uint32(u.imm)
					case uSubR:
						rf[u.d] = rf[u.a] - rf[u.b]
					case uSubI:
						rf[u.d] = rf[u.a] - uint32(u.imm)
					case uAndR:
						rf[u.d] = rf[u.a] & rf[u.b]
					case uAndI:
						rf[u.d] = rf[u.a] & uint32(u.imm)
					case uOrR:
						rf[u.d] = rf[u.a] | rf[u.b]
					case uOrI:
						rf[u.d] = rf[u.a] | uint32(u.imm)
					case uXorR:
						rf[u.d] = rf[u.a] ^ rf[u.b]
					case uXorI:
						rf[u.d] = rf[u.a] ^ uint32(u.imm)
					case uSllR:
						rf[u.d] = rf[u.a] << (rf[u.b] & 31)
					case uSllI:
						rf[u.d] = rf[u.a] << uint32(u.imm)
					case uSrlR:
						rf[u.d] = rf[u.a] >> (rf[u.b] & 31)
					case uSrlI:
						rf[u.d] = rf[u.a] >> uint32(u.imm)
					case uSraR:
						rf[u.d] = uint32(int32(rf[u.a]) >> (rf[u.b] & 31))
					case uSraI:
						rf[u.d] = uint32(int32(rf[u.a]) >> uint32(u.imm))
					case uCmpR:
						a, b := int32(rf[u.a]), int32(rf[u.b])
						c.iccZ, c.iccN = a == b, a < b
					case uCmpI:
						a := int32(rf[u.a])
						c.iccZ, c.iccN = a == u.imm, a < u.imm
					case uMovR:
						rf[u.d] = rf[u.a]
					case uMovI, uSet:
						rf[u.d] = uint32(u.imm)
					case uSetSym:
						rf[u.d] = uint32(pf.Code[i].Imm)
					case uNop:
					}
				}
			} else {
				// One µop: a hot-family arm calling exec's helper, or
				// exec itself. c.pc is not kept hot here: only exec and
				// the exit paths observe it, and each of those syncs it
				// from i first.
				u := &ro[i]
				ins++
				cyc++ // base issue, booked in bulk on return
				switch u.tag {
				case uMulR:
					v, n := c.mul(rf[u.a], rf[u.b])
					rf[u.d], cyc = v, cyc+n
					i++
				case uMulI:
					v, n := c.mul(rf[u.a], uint32(u.imm))
					rf[u.d], cyc = v, cyc+n
					i++

				case uLd:
					c.cycles = cyc
					v, ok := c.ld(mem.Addr(rf[u.a] + uint32(u.imm)))
					if !ok {
						return c.retrap(pf, i, ins)
					}
					rf[u.d], cyc = v, c.cycles
					i++
				case uLdub:
					c.cycles = cyc
					rf[u.d] = c.dread(mem.Addr(rf[u.a]+uint32(u.imm)), 1)
					cyc = c.cycles
					i++
				case uSt:
					c.cycles = cyc
					if !c.st(mem.Addr(rf[u.a]+uint32(u.imm)), rf[u.d]) {
						return c.retrap(pf, i, ins)
					}
					cyc = c.cycles
					i++
				case uStb:
					c.cycles = cyc
					c.dwrite(mem.Addr(rf[u.a]+uint32(u.imm)), 1, rf[u.d])
					cyc = c.cycles
					i++
				case uFLd:
					c.cycles = cyc
					v, ok := c.ld(mem.Addr(rf[u.a] + uint32(u.imm)))
					if !ok {
						return c.retrap(pf, i, ins)
					}
					c.fregs[u.d], cyc = math.Float32frombits(v), c.cycles
					i++
				case uFSt:
					c.cycles = cyc
					if !c.st(mem.Addr(rf[u.a]+uint32(u.imm)), math.Float32bits(c.fregs[u.b])) {
						return c.retrap(pf, i, ins)
					}
					cyc = c.cycles
					i++

				case uFadd:
					v, n := c.fadd(c.fregs[u.a], c.fregs[u.b])
					c.fregs[u.d], cyc = v, cyc+n
					i++
				case uFsub:
					v, n := c.fsub(c.fregs[u.a], c.fregs[u.b])
					c.fregs[u.d], cyc = v, cyc+n
					i++
				case uFmul:
					v, n := c.fmul(c.fregs[u.a], c.fregs[u.b])
					c.fregs[u.d], cyc = v, cyc+n
					i++

				case uBr:
					if c.branch(isa.Op(u.a)) {
						cyc += c.takeBranch()
						i += int(u.imm)
					} else {
						i++
					}

				default: // uExec
					c.pc = base + mem.Addr(i)*isa.InstrBytes
					c.cycles, c.ctr.Instrs = cyc, ins
					if err := c.exec(&pf.Code[i]); err != nil {
						return err
					}
					next := c.pc
					// Stay in this loop only while next is an instruction
					// of this decoded function and the window survived (a
					// call hook tears it down); otherwise the outer loop
					// fetches it — or returns, after a halt.
					if c.halted || c.fetchHi == 0 || next < base || next >= fnEnd || next&(isa.InstrBytes-1) != 0 {
						continue outer
					}
					ro = c.resolve(p) // save and restore rotate the window
					cyc = c.cycles
					i = int((next - base) >> 2)
				}
			}

			// Between-instruction gates and the fetch-window check for
			// the next instruction, in the interpreter's order: gates
			// first (they fire before any fetch side effects), then the
			// window.
			if cyc >= budget {
				c.pc = base + mem.Addr(i)*isa.InstrBytes
				c.cycles, c.ctr.Instrs = cyc, ins
				return nil
			}
			if ins >= maxI {
				c.pc = base + mem.Addr(i)*isa.InstrBytes
				c.cycles, c.ctr.Instrs = cyc, ins
				return ErrMaxInstrs
			}
			if i < wLo || i >= wHi {
				if uint(i) < uint(len(ro)) {
					// The next pc (sequential spill into the adjacent
					// IL1 line or an intra-function control transfer)
					// left the window but stays inside the decoded
					// function: re-arm inline with exactly the
					// interpreter's slow-fetch accesses and window
					// arithmetic — ITLB translation, IL1 line read,
					// window = line ∩ function (the line size divides
					// the page size, New, so an aligned line never
					// straddles a page). The IL1 read books by ifetch's front-booking
					// rule, on a branch of its own: run unconditionally,
					// it slowed the unobserved e9-grid benchmark by ~7%.
					pc := base + mem.Addr(i)*isa.InstrBytes
					cyc += itlb.Translate(pc)
					if att == nil {
						cyc += il1.ReadLine(pc)
					} else {
						start := att.Total()
						lat := il1.ReadLine(pc)
						att.Charge(telemetry.CompIL1, lat-(att.Total()-start))
						cyc += lat
					}
					lo := pc &^ (line - 1)
					hi := lo + line
					if lo < base {
						lo = base
					}
					if hi > fnEnd {
						hi = fnEnd
					}
					wLo = int((lo - base) >> 2)
					wHi = int((hi - base) >> 2)
					c.fetchLo, c.fetchHi = lo, hi
					continue
				}
				c.pc = base + mem.Addr(i)*isa.InstrBytes
				c.cycles, c.ctr.Instrs = cyc, ins
				continue outer
			}
		}
	}
}

// retrap runs instruction i of pf — a load or store whose helper
// refused a misaligned address, without side effects — through exec, so
// that trap, like every other, is exec's. The caller has synced the
// cycle counter.
func (c *CPU) retrap(pf *loader.PlacedFunc, i int, ins uint64) error {
	c.pc = pf.Base + mem.Addr(i)*isa.InstrBytes
	c.ctr.Instrs = ins
	return c.exec(&pf.Code[i])
}
