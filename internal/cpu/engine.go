package cpu

import (
	"fmt"
	"math"

	"dsr/internal/isa"
	"dsr/internal/mem"
	"dsr/internal/telemetry"
)

// This file is the dispatch half of the threaded-code engine: Run and
// RunBudget hand the whole execution to runFast when the configuration
// provably allows it, and runFast executes predecoded µops (decode.go)
// with the giant-switch interpreter (Step) kept as the authoritative
// slow path — every observable of a run (cycle counter, PMCs, registers,
// memory, cache/TLB state, trace points, error values and the PC at
// every stop) is byte-identical between the two, which the equivalence
// suite in engine_test.go pins.
//
// Where the speed comes from: within one fetch-window chunk (IL1 line ∩
// function), straight-line runs of single-cycle ALU µops execute
// back-to-back with one batched cycle/instruction-counter charge and no
// per-instruction fetch, window, budget or watchdog checks — the
// decode-time run[] lengths plus a headroom clamp make that exact rather
// than approximate. Operands are pre-resolved to absolute register-file
// indices per window pointer (decode.go: resolve), so the hot dispatch
// does no bank arithmetic. Window re-arms for sequential line crossings
// and intra-function branches pay exactly the interpreter's slow-fetch
// accesses (ITLB translate + IL1 line read) without leaving the
// dispatch loop. The cycle and retired-instruction counters are carried
// in locals (cyc, ins) and written back to the CPU only around calls
// into helpers that read or charge them, and at every exit. Everything
// with side effects beyond the register file (memory traffic, FPU
// latency charges, cross-function control, window rotations, traps)
// takes the general single-µop path, which mirrors Step case by case.
//
// Attribution does not change the dispatch: every charge point books
// the same component as the matching Step charge (book is a nil check
// when attribution is off) except base issue, booked in bulk; memory
// traffic goes through the same helpers (dread, dwrite), and the inline
// re-arm books through ifetch.

// noBudget makes RunBudget's cycle gate unreachable for plain Run.
const noBudget = ^mem.Cycles(0)

// rfileSlots is the padded register-file size the engine addresses: one
// more than the largest index a resolved uint8 operand can carry, so
// rf[u.d] needs no bounds check against a *[rfileSlots]uint32.
const rfileSlots = 256

// engineOK reports whether the threaded-code engine may execute: the
// zero-cost fetch window must be armable (fetchZero — IL1 and ITLB hits
// cost zero), the IL1 line size must divide the page size (so
// fetch-window boundaries depend only on the placement's line offset —
// the layout class), and every register-file index including the %g0
// scratch slot must fit the µop encoding. Anything unprovable falls
// back to the interpreter. Attribution is not a condition: the engine
// books the same components as the interpreter.
func (c *CPU) engineOK() bool {
	return c.fetchZero && !c.forceInterp &&
		c.fetchLine > 0 && mem.PageSize%c.fetchLine == 0 &&
		c.scratchIdx() < rfileSlots && len(c.rfile) >= rfileSlots
}

// SetForceInterpreter pins execution to the giant-switch interpreter
// even where the engine could run — the forced-slow half of the
// equivalence suites and the escape hatch for debugging.
func (c *CPU) SetForceInterpreter(v bool) { c.forceInterp = v }

// runFast executes until Halt, an error, the instruction watchdog or
// the cycle budget, byte-identical to the Step loop. The outer loop
// performs the per-instruction gates and the exact fetch (fast window
// hit or fetchSlow with its cache/TLB side effects); the inner loop
// stays within one decoded function and re-enters the outer loop only
// when control leaves the function or the window cannot be re-armed
// inline.
func (c *CPU) runFast(budget mem.Cycles) error {
	rf := (*[rfileSlots]uint32)(c.rfile[:rfileSlots])
	rb := &c.rbase
	line := c.fetchLine
	itlb, icC := c.itlb, c.icacheC
	att := c.att
	// Base issue is one cycle per retired instruction, so under
	// attribution the engine books it in bulk when it returns rather
	// than at every instruction, which keeps the fused runs free of
	// booking. Instructions the interpreter fallback retires (stepped)
	// book their own.
	var stepped uint64
	if att != nil {
		ins0 := c.ctr.Instrs
		defer func() {
			att.Charge(telemetry.CompBaseIssue, mem.Cycles(c.ctr.Instrs-ins0-stepped))
		}()
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
		// (plain Run passes noBudget, so the budget gate is inert there).
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
		if p == nil {
			// Undecodable function: one authoritative interpreter step.
			// Its fetch resolves through the window just armed, so no
			// hierarchy access happens twice.
			n := c.ctr.Instrs
			err := c.Step()
			stepped += c.ctr.Instrs - n
			if err != nil {
				return err
			}
			continue
		}
		ro := c.resolve(p)
		base := pf.Base
		fnEnd := base + mem.Addr(len(p.ops))*isa.InstrBytes
		i := int((c.pc - base) >> 2)
		wLo := int((c.fetchLo - base) >> 2)
		wHi := int((c.fetchHi - base) >> 2)
		// Counter locals: written back to the CPU around every helper
		// call that can read or charge them (memory traffic, traps,
		// call hooks), and at every exit from the loop.
		cyc := c.cycles
		ins := c.ctr.Instrs

		for {
			if k := int(ro[i].run); k > 0 {
				// Fused straight-line run: k single-cycle ALU µops, all
				// inside the armed window. Clamp to the watchdog and
				// budget headroom (both ≥ 1: the gates just passed), so
				// the batched charge stops exactly where the
				// interpreter's per-instruction checks would.
				if h := maxI - ins; uint64(k) > h {
					k = int(h)
				}
				if h := budget - cyc; uint64(k) > uint64(h) {
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
				// General single µop, mirroring the matching Step case.
				// c.pc is not kept hot here: only halt, faults, calls and
				// the exit paths observe it, and each of those syncs it
				// from i before any observable use.
				u := &ro[i]
				ins++
				cyc++ // base issue, booked in bulk on return
				switch u.tag {
				case uHalt:
					c.halted = true
					c.pc = base + mem.Addr(i)*isa.InstrBytes + isa.InstrBytes
					c.cycles, c.ctr.Instrs = cyc, ins
					return nil

				case uMulR:
					cyc += book(att, telemetry.CompIntOp, c.cfg.MulLatency)
					rf[u.d] = uint32(int32(rf[u.a]) * int32(rf[u.b]))
					i++
				case uMulI:
					cyc += book(att, telemetry.CompIntOp, c.cfg.MulLatency)
					rf[u.d] = uint32(int32(rf[u.a]) * u.imm)
					i++
				case uDivR, uDivI:
					d := u.imm
					if u.tag == uDivR {
						d = int32(rf[u.b])
					}
					if d == 0 {
						c.pc = base + mem.Addr(i)*isa.InstrBytes
						c.cycles, c.ctr.Instrs = cyc, ins
						return fmt.Errorf("cpu: division by zero at pc %#x", c.pc)
					}
					cyc += book(att, telemetry.CompIntOp, c.cfg.DivLatency)
					rf[u.d] = uint32(int32(rf[u.a]) / d)
					i++

				case uLd:
					ea := mem.Addr(rf[u.a] + uint32(u.imm))
					if ea&(mem.WordSize-1) != 0 {
						c.pc = base + mem.Addr(i)*isa.InstrBytes
						c.cycles, c.ctr.Instrs = cyc, ins
						return c.misalignedData(&pf.Code[i], ea)
					}
					c.cycles, c.ctr.Instrs = cyc, ins
					c.dread(ea, mem.WordSize)
					rf[u.d] = c.data.LoadWord(ea)
					cyc = c.cycles
					i++
				case uLdub:
					ea := mem.Addr(rf[u.a] + uint32(u.imm))
					c.cycles, c.ctr.Instrs = cyc, ins
					c.dread(ea, 1)
					rf[u.d] = c.data.LoadByte(ea)
					cyc = c.cycles
					i++
				case uSt:
					ea := mem.Addr(rf[u.a] + uint32(u.imm))
					if ea&(mem.WordSize-1) != 0 {
						c.pc = base + mem.Addr(i)*isa.InstrBytes
						c.cycles, c.ctr.Instrs = cyc, ins
						return c.misalignedData(&pf.Code[i], ea)
					}
					c.cycles, c.ctr.Instrs = cyc, ins
					c.dwrite(ea, mem.WordSize)
					c.data.StoreWord(ea, rf[u.d])
					cyc = c.cycles
					i++
				case uStb:
					ea := mem.Addr(rf[u.a] + uint32(u.imm))
					c.cycles, c.ctr.Instrs = cyc, ins
					c.dwrite(ea, 1)
					c.data.StoreByte(ea, rf[u.d])
					cyc = c.cycles
					i++
				case uFLd:
					ea := mem.Addr(rf[u.a] + uint32(u.imm))
					if ea&(mem.WordSize-1) != 0 {
						c.pc = base + mem.Addr(i)*isa.InstrBytes
						c.cycles, c.ctr.Instrs = cyc, ins
						return c.misalignedData(&pf.Code[i], ea)
					}
					c.cycles, c.ctr.Instrs = cyc, ins
					c.dread(ea, mem.WordSize)
					c.fregs[u.d] = math.Float32frombits(c.data.LoadWord(ea))
					cyc = c.cycles
					i++
				case uFSt:
					ea := mem.Addr(rf[u.a] + uint32(u.imm))
					if ea&(mem.WordSize-1) != 0 {
						c.pc = base + mem.Addr(i)*isa.InstrBytes
						c.cycles, c.ctr.Instrs = cyc, ins
						return c.misalignedData(&pf.Code[i], ea)
					}
					c.cycles, c.ctr.Instrs = cyc, ins
					c.dwrite(ea, mem.WordSize)
					c.data.StoreWord(ea, math.Float32bits(c.fregs[u.b]))
					cyc = c.cycles
					i++

				case uFadd:
					c.ctr.FPUOps++
					cyc += book(att, telemetry.CompFPUBase, c.cfg.FAddLatency)
					c.fregs[u.d] = c.fregs[u.a] + c.fregs[u.b]
					i++
				case uFsub:
					c.ctr.FPUOps++
					cyc += book(att, telemetry.CompFPUBase, c.cfg.FAddLatency)
					c.fregs[u.d] = c.fregs[u.a] - c.fregs[u.b]
					i++
				case uFmul:
					c.ctr.FPUOps++
					cyc += book(att, telemetry.CompFPUBase, c.cfg.FMulLatency)
					c.fregs[u.d] = c.fregs[u.a] * c.fregs[u.b]
					i++
				case uFdiv:
					c.ctr.FPUOps++
					cyc += book(att, telemetry.CompFPUBase, c.cfg.FDivLatency)
					cyc += book(att, telemetry.CompFPUJitter, c.cfg.Jitter(c.fregs[u.b]))
					c.fregs[u.d] = c.fregs[u.a] / c.fregs[u.b]
					i++
				case uFsqrt:
					c.ctr.FPUOps++
					cyc += book(att, telemetry.CompFPUBase, c.cfg.FSqrtLatency)
					cyc += book(att, telemetry.CompFPUJitter, c.cfg.Jitter(c.fregs[u.b]))
					c.fregs[u.d] = float32(math.Sqrt(float64(c.fregs[u.b])))
					i++
				case uFcmp:
					c.ctr.FPUOps++
					cyc += book(att, telemetry.CompFPUBase, c.cfg.FAddLatency)
					a, b := c.fregs[u.a], c.fregs[u.b]
					switch {
					case a != a || b != b:
						c.fcc = 2
					case a == b:
						c.fcc = 0
					case a < b:
						c.fcc = -1
					default:
						c.fcc = 1
					}
					i++
				case uFitos:
					c.ctr.FPUOps++
					cyc += book(att, telemetry.CompFPUBase, c.cfg.FAddLatency)
					c.fregs[u.d] = float32(int32(math.Float32bits(c.fregs[u.b])))
					i++
				case uFstoi:
					c.ctr.FPUOps++
					cyc += book(att, telemetry.CompFPUBase, c.cfg.FAddLatency)
					c.fregs[u.d] = math.Float32frombits(uint32(int32(c.fregs[u.b])))
					i++

				case uBa:
					c.ctr.Branches++
					c.ctr.TakenBranches++
					cyc += book(att, telemetry.CompBranch, c.cfg.BranchTaken)
					i += int(u.imm)
				case uBe:
					c.ctr.Branches++
					if c.iccZ {
						c.ctr.TakenBranches++
						cyc += book(att, telemetry.CompBranch, c.cfg.BranchTaken)
						i += int(u.imm)
					} else {
						i++
					}
				case uBne:
					c.ctr.Branches++
					if !c.iccZ {
						c.ctr.TakenBranches++
						cyc += book(att, telemetry.CompBranch, c.cfg.BranchTaken)
						i += int(u.imm)
					} else {
						i++
					}
				case uBl:
					c.ctr.Branches++
					if c.iccN {
						c.ctr.TakenBranches++
						cyc += book(att, telemetry.CompBranch, c.cfg.BranchTaken)
						i += int(u.imm)
					} else {
						i++
					}
				case uBle:
					c.ctr.Branches++
					if c.iccN || c.iccZ {
						c.ctr.TakenBranches++
						cyc += book(att, telemetry.CompBranch, c.cfg.BranchTaken)
						i += int(u.imm)
					} else {
						i++
					}
				case uBg:
					c.ctr.Branches++
					if !c.iccN && !c.iccZ {
						c.ctr.TakenBranches++
						cyc += book(att, telemetry.CompBranch, c.cfg.BranchTaken)
						i += int(u.imm)
					} else {
						i++
					}
				case uBge:
					c.ctr.Branches++
					if !c.iccN {
						c.ctr.TakenBranches++
						cyc += book(att, telemetry.CompBranch, c.cfg.BranchTaken)
						i += int(u.imm)
					} else {
						i++
					}
				case uFbe:
					c.ctr.Branches++
					if c.fcc == 0 {
						c.ctr.TakenBranches++
						cyc += book(att, telemetry.CompBranch, c.cfg.BranchTaken)
						i += int(u.imm)
					} else {
						i++
					}
				case uFbne:
					c.ctr.Branches++
					if c.fcc != 0 {
						c.ctr.TakenBranches++
						cyc += book(att, telemetry.CompBranch, c.cfg.BranchTaken)
						i += int(u.imm)
					} else {
						i++
					}
				case uFbl:
					c.ctr.Branches++
					if c.fcc == -1 {
						c.ctr.TakenBranches++
						cyc += book(att, telemetry.CompBranch, c.cfg.BranchTaken)
						i += int(u.imm)
					} else {
						i++
					}
				case uFbg:
					c.ctr.Branches++
					if c.fcc == 1 {
						c.ctr.TakenBranches++
						cyc += book(att, telemetry.CompBranch, c.cfg.BranchTaken)
						i += int(u.imm)
					} else {
						i++
					}

				case uCall:
					c.ctr.Calls++
					rf[uint8(rb[1]+7)] = uint32(base + mem.Addr(i)*isa.InstrBytes) // %o7 = call site
					tgt := mem.Addr(uint32(pf.Code[i].Imm))
					c.cycles, c.ctr.Instrs = cyc, ins
					c.runCallHook(tgt)
					c.pc = tgt
					continue outer
				case uCallR:
					c.ctr.Calls++
					tgt := mem.Addr(rf[u.a]) // target read before the %o7 write
					rf[uint8(rb[1]+7)] = uint32(base + mem.Addr(i)*isa.InstrBytes)
					c.cycles, c.ctr.Instrs = cyc, ins
					c.runCallHook(tgt)
					c.pc = tgt
					continue outer
				case uRet:
					ret := rf[uint8(rb[3]+7)] // %i7
					c.cycles, c.ctr.Instrs = cyc, ins
					c.restore()
					c.pc = mem.Addr(ret) + isa.InstrBytes
					continue outer
				case uRetL:
					c.pc = mem.Addr(rf[uint8(rb[1]+7)]) + isa.InstrBytes // %o7
					c.cycles, c.ctr.Instrs = cyc, ins
					continue outer

				case uSave:
					c.cycles, c.ctr.Instrs = cyc, ins
					if err := c.save(uint32(u.imm), 0); err != nil {
						c.pc = base + mem.Addr(i)*isa.InstrBytes
						return err
					}
					ro = c.resolve(p)
					cyc = c.cycles
					i++
				case uSaveX:
					c.cycles, c.ctr.Instrs = cyc, ins
					if err := c.save(uint32(u.imm), rf[u.b]); err != nil {
						c.pc = base + mem.Addr(i)*isa.InstrBytes
						return err
					}
					ro = c.resolve(p)
					cyc = c.cycles
					i++
				case uRestore:
					c.cycles, c.ctr.Instrs = cyc, ins
					c.restore()
					ro = c.resolve(p)
					cyc = c.cycles
					i++

				case uIPoint:
					cyc += book(att, telemetry.CompIPoint, c.cfg.IPointCost)
					c.trace = append(c.trace, TracePoint{ID: u.imm, Cycles: cyc})
					i++

				default:
					// Unreachable: decodeFunc rejects unknown ops.
					c.pc = base + mem.Addr(i)*isa.InstrBytes
					c.cycles, c.ctr.Instrs = cyc, ins
					return fmt.Errorf("cpu: engine: unknown µop %d at pc %#x", u.tag, c.pc)
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
				if uint(i) < uint(len(ro)) && icC != nil {
					// The next pc (sequential spill into the adjacent
					// IL1 line or an intra-function branch target) left
					// the window but stays inside the decoded function:
					// re-arm inline with exactly the interpreter's
					// slow-fetch accesses and window arithmetic — ITLB
					// translation, IL1 line read, window = line ∩ page
					// ∩ function. The page clamp is vacuous here: the
					// line size divides the page size (engineOK), so an
					// aligned line never straddles a page. Under
					// attribution the accesses book through ifetch,
					// exactly as fetchSlow's do.
					pc := base + mem.Addr(i)*isa.InstrBytes
					if att == nil {
						if itlb != nil {
							cyc += itlb.Translate(pc)
						}
						cyc += icC.ReadLine(pc)
					} else {
						c.cycles = cyc
						c.ifetch(pc)
						cyc = c.cycles
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
