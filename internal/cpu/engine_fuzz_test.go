package cpu

import (
	"fmt"
	"testing"

	"dsr/internal/mem"
	"dsr/internal/prog/progtest"
)

// FuzzEngineEquiv is the engine ≡ interpreter oracle on generated
// inputs: a progtest program (counted loops, integer and FPU blocks,
// loads and stores, diamonds, leaf calls) placed in one of the four
// layout classes, on a core with 2 to 8 register windows, run from a
// cold attributed hierarchy under a cycle budget and an instruction
// watchdog cut at arbitrary points of the interpreter's full run. At
// every cut the engine must match the interpreter's machine state,
// attribution buckets and error. A cut of 0 means none.
func FuzzEngineEquiv(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, uint8(0), uint16(0), uint16(0), uint8(6))
	f.Add([]byte{4, 10, 0, 7, 2, 9, 3, 5, 5}, uint8(1), uint16(30000), uint16(0), uint8(6))
	f.Add([]byte{4, 3, 4, 5, 2, 8, 5, 1, 6, 5}, uint8(2), uint16(0), uint16(40000), uint8(0))
	f.Add([]byte{6, 2, 0, 9, 6, 1, 7, 3}, uint8(3), uint16(1), uint16(1), uint8(1))
	f.Add([]byte{8, 0, 8, 5, 4, 6, 8, 2, 5, 7, 0}, uint8(2), uint16(65535), uint16(65535), uint8(3))
	f.Add([]byte{4, 200, 3, 11, 4, 99, 2, 2, 5, 5}, uint8(1), uint16(12345), uint16(54321), uint8(6))

	f.Fuzz(func(t *testing.T, data []byte, class uint8, budgetCut, watchdogCut uint16, windows uint8) {
		p := progtest.GenProgram(data)
		if p == nil {
			return
		}
		img, err := shiftedImage(p, layoutClasses[int(class)%len(layoutClasses)])
		if err != nil {
			t.Fatal(err)
		}
		cfg := NewDefaultConfig()
		cfg.NumWindows = 2 + int(windows)%7
		fast, flushFast := newAttributedCPU(cfg, img, false, true)
		slow, flushSlow := newAttributedCPU(cfg, img, true, true)
		if !fast.engineOK() {
			t.Fatal("engineOK() = false; the fuzzer would compare the interpreter with itself")
		}

		// The interpreter's full run scales the cuts: a cut c of 65536
		// steps lands at 1 + c·total/65536.
		_ = cutRun(slow, img, flushSlow, NoBudget, 0)
		cut := func(c uint16, total uint64) uint64 {
			if c == 0 {
				return 0
			}
			return 1 + uint64(c)*total>>16
		}
		budget := mem.Cycles(cut(budgetCut, uint64(slow.cycles)))
		if budget == 0 {
			budget = NoBudget
		}
		maxInstrs := cut(watchdogCut, slow.ctr.Instrs)

		fe := cutRun(fast, img, flushFast, budget, maxInstrs)
		se := cutRun(slow, img, flushSlow, budget, maxInstrs)
		d := attributedDiff(fast, slow)
		if errText(fe) != errText(se) {
			d += fmt.Sprintf("engine error %v, interpreter error %v\n", fe, se)
		}
		if d != "" {
			t.Fatalf("budget %d, watchdog %d, %d windows:\n%s", budget, maxInstrs, cfg.NumWindows, d)
		}
	})
}
