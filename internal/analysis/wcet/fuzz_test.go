package wcet

import (
	"testing"

	"dsr/internal/prog/progtest"
)

// FuzzWCETSound is the analyzer's standing soundness oracle: every fuzz
// input is decoded into a small structured program (counted loops up to
// two deep, integer arithmetic, loads/stores into a shared buffer,
// forward diamonds, FPU blocks, leaf calls), the static analyzer bounds
// it, the simulator runs it, and `simulated cycles ≤ static bound` must
// hold. A refusal (Bounded=false) is always acceptable — the invariant
// constrains only the bounds the analyzer is willing to claim.
func FuzzWCETSound(f *testing.F) {
	f.Add([]byte{})                                 // empty body
	f.Add([]byte{0, 1, 2, 3})                       // straight line
	f.Add([]byte{4, 10, 0, 7, 2, 9, 3, 5, 5})       // one loop with a store
	f.Add([]byte{4, 3, 4, 5, 2, 8, 5, 1, 6, 5})     // nested loops
	f.Add([]byte{6, 2, 0, 9, 6, 1, 7, 3})           // diamonds and a call
	f.Add([]byte{8, 0, 8, 5, 4, 6, 8, 2, 5, 7, 0})  // FPU inside a loop
	f.Add([]byte{4, 200, 3, 11, 4, 99, 2, 2, 5, 5}) // larger trip counts

	f.Fuzz(func(t *testing.T, data []byte) {
		p := progtest.GenProgram(data)
		if p == nil {
			return
		}
		r := Analyze(p, Config{})
		if !r.Bounded {
			// Refusing is sound; claiming is what we check.
			if !r.HasErrors() {
				t.Fatalf("not bounded but no Error diagnostic:\n%s", diagText(r))
			}
			return
		}
		sim := simulate(t, p)
		if r.BoundCycles < sim {
			t.Fatalf("UNSOUND: static bound %d < simulated %d cycles\nloops: %+v\ndiags:\n%s",
				r.BoundCycles, sim, r.Loops, diagText(r))
		}
	})
}
