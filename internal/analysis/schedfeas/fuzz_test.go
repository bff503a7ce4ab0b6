package schedfeas

import (
	"testing"

	"dsr/internal/prng"
)

// FuzzSchedFeas is the analyzer's standing soundness oracle: every fuzz
// input decodes into a small task set and randomizer policy, and the
// two halves of the package are played against each other.
//
//   - When Analyze certifies the policy, every actual Draw must
//     succeed, satisfy the spec's own checker, and be a member of the
//     certified support — a drawable schedule outside the certificate
//     is exactly the unsoundness the analyzer exists to rule out.
//   - When Analyze pinpoints a violating draw, the pinpointed schedule
//     must really violate the spec — the analyzer must not reject
//     feasible randomizers with fabricated counterexamples.
//   - A refusal (caps exceeded) is always acceptable; the invariant
//     constrains only the claims the analyzer is willing to make.
func FuzzSchedFeas(f *testing.F) {
	f.Add([]byte{})                                   // degenerate → invalid spec
	f.Add([]byte{0, 1, 0, 1, 1, 0, 0, 0})             // one task, det policy
	f.Add([]byte{1, 3, 1, 0, 2, 1, 1, 2, 7})          // harmonic pair, full policy
	f.Add([]byte{2, 2, 2, 1, 1, 3, 0, 2, 2, 1, 5})    // jitter-bounded tasks
	f.Add([]byte{0, 3, 2, 3, 0, 0, 1, 1, 2, 3, 0, 1}) // crit-ordered permutation
	f.Add([]byte{3, 1, 1, 2, 3, 0, 2, 0})             // single-segment frame

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, policy := genSpec(data)
		if spec == nil || len(spec.Validate()) > 0 {
			return
		}
		rep := Analyze(spec, policy, Config{})
		if rep.Refused {
			return
		}
		if rep.Feasible {
			if rep.Cert == nil {
				t.Fatal("feasible report without a certificate")
			}
			for seed := uint64(0); seed < 24; seed++ {
				fs, err := Draw(spec, policy, prng.NewMWC(seed))
				if err != nil {
					t.Fatalf("UNSOUND: certified feasible but draw(seed=%d) failed: %v", seed, err)
				}
				if vs := spec.Check(fs); len(vs) > 0 {
					t.Fatalf("UNSOUND: certified feasible but draw(seed=%d) violates the spec: %v\n%+v",
						seed, vs, fs)
				}
				if err := rep.Cert.Contains(fs); err != nil {
					t.Fatalf("UNSOUND: draw(seed=%d) outside the certified support: %v\n%+v",
						seed, err, fs)
				}
			}
			return
		}
		if len(rep.Violations) == 0 {
			t.Fatal("infeasible report without a violation")
		}
		for _, v := range rep.Violations {
			if v.Schedule == nil {
				continue // dead-end violations carry no complete schedule
			}
			if vs := spec.Check(v.Schedule); len(vs) == 0 {
				t.Fatalf("pinpointed draw passes the spec checker: %+v", v)
			}
		}
	})
}

// genSpec deterministically decodes fuzz bytes into a candidate task
// set and policy. The grammar keeps most decoded specs valid (harmonic
// periods on a shared base segment, budgets within the segment) so the
// corpus exercises the enumeration and certification paths rather than
// Validate's rejections.
func genSpec(data []byte) (*Spec, Policy) {
	if len(data) < 4 {
		return nil, Policy{}
	}
	i := 0
	next := func() int {
		if i >= len(data) {
			return 0
		}
		v := int(data[i])
		i++
		return v
	}

	segLen := 1 + next()%4 // base segment (shortest period), ms
	mult := 1 + next()%4   // segments per frame
	frame := segLen * mult
	pol := next()
	policy := Policy{
		SegmentChoice:    pol&1 != 0,
		PermuteOrder:     pol&2 != 0,
		SlotJitterMillis: (pol >> 2) % 4,
	}
	spec := &Spec{
		FrameMillis:    frame,
		CyclesPerMilli: 1000,
		CritOrdered:    pol&16 != 0,
	}

	n := 1 + next()%3
	names := []string{"a", "b", "c"}
	for k := 0; k < n; k++ {
		// Period: the base segment or a harmonic multiple dividing the
		// frame (any divisor d of mult gives period segLen*d).
		d := 1 + next()%mult
		for frame%(segLen*d) != 0 {
			d--
		}
		period := segLen * d
		budget := 1 + next()%segLen
		phase := next() % (period - budget + 1)
		jitter := next()%5 - 1 // -1 (unconstrained) .. 3
		spec.Tasks = append(spec.Tasks, Task{
			Name:         names[k],
			PeriodMillis: period,
			BudgetMillis: budget,
			PhaseMillis:  phase,
			Criticality:  next() % 3,
			JitterMillis: jitter,
			WCETCycles:   float64(next() % (budget * 1000)),
		})
	}
	return spec, policy
}
