// Command dsrsched runs the static schedule-feasibility analyzer
// (internal/analysis/schedfeas) over a randomized cyclic-executive
// task set and prints the verdict: whether *every* schedule the
// randomizer policy can draw is feasible, how much schedule entropy
// the policy yields, and how resistant the arrival sequence is to
// inter-arrival inference (guessing entropy per task).
//
//	dsrsched -builtin casestudy                 analyse the paper's frame
//	dsrsched -builtin casestudy -rand           ... under the full randomizer
//	dsrsched -slots -permute -jitter 40 spec.json
//	                                            analyse a task set from JSON
//	dsrsched -json -builtin casestudy -rand     emit the report as JSON
//	dsrsched -sample 500 -builtin casestudy -rand
//	                                            draw 500 schedules and check
//	                                            each against the certificate
//
// The verdict is sound: a certificate is issued only when the analyzer
// has covered the randomizer's entire support, and the randomized
// executive (internal/rtos) refuses to run without one. When the draw
// space exceeds the enumeration caps the analyzer refuses instead of
// sampling (exit 1, "refused"). The repo's CI cross-checks membership
// and overrun-freedom over randomised campaigns (make sched-check).
//
// Exit status: 0 when the policy was certified feasible, 1 when the
// analysis found a violating draw or refused, 2 on usage or input
// errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"dsr/internal/analysis/schedfeas"
	"dsr/internal/experiments"
	"dsr/internal/prng"
)

func main() {
	var (
		builtin = flag.String("builtin", "", "analyse a built-in task set: casestudy")
		rand    = flag.Bool("rand", false, "shorthand for the full case-study randomizer (-slots -permute -jitter 40)")
		slots   = flag.Bool("slots", false, "policy: draw each activation's segment (slot) within its period")
		permute = flag.Bool("permute", false, "policy: permute same-criticality window order within a segment")
		jitter  = flag.Int("jitter", 0, "policy: uniform release jitter bound in ms (0 = none)")
		critOrd = flag.Bool("crit-order", false, "require non-increasing criticality within each segment")
		maxAsgn = flag.Int("max-assignments", 0, "cap on enumerated segment assignments (0 = default 4096)")
		maxOrds = flag.Int("max-orders", 0, "cap on enumerated window orders per segment (0 = default 120)")
		sample  = flag.Int("sample", 0, "draw N schedules and verify each against the certificate (self-check)")
		seed    = flag.Uint64("seed", 1, "base seed for -sample draws")
		jsonOut = flag.Bool("json", false, "emit the report as JSON")
		quiet   = flag.Bool("q", false, "suppress the per-task and support tables")
	)
	flag.Parse()

	spec, err := loadSpec(*builtin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsrsched:", err)
		os.Exit(2)
	}
	if *critOrd {
		spec.CritOrdered = true
	}

	policy := schedfeas.Policy{
		SegmentChoice:    *slots,
		PermuteOrder:     *permute,
		SlotJitterMillis: *jitter,
	}
	if *rand {
		policy = experiments.CaseStudySchedPolicy(true)
	}

	rep := schedfeas.Analyze(spec, policy, schedfeas.Config{
		MaxAssignments: *maxAsgn,
		MaxOrders:      *maxOrds,
	})

	if *jsonOut {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsrsched:", err)
			os.Exit(2)
		}
		os.Stdout.Write(out)
		fmt.Println()
	} else {
		printText(rep, *quiet)
	}

	if *sample > 0 {
		if err := sampleDraws(rep, *sample, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "dsrsched:", err)
			os.Exit(1)
		}
		if !*jsonOut {
			fmt.Printf("sample: %d drawn schedules, all inside the certified support\n", *sample)
		}
	}
	if !rep.Feasible {
		os.Exit(1)
	}
}

// sampleDraws is the belt-and-braces self-check: the analyzer claims to
// cover the randomizer's support, so every actual draw must be a member.
func sampleDraws(rep *schedfeas.Report, n int, seed uint64) error {
	if rep.Cert == nil {
		return fmt.Errorf("no certificate to sample against (infeasible or refused)")
	}
	for i := 0; i < n; i++ {
		fs, err := schedfeas.Draw(&rep.Spec, rep.Policy, prng.NewMWC(seed+uint64(i)))
		if err != nil {
			return fmt.Errorf("draw %d failed: %w", i, err)
		}
		if err := rep.Cert.Contains(fs); err != nil {
			return fmt.Errorf("draw %d outside certified support: %w", i, err)
		}
	}
	return nil
}

func printText(r *schedfeas.Report, quiet bool) {
	fmt.Printf("%d-task set, %d ms frame, policy %s\n",
		len(r.Spec.Tasks), r.Spec.FrameMillis, r.Policy)
	for _, d := range r.Diags {
		fmt.Println(" ", d)
	}
	for _, v := range r.Violations {
		fmt.Printf("  violating draw: task %s activation %d: %s\n", v.Task, v.Activation, v.Reason)
		if v.Schedule != nil {
			for _, w := range v.Schedule.Windows {
				fmt.Printf("    %4d ms  %-12s act %d  (%d ms window)\n",
					w.StartMillis, w.Task, w.Activation, w.BudgetMillis)
			}
		}
	}
	switch {
	case r.Refused:
		fmt.Println("REFUSED: the draw space exceeds the enumeration caps (raise -max-assignments / -max-orders)")
		return
	case !r.Feasible:
		fmt.Println("INFEASIBLE: the randomizer can draw a schedule that violates the task set")
		return
	}
	fmt.Printf("FEASIBLE: all %.0f reachable schedules satisfy the task set (%d segment assignments)\n",
		r.Schedules, r.Assignments)
	fmt.Printf("  schedule entropy: %.2f bits/frame\n", r.EntropyBits)
	if quiet {
		return
	}
	fmt.Println("  inter-arrival inference resistance:")
	for _, t := range r.Tasks {
		fmt.Printf("    %-12s %3d reachable offsets, %6.2f offset bits, guessing entropy %.1f\n",
			t.Task, t.DistinctOffsets, t.OffsetBits, t.GuessingEntropy)
	}
	if r.Cert != nil {
		fmt.Println("  certified start-time support (ms, inclusive):")
		for _, s := range r.Cert.Support {
			fmt.Printf("    %-12s act %-3d [%d, %d]\n", s.Task, s.Activation, s.LoMillis, s.HiMillis)
		}
	}
}

func loadSpec(builtin string) (*schedfeas.Spec, error) {
	switch builtin {
	case "casestudy":
		return experiments.CaseStudySchedSpec(), nil
	case "":
		if flag.NArg() != 1 {
			return nil, fmt.Errorf("usage: dsrsched [flags] spec.json | dsrsched -builtin casestudy")
		}
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			return nil, err
		}
		spec := &schedfeas.Spec{}
		if err := json.Unmarshal(src, spec); err != nil {
			return nil, fmt.Errorf("%s: %w", flag.Arg(0), err)
		}
		if spec.FrameMillis == 0 {
			// Not a bare task set — accept a previously emitted -json
			// report too, so analyses can be re-run from saved output.
			var rep struct {
				Spec *schedfeas.Spec `json:"spec"`
			}
			if err := json.Unmarshal(src, &rep); err == nil && rep.Spec != nil && rep.Spec.FrameMillis != 0 {
				return rep.Spec, nil
			}
		}
		return spec, nil
	default:
		return nil, fmt.Errorf("unknown builtin %q (want casestudy)", builtin)
	}
}
