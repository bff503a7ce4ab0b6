// Spacestudy walks through the paper's full case study (§IV-VI): the
// mixed-criticality active-optics software hosted in two PikeOS-like
// partitions, the measurement protocol, and the timing analysis of the
// high-criticality control task.
package main

import (
	"fmt"
	"log"
	"math"

	"dsr/internal/analysis/schedfeas"
	"dsr/internal/experiments"
	"dsr/internal/spaceapp"
)

func main() {
	cfg := experiments.DefaultConfig()

	// --- Part 1: the hosted system under the partition executive -----
	fmt.Println("== Part 1: two partitions under the cyclic executive ==")
	// The control partition runs under DSR (a fresh layout per
	// activation) and the processing partition from a fixed image; the
	// deterministic policy replays the case study's nominal frame.
	cell := experiments.E9Cell{LayoutRand: true}
	static := schedfeas.Analyze(experiments.CaseStudySchedSpec(),
		experiments.CaseStudySchedPolicy(cell.SchedRand), schedfeas.Config{})
	if static.Cert == nil {
		log.Fatalf("case-study frame not certifiable: %v", static.Violations)
	}
	executive, err := experiments.NewE9Executive(cfg, cell, static.Cert)
	check(err)
	acts, err := executive.RunMajorFrames(3)
	check(err)
	var procMOET float64
	for _, a := range acts {
		// Every completed activation ran its own input and matched the
		// golden model; an overrun is cut before it can be checked.
		if a.Overrun() {
			log.Fatalf("frame %d: %s activation %d overran its window (cut by temporal isolation)",
				a.MajorFrame, a.Partition, a.Activation)
		}
		fmt.Printf("  frame %d  @%4dms  %-11s (%s crit)  %8d cycles / budget %8d  verified\n",
			a.MajorFrame, a.OffsetMillis, a.Partition, a.Criticality, a.Cycles, a.Budget)
		if a.Partition == "processing" {
			procMOET = math.Max(procMOET, float64(a.Cycles))
		}
	}
	ref := spaceapp.ProcessingReference(spaceapp.GenScene(cfg.InputSeedBase, spaceapp.LitFraction))
	fmt.Printf("  processing activation 0: %d/%d lenses lit, RMS wavefront error %.4f px\n\n",
		ref.Lit, spaceapp.NumLenses, math.Float32frombits(ref.RMSBits))

	// --- Part 2: the control task's timing analysis ------------------
	fmt.Println("== Part 2: MBPTA of the control task (the unit of analysis) ==")
	fmt.Printf("  collecting %d DSR measurement runs (reboot + fresh input each)...\n", cfg.Runs)
	series, err := experiments.RunDSR(cfg)
	check(err)
	rep, err := experiments.Figure3(series, cfg.MBPTA)
	check(err)
	fmt.Printf("  i.i.d.: Ljung-Box p=%.3f, KS p=%.3f → %v\n",
		rep.IID.LjungBox.PValue, rep.IID.KS.PValue, rep.IID.Pass())
	fmt.Printf("  MOET=%.0f  pWCET@1e-15=%.0f (+%.2f%%)\n\n",
		rep.MOET, rep.PWCET, (rep.PWCET/rep.MOET-1)*100)
	fmt.Print(experiments.RenderFigure3(series, rep))

	// --- Part 3: the other half of timing V&V — scheduling analysis ---
	fmt.Println("\n== Part 3: scheduling analysis with the derived bounds ==")
	spec := experiments.CaseStudySchedSpec()
	for i := range spec.Tasks {
		t := &spec.Tasks[i]
		bound := "pWCET"
		t.WCETCycles = rep.PWCET
		if t.Name == "processing" { // low criticality: MOET + 20%
			bound, t.WCETCycles = "MOET+20%", procMOET*1.2
		}
		window := float64(t.BudgetMillis) * float64(spec.CyclesPerMilli)
		fmt.Printf("  %-11s %-10s bound=%-9.0f window=%-9.0f slack=%-9.0f min window=%dms\n",
			t.Name, "("+bound+")", t.WCETCycles, window, window-t.WCETCycles,
			int(math.Ceil(t.WCETCycles/float64(spec.CyclesPerMilli))))
	}
	srep := schedfeas.Analyze(spec, schedfeas.Policy{}, schedfeas.Config{})
	fmt.Printf("  %dms frame, nominal schedule feasible=%v\n", spec.FrameMillis, srep.Feasible)
	for _, v := range srep.Violations {
		fmt.Printf("  violation: %s\n", v)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
