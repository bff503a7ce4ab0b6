// Command dsrlint runs the static-analysis and lint framework
// (internal/analysis) over a program: the standard lint passes
// (reserved registers, return shapes, alignment, frame conventions,
// unreachable code, dead stores), the static stack/window bound, the
// L2 layout conflict lint, the differential DSR transform verifier
// over the core.Transform output, and — on request — the static WCET
// and side-channel leakage analyzers.
//
//	dsrlint prog.s                 lint an assembly source
//	dsrlint -builtin control       lint a built-in program (control,
//	                               processing)
//	dsrlint -dsr prog.s            also verify the DSR transformation
//	dsrlint -stack prog.s          print the static stack bounds
//	dsrlint -wcet prog.s           also bound the WCET
//	dsrlint -leak prog.s           also bound the cache side-channel
//	                               leakage
//	dsrlint -wcet -mode dsr-eager prog.s
//	                               bound the DSR-transformed program
//	                               over all feasible placements (det,
//	                               dsr-eager, dsr-lazy)
//	dsrlint -json prog.s           emit diagnostics as a stable JSON
//	                               document (schema: analysis.ReportJSON)
//	dsrlint -Werror prog.s         treat warnings as errors for the exit
//	                               status
//
// Text output lists the diagnostics, then (unless -q) the L2 conflict
// tables of three placements — the sequential link map, the cache-aware
// positioned map (Mezzetti & Vardanega, the paper's reference [12]) and
// one sample DSR layout — and the WCET and leakage reports, then the
// bound lines. The WCET bound is sound: observed cycles never exceed
// it on the simulated platform (make wcet-check); the leakage bounds
// cap the distinct observations of the simulated attackers (make
// leak-check).
//
// Exit status: 0 when no Error-level diagnostic was produced (under
// -Werror: no Warning either), 1 otherwise — including a -wcet or -leak
// analysis that found no finite bound — and 2 on usage or input errors,
// so it can gate a build.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dsr/internal/analysis"
	"dsr/internal/analysis/leak"
	"dsr/internal/analysis/wcet"
	"dsr/internal/asm"
	"dsr/internal/core"
	"dsr/internal/experiments"
	"dsr/internal/layout"
	"dsr/internal/loader"
	"dsr/internal/platform"
	"dsr/internal/prog"
	"dsr/internal/spaceapp"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole tool behind a testable seam: flags and positional
// arguments in, diagnostics out on the writers, and the process exit
// status as the return value (0 clean, 1 findings, 2 usage/input).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsrlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		builtin     = fs.String("builtin", "", "lint a built-in program instead of a source file: control | processing")
		dsr         = fs.Bool("dsr", true, "run the DSR transform verifier over the core.Transform output")
		maxOverhead = fs.Float64("max-overhead", 0, "reject DSR static instruction overhead above this fraction (0 disables; the paper's budget is 0.02)")
		l2          = fs.Bool("l2", true, "run the static L2 layout conflict lint on the sequential placement; text mode also prints the conflict tables of three placements")
		l2MinFrac   = fs.Float64("l2-minfrac", 0.5, "report L2 conflicts above this overlap fraction")
		stack       = fs.Bool("stack", false, "print the static call-depth/stack/window bounds")
		runWcet     = fs.Bool("wcet", false, "run the static WCET analyzer and report its bound and diagnostics")
		runLeak     = fs.Bool("leak", false, "run the static side-channel leakage analyzer and report its channel bounds")
		modeName    = fs.String("mode", "det", "layout model for -wcet and -leak: det | dsr-eager | dsr-lazy")
		jsonOut     = fs.Bool("json", false, "emit diagnostics as a stable JSON document on stdout")
		werror      = fs.Bool("Werror", false, "treat warnings as errors for the exit status")
		quiet       = fs.Bool("q", false, "suppress info-level diagnostics and the report tables, keeping the bound lines")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mode, err := wcet.ParseMode(*modeName)
	if err != nil {
		fmt.Fprintln(stderr, "dsrlint:", err)
		return 2
	}

	p, lines, err := loadProgram(*builtin, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "dsrlint:", err)
		return 2
	}

	diags := analysis.Run(p, analysis.DefaultPasses(), lines)

	if *l2 {
		if seq, err := loader.LayoutSequential(p, loader.DefaultSequentialConfig()); err == nil {
			diags = append(diags, analysis.LintL2Layout(p, seq.Placement,
				platform.ProximaLEON3().L2, analysis.L2LintOptions{MinFrac: *l2MinFrac})...)
		}
	}

	// One core.Transform serves the verifier and, in the DSR modes, the
	// analyzers.
	analyze := *runWcet || *runLeak
	var (
		tp   *prog.Program
		meta *core.Metadata
		terr error
	)
	if *dsr || (analyze && mode != wcet.ModeDet) {
		tp, meta, _, terr = core.Transform(p)
	}
	if *dsr {
		if terr != nil {
			// An untransformable program is a lint finding, not a crash.
			diags = append(diags, analysis.Diagnostic{
				Pass: analysis.PassVerifyDSR, Sev: analysis.Error, Index: -1,
				Msg: "core.Transform failed: " + terr.Error(),
			})
		} else {
			info := meta.TransformInfo()
			info.MaxOverheadFrac = *maxOverhead
			diags = append(diags, analysis.VerifyTransform(p, tp, info)...)
		}
	}

	// Both analyzers read one front-end model of what actually runs:
	// the DSR modes model the core.Transform output. A program the
	// transform rejects has no bound, which is an Error finding like
	// any other refusal.
	var (
		wcetRep *wcet.Report
		leakRep *leak.Report
	)
	if analyze {
		var (
			m     *wcet.Model
			front *wcet.Report
		)
		switch {
		case mode == wcet.ModeDet:
			m, front = wcet.BuildModel(p, wcet.Config{Lines: lines})
		case terr == nil:
			m, front = wcet.BuildTransformed(tp, meta, mode, wcet.Config{})
		default:
			pass := "wcet"
			if !*runWcet {
				pass = "leak"
			}
			diags = append(diags, analysis.Diagnostic{Pass: pass, Sev: analysis.Error, Index: -1,
				Msg: "DSR transform failed: " + terr.Error()})
		}
		if front != nil && *runWcet {
			wcetRep = front
			if m != nil {
				wcetRep = m.Bound()
			}
			diags = append(diags, wcetRep.Diags...)
		}
		if front != nil && *runLeak {
			leakRep = leak.Analyze(m, front)
			own := leakRep.Diags
			if *runWcet {
				// The WCET report already lists the front end's findings.
				own = own[len(front.Diags):]
			}
			diags = append(diags, own...)
		}
	}

	if *stack && !*jsonOut {
		sb, err := analysis.AnalyzeStack(p, analysis.StackOptions{
			NumWindows: platform.ProximaLEON3().CPU.NumWindows,
		})
		if err != nil {
			diags = append(diags, analysis.Diagnostic{
				Pass: "stack", Sev: analysis.Error, Index: -1, Msg: err.Error(),
			})
		} else {
			fmt.Fprintf(stdout, "%s: call depth ≤ %d, window depth ≤ %d, stack ≤ %d bytes, spilled windows ≤ %d\n",
				p.Name, sb.MaxCallDepth, sb.MaxWindowDepth, sb.MaxStackBytes, sb.WindowSpillBound)
			fmt.Fprintf(stdout, "  worst chain: %v\n", sb.WorstChain)
		}
	}

	errs, warns := 0, 0
	for _, d := range diags {
		switch d.Sev {
		case analysis.Error:
			errs++
		case analysis.Warning:
			warns++
		}
	}
	failed := errs > 0 || (*werror && warns > 0)

	if *jsonOut {
		rep := analysis.NewReportJSON(p.Name, diags)
		if wcetRep != nil {
			if raw, err := wcetRep.JSON(); err == nil {
				rep.WCET = raw
			}
		}
		if leakRep != nil {
			if raw, err := leakRep.JSON(); err == nil {
				rep.Leak = raw
			}
		}
		out, err := rep.Marshal()
		if err != nil {
			fmt.Fprintln(stderr, "dsrlint:", err)
			return 2
		}
		stdout.Write(out)
		fmt.Fprintln(stdout)
		if failed {
			return 1
		}
		return 0
	}

	for _, d := range diags {
		if d.Sev == analysis.Info && *quiet {
			continue
		}
		fmt.Fprintln(stdout, d)
	}
	if !*quiet {
		if *l2 {
			printLayouts(stdout, p)
		}
		if wcetRep != nil {
			fmt.Fprint(stdout, wcetRep.Format())
		}
		if leakRep != nil {
			fmt.Fprint(stdout, leakRep.Format())
		}
	}
	if wcetRep != nil && wcetRep.Bounded {
		fmt.Fprintf(stdout, "dsrlint: wcet bound %d cycles (%s mode, %d loops)\n",
			wcetRep.BoundCycles, wcetRep.Mode, len(wcetRep.Loops))
	}
	if leakRep != nil && leakRep.Bounded {
		fmt.Fprintf(stdout, "dsrlint: leak bound %.1f access + %.1f trace bits (%s mode)\n",
			leakRep.AccessBits, leakRep.TraceBits, leakRep.Mode)
	}
	if failed {
		if *werror && errs == 0 {
			fmt.Fprintf(stderr, "dsrlint: %d warning(s) in %s promoted by -Werror\n", warns, p.Name)
		} else {
			fmt.Fprintf(stderr, "dsrlint: %d error(s) in %s\n", errs, p.Name)
		}
		return 1
	}
	fmt.Fprintf(stdout, "dsrlint: %s clean (%d diagnostics)\n", p.Name, len(diags))
	return 0
}

// The L2 conflict tables show pairs sharing at least layoutMinShared
// sets, at most layoutTop per placement; the DSR table samples the
// layout of reboot seed layoutSeed.
const (
	layoutMinShared = 16
	layoutTop       = 12
	layoutSeed      = 1
)

// printLayouts prints which memory objects alias in the unified
// direct-mapped L2 under three placements: the naive sequential link
// map, the cache-aware positioned map and one sample DSR layout. It
// makes "a bad and rare cache layout for the L2" (§VI) visible.
func printLayouts(w io.Writer, p *prog.Program) {
	plat := platform.New(platform.ProximaLEON3())
	l2 := plat.Cfg.L2
	weights := experiments.ControlLayoutWeights(p)
	show := func(name string, pr *prog.Program, pl loader.Placement, err error) {
		if err != nil {
			fmt.Fprintf(w, "\n[%s]  unavailable: %v\n", name, err)
			return
		}
		objs := layout.FromPlacement(pr, pl)
		fmt.Fprintf(w, "\n[%s]  weighted overlap score: %.0f\n",
			name, layout.TotalWeightedOverlap(objs, l2, weights))
		cs := layout.Conflicts(objs, l2, layoutMinShared)
		if len(cs) == 0 {
			fmt.Fprintln(w, "  no conflicts above threshold")
			return
		}
		fmt.Fprintf(w, "  %-18s %-18s %-12s %s\n", "object A", "object B", "shared sets", "coverage")
		for i, c := range cs {
			if i >= layoutTop {
				fmt.Fprintf(w, "  ... and %d more\n", len(cs)-i)
				break
			}
			fmt.Fprintf(w, "  %-18s %-18s %-12d %.0f%% / %.0f%%\n",
				c.A, c.B, c.SharedSets, c.FracA*100, c.FracB*100)
		}
	}

	var seqPl loader.Placement
	seq, err := loader.LayoutSequential(p, loader.DefaultSequentialConfig())
	if err == nil {
		seqPl = seq.Placement
	}
	show("naive sequential link map", p, seqPl, err)

	pos, err := layout.Optimize(p, l2, weights, loader.DefaultSequentialConfig())
	show("cache-aware positioned map (ref. [12])", p, pos, err)

	// The DSR image is the transformed program: its placement is shown
	// with the transformed symbol sizes (incl. the metadata tables).
	name := fmt.Sprintf("sampled DSR layout (seed %d)", layoutSeed)
	rt, err := core.NewRuntime(p, plat, core.Options{})
	if err == nil {
		_, err = rt.Reboot(layoutSeed)
	}
	if err != nil {
		show(name, nil, nil, err)
		return
	}
	show(name, rt.Program(), rt.Placement(), nil)
}

func loadProgram(builtin string, args []string) (*prog.Program, analysis.LineResolver, error) {
	if builtin != "" {
		p, err := spaceapp.Builtin(builtin)
		return p, nil, err
	}
	if len(args) != 1 {
		return nil, nil, fmt.Errorf("usage: dsrlint [flags] prog.s | dsrlint -builtin control|processing")
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return nil, nil, err
	}
	p, info, err := asm.AssembleWithInfo(string(src))
	if err != nil {
		return nil, nil, err
	}
	return p, info.InstrLine, nil
}
