// Command dsrsim runs the paper's evaluation (§VI) end to end on the
// simulated PROXIMA LEON3 platform and prints each table and figure:
//
//	dsrsim -platform    platform description (Fig. 1)
//	dsrsim -table1      performance counters, original vs DSR (Table I)
//	dsrsim -fig2        min/avg/max execution times (Fig. 2)
//	dsrsim -fig3        the pWCET curve of the DSR binary (Fig. 3)
//	dsrsim -iid         the i.i.d. verification (Ljung-Box + KS)
//	dsrsim -margin      pWCET vs the MOET+20% industrial margin
//	dsrsim -ablations   the A1-A5 ablation campaigns
//	dsrsim -leakage     E8: side-channel leakage vs timing analysability
//	dsrsim -e9          E9: schedule randomisation x layout randomisation
//	dsrsim -all         everything above
//
// -runs N sets the campaign size (default 1000, as in the paper; at
// least 1).
// -workers N shards each campaign across a worker pool (default one
// worker per CPU; 1 forces the sequential path). Campaign results,
// telemetry and progress are byte-identical for every worker count.
//
// Observability:
//
//	-telemetry DIR  record the campaign (metrics, events, per-run cycle
//	                attribution) and export it to DIR as telemetry.jsonl,
//	                telemetry.csv, telemetry.prom and trace.json (Chrome
//	                trace_event, for chrome://tracing / Perfetto), plus
//	                the host-side span timeline as spans.jsonl and
//	                spans-trace.json (per-worker timeline; feed it to
//	                `dsrstat workers` or chrome://tracing)
//	-http ADDR      serve live campaign introspection over HTTP while the
//	                run is in flight (":0" picks a free port; the bound
//	                address is printed to stderr): /metrics, /campaign,
//	                /events (SSE), /healthz, /debug/pprof
//	-progress       print per-run campaign progress to stderr
//
// Neither flag changes campaign results: observation is strictly
// one-way and the determinism suite pins byte-identical output with
// and without it.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"dsr/internal/analysis/wcet"
	"dsr/internal/bus"
	"dsr/internal/experiments"
	"dsr/internal/mbpta"
	"dsr/internal/obs"
	"dsr/internal/platform"
	"dsr/internal/prng"
	"dsr/internal/spaceapp"
	"dsr/internal/stats"
	"dsr/internal/telemetry"
)

func main() {
	var (
		runs      = flag.Int("runs", 1000, "measurement runs per configuration")
		seed      = flag.Uint64("seed", 1, "base seed for layout randomisation")
		workers   = flag.Int("workers", 0, "campaign worker-pool size: 0 = one per CPU, 1 = sequential; campaign output is identical for every value")
		all       = flag.Bool("all", false, "run every experiment")
		platFlag  = flag.Bool("platform", false, "print the platform description (Fig. 1)")
		table1    = flag.Bool("table1", false, "Table I: performance counters")
		fig2      = flag.Bool("fig2", false, "Fig. 2: min/avg/max execution times")
		fig3      = flag.Bool("fig3", false, "Fig. 3: pWCET curve")
		iid       = flag.Bool("iid", false, "i.i.d. verification")
		margin    = flag.Bool("margin", false, "pWCET vs industrial margin")
		ablations = flag.Bool("ablations", false, "A1-A5 ablation campaigns")
		leakage   = flag.Bool("leakage", false, "E8: cache side-channel leakage vs timing analysability")
		e9        = flag.Bool("e9", false, "E9: schedule randomisation x layout randomisation grid")
		multicore = flag.Bool("multicore", false, "future-work study: DSR under bus contention (§VII)")
		paths     = flag.Bool("paths", false, "future-work study: worst-path coverage of the processing task (§VII)")
		telemDir  = flag.String("telemetry", "", "record the campaign and export telemetry files to this directory")
		httpAddr  = flag.String("http", "", "serve live observability (metrics, campaign snapshot, SSE, pprof) on this address; \":0\" picks a free port")
		progress  = flag.Bool("progress", false, "print per-run campaign progress to stderr")
	)
	flag.Parse()
	if *all {
		*platFlag, *table1, *fig2, *fig3, *iid, *margin, *ablations, *leakage, *e9, *multicore, *paths =
			true, true, true, true, true, true, true, true, true, true, true
	}
	if !(*platFlag || *table1 || *fig2 || *fig3 || *iid || *margin || *ablations || *leakage || *e9 || *multicore || *paths) {
		flag.Usage()
		os.Exit(2)
	}
	if *runs < 1 {
		fmt.Fprintf(os.Stderr, "dsrsim: -runs must be at least 1, got %d\n", *runs)
		flag.Usage()
		os.Exit(2)
	}

	cfg := experiments.DefaultConfig()
	cfg.Runs = *runs
	cfg.SeedBase = *seed
	cfg.Workers = *workers

	var campaign *telemetry.Campaign
	if *telemDir != "" || *httpAddr != "" {
		campaign = telemetry.NewCampaign(0)
		cfg.Telemetry = campaign
		cfg.Attribution = true
		cfg.MBPTA.Events = campaign.Events
	}
	var tracer *telemetry.Tracer
	if *telemDir != "" || *httpAddr != "" {
		// The span tracer records host wall-clock per-worker timelines;
		// it is deliberately separate from the deterministic campaign
		// telemetry above.
		tracer = telemetry.NewTracer()
		cfg.Tracer = tracer
	}
	var view *obs.Campaign
	if *httpAddr != "" {
		view = obs.NewCampaign(campaign.Registry, tracer, cfg.MBPTA)
		cfg.Observer = view
		srv, err := obs.Serve(*httpAddr, view)
		die(err)
		defer srv.Close()
		defer view.Done()
		fmt.Fprintf(os.Stderr, "observability server on http://%s (metrics, campaign, events, pprof)\n", srv.Addr())
	}
	if *progress {
		cfg.Progress = func(series string, done, total int) {
			if done%50 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "  %s: %d/%d runs\r", series, done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
	}
	defer func() {
		if *telemDir != "" {
			die(writeTelemetry(*telemDir, campaign, tracer))
		}
	}()

	if *platFlag {
		fmt.Print(platform.New(platform.ProximaLEON3()).Describe())
		fmt.Println()
	}

	var (
		base, dsr *experiments.Series
		err       error
	)
	need := *table1 || *fig2 || *fig3 || *iid || *margin
	if need {
		fmt.Fprintf(os.Stderr, "running %d baseline measurement runs...\n", cfg.Runs)
		base, err = experiments.RunBaseline(cfg)
		die(err)
		fmt.Fprintf(os.Stderr, "running %d DSR measurement runs...\n", cfg.Runs)
		dsr, err = experiments.RunDSR(cfg)
		die(err)
	}

	if *table1 {
		fmt.Print(experiments.FormatTable1(experiments.Table1(base, dsr)))
		fmt.Println()
	}
	if *fig2 {
		fmt.Print(experiments.FormatFigure2(experiments.Figure2(base, dsr)))
		fmt.Println()
	}

	var rep *mbpta.Report
	if *fig3 || *iid || *margin {
		rep, err = experiments.Figure3(dsr, cfg.MBPTA)
		if err != nil {
			// A failed i.i.d. gate is itself a result worth printing.
			if rep != nil {
				fmt.Print(experiments.FormatIID(rep.IID))
			}
			die(err)
		}
	}
	if *iid {
		fmt.Print(experiments.FormatIID(rep.IID))
		// The paper stresses the contrast: the non-randomised platform
		// gives no basis for the representativeness argument. Show its
		// test outcome too.
		if baseIID, err := mbpta.CheckIID(base.Cycles, cfg.MBPTA); err == nil {
			fmt.Printf("\nfor reference, the non-randomised binary:\n")
			fmt.Print(experiments.FormatIID(baseIID))
		}
		fmt.Println()
	}
	if *fig3 {
		fmt.Print(experiments.RenderFigure3(dsr, rep))
		fmt.Println()
	}
	if *margin {
		_, _, moetRef := base.MinMeanMax()
		mc := mbpta.CompareWithMargin(rep, moetRef, cfg.Margin)
		fmt.Print(experiments.FormatMargin(mc, rep.MOET))
		// The analytical counterpart: where the static WCET bounds sit
		// relative to the measured maxima and the EVT extrapolation.
		det, errDet := experiments.StaticWCET(wcet.ModeDet)
		eager, errEager := experiments.StaticWCET(wcet.ModeDSREager)
		if errDet == nil && errEager == nil {
			fmt.Print(experiments.FormatStaticReference(det, eager, moetRef, rep.MOET, rep.PWCET))
		}
		fmt.Println()
	}

	if *ablations {
		runAblations(cfg)
	}
	if *leakage {
		fmt.Fprintf(os.Stderr, "running 3x%d leakage measurement runs (prime+probe / evict+time)...\n", cfg.Runs)
		e8, err := experiments.RunE8(cfg)
		die(err)
		fmt.Print(experiments.FormatE8(e8))
		fmt.Println()
	}
	if *e9 {
		runE9(cfg)
	}
	if *multicore {
		runMulticore(cfg)
	}
	if *paths {
		runPaths(cfg)
	}
}

// runE9 is the schedule-randomisation grid: each cell executes
// certified major frames (11 partition runs per frame, the processing
// task ~5x the control task), so the frame count is capped below the
// -runs campaign size and the MBPTA block size scaled to match.
func runE9(cfg experiments.Config) {
	ecfg := cfg
	if ecfg.Runs > 250 {
		ecfg.Runs = 250
	}
	// 10 block maxima whatever the frame count — enough for the tail fit
	// on a campaign far shorter than the 1000-run E3 reference.
	if ecfg.MBPTA.BlockSize > ecfg.Runs/10 {
		ecfg.MBPTA.BlockSize = ecfg.Runs / 10
	}
	fmt.Fprintf(os.Stderr, "running 4x%d certified major frames (%d partition runs per cell)...\n",
		ecfg.Runs, ecfg.Runs*11)
	rep, err := experiments.RunE9(ecfg)
	die(err)
	fmt.Print(experiments.FormatE9(rep))
	fmt.Println()
	// A failed verdict is itself a result worth printing — but like the
	// i.i.d. gate, it must not exit 0.
	if !rep.Sound || !rep.TimingAnalysable || !rep.InferenceResistant {
		die(fmt.Errorf("E9 verdict failed (see report above)"))
	}
}

// runPaths is the §VII future-work study (i): the processing task's
// execution time depends on the input (how many lenses are lit), so
// MBPTA on nominal inputs bounds only the exercised paths. Measuring at
// the structurally worst path (every lens lit) bounds the path
// dimension too, in the spirit of extended path coverage (EPC).
func runPaths(cfg experiments.Config) {
	pcfg := cfg
	if pcfg.Runs > 60 {
		pcfg.Runs = 60 // the processing task is ~20x the control task
	}
	pcfg.MBPTA.BlockSize = pcfg.Runs / 10
	fmt.Println("FUTURE WORK (§VII): PATH COVERAGE OF THE PROCESSING TASK")
	fmt.Fprintf(os.Stderr, "running processing campaigns (%d runs each)...\n", pcfg.Runs)
	nominal, err := experiments.RunProcessing(pcfg, spaceapp.LitFraction, "nominal inputs (~70% lit)")
	die(err)
	worst, err := experiments.RunProcessing(pcfg, 1.0, "worst path (all lenses lit)")
	die(err)
	for _, s := range []*experiments.Series{nominal, worst} {
		min, mean, max := s.MinMeanMax()
		fmt.Printf("  %-28s min=%-9.0f avg=%-9.0f max=%-9.0f\n", s.Name, min, mean, max)
	}
	_, _, nmax := nominal.MinMeanMax()
	wmin, _, _ := worst.MinMeanMax()
	fmt.Printf("  worst-path min / nominal max = %.2f: measurements at the worst path\n", wmin/nmax)
	fmt.Println("  dominate the nominal campaign, bounding the input-dependent path jitter")
	fmt.Println("  that randomisation alone cannot cover.")
}

// runMulticore is the §VII future-work study: DSR under multicore bus
// interference, with both a randomised-arbiter model (MBPTA-compatible)
// and the worst-case-padding treatment for comparison.
func runMulticore(cfg experiments.Config) {
	mcfg := cfg
	if mcfg.Runs > 300 {
		mcfg.Runs = 300
	}
	if mcfg.Runs < 10*mcfg.MBPTA.BlockSize {
		mcfg.MBPTA.BlockSize = mcfg.Runs / 10
	}
	fmt.Println("FUTURE WORK (§VII): DSR UNDER MULTICORE BUS CONTENTION")
	fmt.Fprintf(os.Stderr, "running contention campaigns...\n")
	quiet, err := experiments.RunDSR(mcfg)
	die(err)
	rnd, err := experiments.RunDSRWithContention(mcfg,
		bus.Contention{Mode: bus.RandomContention, Intensity: 0.3, MaxDelay: 8},
		"Sw Rand + random arb")
	die(err)
	wc, err := experiments.RunDSRWithContention(mcfg,
		bus.Contention{Mode: bus.WorstCaseContention, MaxDelay: 8},
		"Sw Rand + worst-case")
	die(err)
	for _, s := range []*experiments.Series{quiet, rnd, wc} {
		min, mean, max := s.MinMeanMax()
		line := fmt.Sprintf("  %-24s min=%-9.0f avg=%-9.0f max=%-9.0f", s.Name, min, mean, max)
		if rep, err := experiments.Figure3(s, mcfg.MBPTA); err == nil {
			line += fmt.Sprintf(" pWCET@1e-15=%-9.0f (LB p=%.2f KS p=%.2f)",
				rep.PWCET, rep.IID.LjungBox.PValue, rep.IID.KS.PValue)
		} else {
			line += fmt.Sprintf(" MBPTA: %v", err)
		}
		fmt.Println(line)
	}
	fmt.Println("  randomised arbitration stays i.i.d.-analysable; worst-case padding")
	fmt.Println("  upper-bounds it deterministically at a higher cost.")
}

func runAblations(cfg experiments.Config) {
	// Ablations use a reduced campaign: they compare means and spreads,
	// not deep tails.
	acfg := cfg
	if acfg.Runs > 200 {
		acfg.Runs = 200
	}
	fmt.Println("ABLATIONS (A1-A5)")

	summarise := func(s *experiments.Series) string {
		min, mean, max := s.MinMeanMax()
		return fmt.Sprintf("%-22s min=%-9.0f avg=%-9.0f max=%-9.0f stddev=%.0f",
			s.Name, min, mean, max, stats.StdDev(s.Cycles))
	}

	fmt.Fprintf(os.Stderr, "A1: eager vs lazy relocation...\n")
	eager, err := experiments.RunDSR(acfg)
	die(err)
	lazy, err := experiments.RunDSRLazy(acfg)
	die(err)
	fmt.Println("A1 relocation scheme (lazy pays relocation inside the measured window):")
	fmt.Println("  " + summarise(eager))
	fmt.Println("  " + summarise(lazy))

	fmt.Fprintf(os.Stderr, "A2: offset bound L1 vs L2 way size...\n")
	dl1Cfg := platform.ProximaLEON3().DL1
	l1way := dl1Cfg.WaySize()
	small, err := experiments.RunDSRWithOffsetBound(acfg, l1way, "Sw Rand (L1-way bound)")
	die(err)
	fmt.Println("A2 placement offset bound (§III.B.4; L2-way default randomises all levels):")
	fmt.Println("  " + summarise(eager))
	fmt.Println("  " + summarise(small))

	fmt.Fprintf(os.Stderr, "A3: MWC vs LFSR generator...\n")
	lfsr, err := experiments.RunDSRWithPRNG(acfg, func() prng.Source { return prng.NewLFSR(1) }, "Sw Rand (LFSR)")
	die(err)
	fmt.Println("A3 random source (§III.B.3; both must behave equivalently):")
	fmt.Println("  " + summarise(eager))
	fmt.Println("  " + summarise(lfsr))

	fmt.Fprintf(os.Stderr, "A4: hardware randomisation...\n")
	hw, err := experiments.RunHWRand(acfg)
	die(err)
	fmt.Println("A4 hardware time-randomised caches (what DSR substitutes for):")
	fmt.Println("  " + summarise(hw))

	fmt.Fprintf(os.Stderr, "A5: static software randomisation...\n")
	static, err := experiments.RunStatic(acfg)
	die(err)
	fmt.Println("A5 static (TASA-like) randomisation (zero runtime overhead, new binary per run):")
	fmt.Println("  " + summarise(static))

	fmt.Fprintf(os.Stderr, "A7: cache-aware positioning...\n")
	pos, err := experiments.RunPositioned(acfg)
	die(err)
	base, err := experiments.RunBaseline(acfg)
	die(err)
	fmt.Println("A7 cache-aware positioning (ref. [12]; one engineered layout, no randomisation,")
	fmt.Println("   no representativeness argument, re-derive at every integration):")
	fmt.Println("  " + summarise(base))
	fmt.Println("  " + summarise(pos))
}

// writeTelemetry exports the campaign in all four formats: JSONL and CSV
// records, Prometheus text exposition, and a Chrome trace_event JSON
// timeline of the whole campaign. When a span tracer ran, the host-side
// per-worker timeline is exported separately (it is wall-clock data and
// must not contaminate the deterministic dump): spans.jsonl for
// `dsrstat workers`, spans-trace.json for chrome://tracing.
func writeTelemetry(dir string, campaign *telemetry.Campaign, tracer *telemetry.Tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type export struct {
		name  string
		write func(f *os.File) error
	}
	dump := campaign.Dump()
	writers := []export{
		{"telemetry.jsonl", func(f *os.File) error { return dump.WriteJSONL(f) }},
		{"telemetry.csv", func(f *os.File) error { return dump.WriteCSV(f) }},
		{"telemetry.prom", func(f *os.File) error { return dump.WritePrometheus(f) }},
		{"trace.json", func(f *os.File) error { return dump.WriteChromeTrace(f, 0) }},
	}
	var spans []telemetry.Span
	if tracer != nil {
		spans = tracer.Spans()
		spanDump := &telemetry.Dump{Spans: spans}
		writers = append(writers,
			export{"spans.jsonl", func(f *os.File) error { return spanDump.WriteJSONL(f) }},
			export{"spans-trace.json", func(f *os.File) error { return telemetry.WriteSpanTrace(f, spans) }},
		)
	}
	for _, w := range writers {
		f, err := os.Create(filepath.Join(dir, w.name))
		if err != nil {
			return err
		}
		if err := w.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "telemetry: %d metrics, %d events, %d spans -> %s\n",
		len(dump.Metrics), len(dump.Events), len(spans), dir)
	return nil
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsrsim:", err)
		os.Exit(1)
	}
}
