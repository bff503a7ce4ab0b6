// Package experiments is the campaign harness behind every table and
// figure of the paper's evaluation (§VI), shared by cmd/dsrsim and the
// repository benchmarks:
//
//	E1 / Table I  — performance-counter ranges, original vs DSR
//	E2 / Fig. 2   — min/average/max execution time, original vs DSR
//	E3 / Fig. 3   — the pWCET curve of the DSR binary
//	E4            — the i.i.d. verification (Ljung-Box + KS p-values)
//	E5            — pWCET vs the MOET+20% industrial margin
//
// plus the A1–A5 ablation campaigns (eager/lazy, offset bound, PRNG,
// hardware randomisation, static randomisation).
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"dsr/internal/bus"
	"dsr/internal/campaign"
	"dsr/internal/core"
	"dsr/internal/cpu"
	"dsr/internal/host"
	"dsr/internal/layout"
	"dsr/internal/loader"
	"dsr/internal/mbpta"
	"dsr/internal/platform"
	"dsr/internal/prng"
	"dsr/internal/prog"
	"dsr/internal/rvs"
	"dsr/internal/spaceapp"
	"dsr/internal/stats"
	"dsr/internal/telemetry"
)

// Config dimensions a measurement campaign.
type Config struct {
	// Runs is the number of measurement runs per configuration; the
	// paper's campaigns use on the order of 1000.
	Runs int
	// SeedBase is the campaign base seed: per-run layout seeds (DSR
	// reboots, static builds, hardware cache reseeds) are derived from
	// it by the campaign engine's splittable seed schedule
	// (campaign.NewSchedule), so every run's seed is a pure function of
	// (SeedBase, run index) regardless of execution order.
	SeedBase uint64
	// InputSeedBase seeds the per-run input vectors; baseline and
	// randomised campaigns share it so runs are pairwise comparable.
	InputSeedBase uint64
	// MBPTA is the analysis configuration (E3/E4/E5).
	MBPTA mbpta.Options
	// Margin is the industrial engineering margin (E5; paper: 20%).
	Margin float64

	// Workers shards the campaign's runs across this many workers, each
	// with its own platform instance: 0 (the default) selects
	// runtime.NumCPU(), 1 selects the legacy strictly sequential
	// in-process loop. Campaign output — cycles, counters, telemetry
	// attribution, event ordering — is byte-identical for every worker
	// count (the engine's determinism invariant).
	Workers int

	// Telemetry, when non-nil, receives one RunRecord per measured run
	// (metrics, events and the campaign timeline). A nil campaign
	// disables recording at zero cost. Recording happens during the
	// canonical-order merge, on the calling goroutine, so worker count
	// does not change what is recorded.
	Telemetry *telemetry.Campaign
	// Attribution enables the cycle-attribution profiler on every
	// campaign platform, so each RunResult carries a per-component
	// cycle split (and Series.Attribution the campaign aggregate).
	Attribution bool
	// Progress, when non-nil, is called after every merged run with
	// the series name, the runs finished so far, and the total; calls
	// arrive in canonical order from the calling goroutine.
	Progress func(series string, done, total int)

	// Tracer, when non-nil, records host wall-time spans of the campaign
	// execution itself (worker/run/boot/reloc/execute phases) for the
	// worker-utilization report and live observability. Spans never
	// enter the deterministic telemetry dump: enabling the tracer cannot
	// change campaign results.
	Tracer *telemetry.Tracer
	// Observer, when non-nil, is notified of series lifecycle and every
	// merged unit-of-analysis value, in canonical order from the calling
	// goroutine — the live-introspection feed behind internal/obs. Like
	// Progress, it observes the merge; it cannot influence it.
	Observer campaign.RunObserver

	// e9 is the E9 run memo DefaultConfig allocates: every copy of that
	// Config shares it, so the four grid cells run each distinct
	// partition activation once. nil (a literal Config) runs every
	// activation.
	e9 *e9Memo
}

// DefaultConfig returns the paper-scale campaign configuration.
func DefaultConfig() Config {
	return Config{
		Runs:          1000,
		SeedBase:      1,
		InputSeedBase: 9000,
		MBPTA:         mbpta.DefaultOptions(),
		Margin:        0.20,
		e9:            newE9Memo(),
	}
}

// Series is one campaign: every run's result under one configuration.
type Series struct {
	Name    string
	Cycles  []float64
	Results []platform.RunResult
	// Attribution is the campaign-aggregate cycle attribution (the sum
	// over runs); Valid only when Config.Attribution was set.
	Attribution telemetry.AttributionSnapshot
}

// MinMeanMax summarises the execution times (Fig. 2's three bars).
func (s *Series) MinMeanMax() (min, mean, max float64) {
	return stats.Min(s.Cycles), stats.Mean(s.Cycles), stats.Max(s.Cycles)
}

// newHost builds a worker host for t under pol on a platform built
// from pc, with the campaign's layout seeds and input seed base.
func (cfg *Config) newHost(pc platform.Config, pol host.Policy, t host.Task) (*host.Host, error) {
	return host.New(pc, pol, t, cfg.SeedBase, cfg.InputSeedBase)
}

// record books one merged run into the series and the telemetry
// campaign, and fires the progress callback. It is called only from
// the engine's canonical-order merge, so writes land in run order on
// the calling goroutine.
func (cfg *Config) record(s *Series, i int, seed uint64, res platform.RunResult) {
	uoa := uoaCycles(res)
	// Pre-sized indexed writes, not append: the slices are allocated to
	// cfg.Runs up front so a merge can never grow a slice another
	// reader holds, and so indices are explicit rather than implied by
	// append order.
	s.Cycles[i] = uoa
	s.Results[i] = res
	s.Attribution.Add(res.Attribution)
	cfg.Telemetry.RecordRun(telemetry.RunRecord{
		Series: s.Name, Index: i, Seed: seed,
		Cycles: res.Cycles, UoA: uoa, Attribution: res.Attribution,
	})
	if cfg.Observer != nil {
		cfg.Observer.ObserveRun(s.Name, i, uoa)
	}
	if cfg.Progress != nil {
		cfg.Progress(s.Name, i+1, cfg.Runs)
	}
}

// shard is one run's outcome as produced by a campaign worker, before
// the canonical-order merge.
type shard struct {
	seed   uint64
	res    platform.RunResult
	events []telemetry.Event
}

// runSeries runs task under pol on platforms built from pc, one host
// per campaign worker, and merges the results back in canonical run
// order: replayed runtime events first (exactly where the sequential
// loop would have emitted them live, at the pre-run campaign-clock
// position), then the run record itself.
func (cfg Config) runSeries(name string, pc platform.Config, pol host.Policy, t host.Task) (*Series, error) {
	s := &Series{
		Name:    name,
		Cycles:  make([]float64, cfg.Runs),
		Results: make([]platform.RunResult, cfg.Runs),
	}
	if cfg.Observer != nil {
		cfg.Observer.BeginSeries(name, cfg.Runs)
	}
	ecfg := campaign.Config{Runs: cfg.Runs, Workers: cfg.Workers, Tracer: cfg.Tracer}
	newWorker := func(w int) (campaign.RunFunc[shard], error) {
		h, err := cfg.newHost(pc, pol, t)
		if err != nil {
			return nil, err
		}
		h.Observe(cfg.Attribution, cfg.Tracer.Worker(w), cfg.Telemetry != nil)
		return func(i int) (shard, error) {
			seed := h.Seed(i)
			if err := h.Prepare(i, seed); err != nil {
				return shard{}, err
			}
			res, _, err := h.Run(cpu.NoBudget)
			if err != nil {
				return shard{}, err
			}
			return shard{seed: seed, res: res, events: h.Events()}, nil
		}, nil
	}
	err := campaign.Execute(ecfg, newWorker, func(i int, sh shard) error {
		if cfg.Telemetry != nil {
			cfg.Telemetry.Events.ReplayAt(cfg.Telemetry.Now(), sh.events)
		}
		cfg.record(s, i, sh.seed, sh.res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if cfg.Observer != nil {
		cfg.Observer.EndSeries(name)
	}
	return s, nil
}

// uoaCycles is the run's unit-of-analysis duration (rvs.UoA, ipoints
// 1→2, §V); it falls back to the whole run when the trace is absent.
func uoaCycles(res platform.RunResult) float64 {
	if uoa, ok := rvs.UoA(res.Trace); ok {
		return float64(uoa)
	}
	return float64(res.Cycles)
}

// Every campaign in this package runs on a host.Host (one per
// campaign worker, or one per E9 partition); the tasks and layout
// policies below are the data that tells the campaigns apart.

// ControlTask is the control application under a fresh sensor input
// per run, checked against its golden model.
var ControlTask = host.Task{
	Name:  "control",
	Build: spaceapp.BuildControl,
	Input: func(m *cpu.Memory, img *loader.Image, seed uint64) (uint32, error) {
		in := controlInputs.Get().(*spaceapp.ControlInput)
		defer controlInputs.Put(in)
		spaceapp.GenControlInputInto(in, seed)
		if err := spaceapp.ApplyControlInput(m, img, in); err != nil {
			return 0, err
		}
		return spaceapp.ControlReference(in), nil
	},
}

// controlInputs holds ControlTask's input buffers. A task's Input runs
// on every worker host at once, so each call takes a buffer of its own
// and returns it once the golden word is computed: a buffer is never
// shared, and a steady-state run allocates none.
var controlInputs = sync.Pool{New: func() any { return new(spaceapp.ControlInput) }}

// processingTask is the image-processing application under scenes
// drawn at the given lit-lens fraction. Its scene buffers are pooled as
// ControlTask's inputs are.
func processingTask(litFrac float64) host.Task {
	scenes := &sync.Pool{New: func() any { return new(spaceapp.Scene) }}
	return host.Task{
		Name:  "processing",
		Build: spaceapp.BuildProcessing,
		Input: func(m *cpu.Memory, img *loader.Image, seed uint64) (uint32, error) {
			scene := scenes.Get().(*spaceapp.Scene)
			defer scenes.Put(scene)
			spaceapp.GenSceneInto(scene, seed, litFrac)
			if err := spaceapp.ApplyScene(m, img, scene); err != nil {
				return 0, err
			}
			return spaceapp.ProcessingReference(scene).RMSBits, nil
		},
	}
}

// sequentialImage is the original binary's fixed sequential layout.
func sequentialImage(p *prog.Program, _ platform.Config) (*loader.Image, error) {
	return loader.Load(p, loader.DefaultSequentialConfig())
}

// positionedImage is the cache-aware fixed layout of the control task
// (see RunPositioned).
func positionedImage(p *prog.Program, pc platform.Config) (*loader.Image, error) {
	pl, err := layout.Optimize(p, pc.L2, ControlLayoutWeights(p), loader.DefaultSequentialConfig())
	if err != nil {
		return nil, err
	}
	return loader.BuildImage(p, pl)
}

var (
	fixedLayout  = host.Policy{Place: sequentialImage}
	staticLayout = host.Policy{}
	// lazyLayout is the A1 ablation's DSR: lazy relocation inside the
	// measured window.
	lazyLayout = host.Policy{DSR: func() core.Options { return core.Options{Mode: core.Lazy} }}
)

// RunBaseline measures the original (non-randomised) binary: one fixed
// sequential layout, fresh input per run, cache flush and memory reload
// between runs — the paper's COTS configuration.
func RunBaseline(cfg Config) (*Series, error) {
	return cfg.runSeries("No Rand", platform.ProximaLEON3(), fixedLayout, ControlTask)
}

// RunDSR measures the dynamically software-randomised binary: partition
// reboot with a fresh seed before every run (§IV).
func RunDSR(cfg Config) (*Series, error) {
	return cfg.runSeries("Sw Rand", platform.ProximaLEON3(), host.DSR, ControlTask)
}

// RunDSRLazy is the A1 ablation: lazy relocation inside the measured
// window.
func RunDSRLazy(cfg Config) (*Series, error) {
	return cfg.runSeries("Sw Rand (lazy)", platform.ProximaLEON3(), lazyLayout, ControlTask)
}

// RunDSRWithOffsetBound is the A2 ablation: DSR with a caller-chosen
// placement offset bound (e.g. the L1 way size instead of the L2's).
func RunDSRWithOffsetBound(cfg Config, bound int, name string) (*Series, error) {
	return cfg.runSeries(name, platform.ProximaLEON3(), host.Policy{DSR: func() core.Options { return core.Options{OffsetBound: bound} }}, ControlTask)
}

// RunDSRWithPRNG is the A3 ablation: DSR drawing from a caller-chosen
// generator (MWC vs LFSR). newSrc is a factory rather than an instance
// because each campaign worker needs its own private source: a Source
// is not safe for concurrent use, and Seed fully re-initialises state,
// so factory-fresh instances give identical results at any worker
// count.
func RunDSRWithPRNG(cfg Config, newSrc func() prng.Source, name string) (*Series, error) {
	return cfg.runSeries(name, platform.ProximaLEON3(), host.Policy{DSR: func() core.Options { return core.Options{Source: newSrc()} }}, ControlTask)
}

// RunHWRand is the A4 ablation: the unmodified binary on hardware
// time-randomised caches (random placement and replacement), reseeded
// per run.
func RunHWRand(cfg Config) (*Series, error) {
	return cfg.runSeries("Hw Rand", platform.HWRandLEON3(), host.Policy{Place: sequentialImage, Reseed: true}, ControlTask)
}

// RunStatic is the A5 ablation: static software randomisation — one
// fresh randomised binary per run, zero runtime overhead (TASA-style).
func RunStatic(cfg Config) (*Series, error) {
	return cfg.runSeries("Static Rand", platform.ProximaLEON3(), staticLayout, ControlTask)
}

// counterRange formats a min-max counter span the way Table I does
// ("126-127", or just "126" when constant).
func counterRange(vals []uint64) string {
	min, max := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min == max {
		return fmt.Sprintf("%d", min)
	}
	return fmt.Sprintf("%d-%d", min, max)
}

// Table1Row is one line of Table I.
type Table1Row struct {
	Config string
	ICMiss string
	DCMiss string
	L2Miss string
	FPU    string
	Instr  string
	// L2MissRatio is the §VI derived metric (min-max).
	L2MissRatio string
}

// Table1 builds the performance-counter comparison of Table I.
func Table1(series ...*Series) []Table1Row {
	rows := make([]Table1Row, 0, len(series))
	for _, s := range series {
		n := len(s.Results)
		ic := make([]uint64, n)
		dc := make([]uint64, n)
		l2 := make([]uint64, n)
		fpu := make([]uint64, n)
		instr := make([]uint64, n)
		ratios := make([]float64, n)
		for i, r := range s.Results {
			ic[i], dc[i], l2[i] = r.PMCs.ICMiss, r.PMCs.DCMiss, r.PMCs.L2Miss
			fpu[i], instr[i] = r.PMCs.FPU, r.PMCs.Instr
			ratios[i] = r.PMCs.L2MissRatio()
		}
		rows = append(rows, Table1Row{
			Config: s.Name,
			ICMiss: counterRange(ic),
			DCMiss: counterRange(dc),
			L2Miss: counterRange(l2),
			FPU:    counterRange(fpu),
			Instr:  counterRange(instr),
			L2MissRatio: fmt.Sprintf("%.1f%%-%.1f%%",
				stats.Min(ratios)*100, stats.Max(ratios)*100),
		})
	}
	return rows
}

// FormatTable1 renders Table I as text.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE I: PERFORMANCE COUNTER READINGS FOR THE CONTROL TASK\n")
	fmt.Fprintf(&b, "%-16s %-12s %-12s %-12s %-10s %-16s %s\n",
		"", "icmiss", "dcmiss", "L2miss", "FPU", "Instr", "L2 miss ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-12s %-12s %-12s %-10s %-16s %s\n",
			r.Config, r.ICMiss, r.DCMiss, r.L2Miss, r.FPU, r.Instr, r.L2MissRatio)
	}
	return b.String()
}

// Fig2Bar is one configuration of Fig. 2.
type Fig2Bar struct {
	Config string
	Min    float64
	Mean   float64
	Max    float64
}

// Figure2 builds the min/average/max comparison of Fig. 2.
func Figure2(series ...*Series) []Fig2Bar {
	bars := make([]Fig2Bar, 0, len(series))
	for _, s := range series {
		min, mean, max := s.MinMeanMax()
		bars = append(bars, Fig2Bar{Config: s.Name, Min: min, Mean: mean, Max: max})
	}
	return bars
}

// FormatFigure2 renders Fig. 2 as text with proportional bars.
func FormatFigure2(bars []Fig2Bar) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG. 2: AVERAGE PERFORMANCE COMPARISON (execution time, cycles)\n")
	var scale float64
	for _, bar := range bars {
		if bar.Max > scale {
			scale = bar.Max
		}
	}
	for _, bar := range bars {
		fmt.Fprintf(&b, "%-16s min=%-10.0f avg=%-10.0f max=%-10.0f |%s\n",
			bar.Config, bar.Min, bar.Mean, bar.Max,
			strings.Repeat("#", int(bar.Mean/scale*40))+
				strings.Repeat(".", int((bar.Max-bar.Mean)/scale*40)))
	}
	return b.String()
}

// Figure3 runs MBPTA on a series and returns the report that backs the
// pWCET curve of Fig. 3.
func Figure3(s *Series, opts mbpta.Options) (*mbpta.Report, error) {
	return mbpta.Analyse(s.Cycles, opts)
}

// RenderFigure3 renders the Fig. 3 plot for a series.
func RenderFigure3(s *Series, rep *mbpta.Report) string {
	return rvs.RenderCurve(rep, s.Cycles, 72, 18)
}

// FormatIID renders the E4 i.i.d. verification summary.
func FormatIID(rep mbpta.IIDReport) string {
	verdict := "REJECTED — EVT not applicable"
	if rep.Pass() {
		verdict = "PASSED — EVT applicable"
	}
	return fmt.Sprintf(
		"i.i.d. verification (alpha=%.2f):\n"+
			"  Ljung-Box (independence):        Q=%.2f  p=%.4f\n"+
			"  Kolmogorov-Smirnov (identical):  D=%.4f p=%.4f\n"+
			"  verdict: %s\n",
		rep.Alpha, rep.LjungBox.Statistic, rep.LjungBox.PValue,
		rep.KS.Statistic, rep.KS.PValue, verdict)
}

// FormatMargin renders the E5 comparison against industrial practice.
func FormatMargin(mc mbpta.MarginComparison, dsrMOET float64) string {
	return fmt.Sprintf(
		"pWCET vs industrial practice:\n"+
			"  non-randomised MOET:             %.0f cycles\n"+
			"  MOET + %.0f%% engineering margin:  %.0f cycles\n"+
			"  DSR MOET:                        %.0f cycles\n"+
			"  MBPTA pWCET @ 1e-15:             %.0f cycles (+%.2f%% over DSR MOET)\n"+
			"  pWCET is %.1f%% tighter than the margin budget\n",
		mc.MOETRef, mc.Margin*100, mc.Budget, dsrMOET,
		mc.PWCET, mc.OverMOET*100, mc.Gain*100)
}

// RunDSRWithContention is the future-work experiment of §VII (ii): DSR
// under multicore bus interference. With a random (time-randomisable)
// arbiter model the interference is one more i.i.d. jitter source, so
// MBPTA still applies and the pWCET absorbs the contention; with the
// worst-case model every transaction is padded, giving the conventional
// deterministic upper-bounding treatment for comparison.
func RunDSRWithContention(cfg Config, cont bus.Contention, name string) (*Series, error) {
	pol := host.DSR
	pol.Contention = &cont
	return cfg.runSeries(name, platform.ProximaLEON3(), pol, ControlTask)
}

// RunProcessing measures the image-processing task under DSR with scenes
// drawn at the given lit-lens fraction. It supports the future-work
// study of §VII (i): the task's execution path depends on how many
// lenses are lightened (the high-level jitter source), and MBPTA bounds
// only the paths exercised — measurements at the worst path (all lenses
// lit, litFrac=1) upper-bound the path dimension the way EPC
// (Ziccardi et al., RTSS'15) would.
func RunProcessing(cfg Config, litFrac float64, name string) (*Series, error) {
	return cfg.runSeries(name, platform.ProximaLEON3(), host.DSR, processingTask(litFrac))
}

// ControlLayoutWeights returns the interaction weights of the control
// task for cache-aware positioning: the static call graph plus the data
// pairs that are hot across the EDAC-scrub pass (the conflicts behind
// the baseline's bad layout).
func ControlLayoutWeights(p *prog.Program) layout.Weights {
	w := layout.StaticCallWeights(p)
	// The corrector pass re-reads the influence matrix and filter state
	// right after the scrub streams the whole window through the caches.
	w.Add(spaceapp.SymInfluence, spaceapp.SymScrub, 10)
	w.Add(spaceapp.SymFilterState, spaceapp.SymScrub, 5)
	w.Add(spaceapp.SymOutF, spaceapp.SymScrub, 3)
	// The CRC stages alternate between the frame, the ring and the table.
	w.Add(spaceapp.SymCRCTable, spaceapp.SymTelemetry, 3)
	w.Add(spaceapp.SymCRCTable, spaceapp.SymHistory, 3)
	w.Add(spaceapp.SymTelemetry, spaceapp.SymHistory, 2)
	return w
}

// RunPositioned is the A7 ablation: the cache-aware procedure/data
// positioning of Mezzetti & Vardanega (RTAS'13, the paper's reference
// [12]) — one deterministic layout engineered to avoid the weighted
// conflicts, instead of randomising over all layouts. It typically beats
// DSR's average (no overhead, no bad layouts) but, like any single
// layout, offers no representativeness argument and must be re-derived
// at every integration.
func RunPositioned(cfg Config) (*Series, error) {
	return cfg.runSeries("Positioned", platform.ProximaLEON3(), host.Policy{Place: positionedImage}, ControlTask)
}
