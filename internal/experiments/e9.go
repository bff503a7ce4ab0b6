package experiments

import (
	"fmt"
	"strings"

	"dsr/internal/analysis/schedfeas"
	"dsr/internal/campaign"
	"dsr/internal/core"
	"dsr/internal/loader"
	"dsr/internal/mbpta"
	"dsr/internal/mem"
	"dsr/internal/platform"
	"dsr/internal/rtos"
	"dsr/internal/spaceapp"
)

// E9 — schedule randomisation x layout randomisation. DSR randomises
// *where code and data live*; the randomized cyclic executive
// (internal/rtos.RandomizedExecutive, certified by
// internal/analysis/schedfeas) randomises *when partitions run*
// (TaskShuffler++-style schedule randomisation on a time-partitioned
// executive). E9 runs the 2x2 grid over the paper's two-partition
// frame and asks, per cell:
//
//   - feasibility soundness: every drawn major-frame schedule is a
//     member of the statically enumerated feasible set (the executive's
//     runtime membership guard never fires) and no partition overruns
//     its window — the CI gate TestSchedFeasSound scales this up;
//   - timing analysability: the control task's per-frame execution
//     times pass the MBPTA i.i.d. gate and yield a pWCET estimate on
//     the layout-randomised cells (schedule randomisation must not
//     break the probabilistic timing argument);
//   - inference resistance: how hard it is for an adversary observing
//     control-window arrivals to predict the next one — measured
//     guessing entropy of the arrival offset against the analyzer's
//     static guessing-entropy bound (the TaskShuffler++ metric).
//
// The layout axis applies DSR to the control partition (the unit of
// analysis); the processing partition keeps a fixed image in every
// cell so the only things moving across the grid are the two
// randomisation axes under study.

// e9SchedStream is the Split stream of the per-frame schedule-draw
// seeds (busStream = 1 is taken by the contention experiments). Layout
// seeds deliberately use the campaign's root stream: activation f of
// the control task reboots with the same layout seed run f of the
// RunDSR campaign uses, so the Layout Rand cell reproduces the E2/E3
// series and inherits its i.i.d. behaviour.
const e9SchedStream = 2

// CaseStudySchedSpec is the schedulability model of the paper's frame
// (§IV) as a schedfeas spec: a 1 s major frame on the 80 MHz LEON3,
// the high-criticality control task once per frame in a 30 ms window
// (nominal offset 60 ms, free to move anywhere in the frame) and the
// low-criticality image-processing task every 100 ms in a 60 ms
// window, allowed to jitter up to 40 ms past its nominal release. The
// control WCET budget is the E3 pWCET estimate at 10^-15. The same
// spec backs the E9 grid, the CI soundness gate and cmd/dsrsched's
// -builtin casestudy.
func CaseStudySchedSpec() *schedfeas.Spec {
	return &schedfeas.Spec{
		FrameMillis:    1000,
		CyclesPerMilli: 80_000,
		Tasks: []schedfeas.Task{
			{Name: "control", PeriodMillis: 1000, BudgetMillis: 30, PhaseMillis: 60,
				WCETCycles: 280_279, Criticality: 1, JitterMillis: -1},
			{Name: "processing", PeriodMillis: 100, BudgetMillis: 60, PhaseMillis: 0,
				WCETCycles: 1_900_000, Criticality: 0, JitterMillis: 40},
		},
	}
}

// CaseStudySchedPolicy returns the randomizer policy of one E9 grid
// column: the deterministic executive (nominal offsets, zero entropy)
// or the full randomizer (segment choice, order permutation, 40 ms
// slot jitter).
func CaseStudySchedPolicy(rand bool) schedfeas.Policy {
	if !rand {
		return schedfeas.Policy{}
	}
	return schedfeas.Policy{SegmentChoice: true, PermuteOrder: true, SlotJitterMillis: 40}
}

// E9Cell is one cell of the randomisation grid.
type E9Cell struct {
	LayoutRand bool // DSR reboot of the control partition per activation
	SchedRand  bool // randomized (vs nominal) major-frame schedules
}

// Name is the cell's row label.
func (c E9Cell) Name() string {
	switch {
	case c.LayoutRand && c.SchedRand:
		return "Layout+Sched"
	case c.LayoutRand:
		return "Layout Rand"
	case c.SchedRand:
		return "Sched Rand"
	}
	return "No Rand"
}

// index is the cell's stable position in the grid (seed derivation).
func (c E9Cell) index() int {
	i := 0
	if c.LayoutRand {
		i |= 1
	}
	if c.SchedRand {
		i |= 2
	}
	return i
}

// E9Cells is the grid in canonical (row) order.
func E9Cells() []E9Cell {
	return []E9Cell{
		{LayoutRand: false, SchedRand: false},
		{LayoutRand: true, SchedRand: false},
		{LayoutRand: false, SchedRand: true},
		{LayoutRand: true, SchedRand: true},
	}
}

// E9Series is one cell's campaign: Config.Runs major frames through a
// certified executive, with the control task's observables per frame.
type E9Series struct {
	Cell E9Cell
	// Static is the feasibility analysis the cell's executive was
	// certified against (Static.Cert is the certificate).
	Static *schedfeas.Report
	// ControlCycles[f] is frame f's control execution time (the MBPTA
	// unit of analysis); ControlOffsets[f] is the control window's
	// drawn start offset within the frame — the adversary-visible
	// arrival observable.
	ControlCycles  []float64
	ControlOffsets []int
	// Overruns counts window overruns across every partition and frame
	// (temporal-isolation cutoffs; a certified campaign must have none).
	Overruns int
}

// controlReport returns the analyzer's static per-task report for the
// control task.
func (s *E9Series) controlReport() schedfeas.TaskReport {
	for _, tr := range s.Static.Tasks {
		if tr.Task == "control" {
			return tr
		}
	}
	return schedfeas.TaskReport{}
}

// DistinctControlOffsets counts the distinct arrival offsets actually
// observed — soundness demands it never exceed the static count.
func (s *E9Series) DistinctControlOffsets() int {
	seen := map[int]bool{}
	for _, o := range s.ControlOffsets {
		seen[o] = true
	}
	return len(seen)
}

// MeasuredControlGE is the empirical guessing entropy of the control
// arrival offset: the expected number of guesses an adversary needs to
// hit the observed offset when guessing best-first from the campaign's
// own histogram. 1 means the arrival is fully predictable.
func (s *E9Series) MeasuredControlGE() float64 {
	if len(s.ControlOffsets) == 0 {
		return 0
	}
	counts := map[int]int{}
	for _, o := range s.ControlOffsets {
		counts[o]++
	}
	// Sort descending by count (insertion sort over the small histogram).
	var freq []int
	for _, c := range counts {
		freq = append(freq, c)
	}
	for i := 1; i < len(freq); i++ {
		for j := i; j > 0 && freq[j] > freq[j-1]; j-- {
			freq[j], freq[j-1] = freq[j-1], freq[j]
		}
	}
	n := float64(len(s.ControlOffsets))
	ge := 0.0
	for i, c := range freq {
		ge += float64(i+1) * float64(c) / n
	}
	return ge
}

// OffsetsWithinSupport checks every observed control arrival against
// the certificate's support intervals for the control task.
func (s *E9Series) OffsetsWithinSupport() error {
	cert := s.Static.Cert
	for f, off := range s.ControlOffsets {
		ok := false
		for _, iv := range cert.Support {
			if iv.Task == "control" && iv.Activation == 0 &&
				off >= iv.LoMillis && off <= iv.HiMillis {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("frame %d: control arrival %dms outside certified support", f, off)
		}
	}
	return nil
}

// e9Runner hosts one E9 partition: it applies the activation's input
// vector on Activate (after the layout reboot, when the cell
// randomises layouts) and verifies the functional result on Execute —
// randomisation on either axis must never change what the software
// computes.
type e9Runner struct {
	name string
	plat *platform.Platform
	// Fixed-layout hosting: image + booted snapshot, restored per run.
	img  *loader.Image
	snap *platform.Snapshot
	// DSR hosting: runtime rebooted per activation with a schedule seed.
	rt    *core.Runtime
	seeds campaign.Schedule
	// Input generation.
	inputBase uint64
	control   bool
	lastIn    *spaceapp.ControlInput
	lastScene *spaceapp.Scene
}

func (r *e9Runner) Name() string { return r.name }

func (r *e9Runner) image() *loader.Image {
	if r.rt != nil {
		return r.rt.Image()
	}
	return r.img
}

// Activate implements rtos.Runner: partition reboot (fresh layout draw
// under DSR, memory restore otherwise), then the activation's input.
func (r *e9Runner) Activate(act uint64) error {
	if r.rt != nil {
		if _, err := r.rt.Reboot(r.seeds.Seed(int(act))); err != nil {
			return err
		}
	} else {
		r.plat.Restore(r.snap)
	}
	if r.control {
		r.lastIn = spaceapp.GenControlInput(r.inputBase + act)
		return spaceapp.ApplyControlInput(r.plat.Mem, r.image(), r.lastIn)
	}
	r.lastScene = spaceapp.GenScene(r.inputBase+act, spaceapp.LitFraction)
	return spaceapp.ApplyScene(r.plat.Mem, r.image(), r.lastScene)
}

// Execute implements rtos.Runner and verifies the run against the
// golden model before reporting it.
func (r *e9Runner) Execute(budget mem.Cycles) (platform.RunResult, bool, error) {
	var (
		res  platform.RunResult
		done bool
		err  error
	)
	if r.rt != nil {
		res, done, err = r.rt.RunBudget(budget)
	} else {
		res, done, err = r.plat.RunBudget(budget)
	}
	if err != nil || !done {
		return res, done, err
	}
	if r.control {
		if err := verify(res, r.lastIn); err != nil {
			return res, done, err
		}
	} else if want := spaceapp.ProcessingReference(r.lastScene).RMSBits; res.ExitValue != want {
		return res, done, fmt.Errorf("experiments: processing mismatch: %#x vs %#x", res.ExitValue, want)
	}
	return res, done, nil
}

// newE9Control builds the cell's control-partition runner.
func newE9Control(cell E9Cell, layoutSeeds campaign.Schedule, inputBase uint64) (*e9Runner, error) {
	p, err := spaceapp.BuildControl()
	if err != nil {
		return nil, err
	}
	plat := platform.New(platform.ProximaLEON3())
	r := &e9Runner{name: "control", plat: plat, inputBase: inputBase, control: true}
	if cell.LayoutRand {
		rt, err := core.NewRuntime(p, plat, core.Options{})
		if err != nil {
			return nil, err
		}
		r.rt, r.seeds = rt, layoutSeeds
		return r, nil
	}
	img, err := loader.Load(p, loader.DefaultSequentialConfig())
	if err != nil {
		return nil, err
	}
	plat.LoadImage(img)
	r.img, r.snap = img, plat.Snapshot()
	return r, nil
}

// newE9Processing builds the fixed-image processing runner every cell
// shares.
func newE9Processing(inputBase uint64) (*e9Runner, error) {
	p, err := spaceapp.BuildProcessing()
	if err != nil {
		return nil, err
	}
	plat := platform.New(platform.ProximaLEON3())
	img, err := loader.Load(p, loader.DefaultSequentialConfig())
	if err != nil {
		return nil, err
	}
	plat.LoadImage(img)
	return &e9Runner{
		name: "processing", plat: plat, img: img, snap: plat.Snapshot(),
		inputBase: inputBase,
	}, nil
}

// e9Shard is one frame's outcome before the canonical merge.
type e9Shard struct {
	cycles   float64
	offset   int
	overruns int
}

// RunE9Cell runs one grid cell: Config.Runs certified major frames
// through the campaign engine, each frame a pure function of its index
// (schedule draw, layout seeds and inputs all schedule-derived), so
// the cell is byte-identical at every worker count.
func RunE9Cell(cfg Config, cell E9Cell) (*E9Series, error) {
	spec := CaseStudySchedSpec()
	policy := CaseStudySchedPolicy(cell.SchedRand)
	static := schedfeas.Analyze(spec, policy, schedfeas.Config{})
	if static.Cert == nil {
		return nil, fmt.Errorf("experiments: policy %s not certifiable: %v", policy, static.Violations)
	}
	s := &E9Series{
		Cell:           cell,
		Static:         static,
		ControlCycles:  make([]float64, cfg.Runs),
		ControlOffsets: make([]int, cfg.Runs),
	}

	sched := cfg.schedule()
	schedSeedBase := sched.Split(e9SchedStream).Seed(cell.index())
	layoutSeeds := sched

	newWorker := func(w int) (campaign.RunFunc[e9Shard], error) {
		ctrl, err := newE9Control(cell, layoutSeeds, cfg.InputSeedBase)
		if err != nil {
			return nil, err
		}
		proc, err := newE9Processing(cfg.InputSeedBase)
		if err != nil {
			return nil, err
		}
		parts := []*rtos.Partition{
			{Name: "control", Criticality: rtos.HighCriticality, Runner: ctrl, PeriodMillis: 1000},
			{Name: "processing", Criticality: rtos.LowCriticality, Runner: proc, PeriodMillis: 100},
		}
		ex, err := rtos.NewRandomizedExecutive(rtos.DefaultConfig(), parts, static.Cert, schedSeedBase)
		if err != nil {
			return nil, err
		}
		return func(i int) (e9Shard, error) {
			acts, err := ex.RunFrame(i)
			if err != nil {
				return e9Shard{}, err
			}
			sh := e9Shard{}
			for _, a := range acts {
				if a.Overrun() {
					sh.overruns++
				}
				if a.Partition == "control" {
					sh.cycles = uoaCycles(a.Result)
					sh.offset = a.OffsetMillis
				}
			}
			return sh, nil
		}, nil
	}

	ecfg := campaign.Config{Runs: cfg.Runs, Workers: cfg.Workers, Interrupt: cfg.Interrupt}
	err := campaign.Execute(ecfg, newWorker, func(i int, sh e9Shard) error {
		s.ControlCycles[i] = sh.cycles
		s.ControlOffsets[i] = sh.offset
		s.Overruns += sh.overruns
		if cfg.Progress != nil {
			cfg.Progress(cell.Name(), i+1, cfg.Runs)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// E9Row is one cell's line in the E9 table.
type E9Row struct {
	Cell   string
	Policy string
	Frames int
	// Static schedule entropy of the cell's randomizer (bits per frame).
	ScheduleBits float64
	// Arrival-inference resistance: observed vs statically enumerated
	// distinct control arrivals, and empirical vs static guessing
	// entropy.
	MeasuredOffsets, StaticOffsets int
	MeasuredGE, StaticGE           float64
	// Feasibility outcome.
	Overruns int
	// Timing side: control MOET, i.i.d. gate, pWCET when estimable.
	MOET  float64
	IID   *mbpta.IIDReport // nil when the campaign is too short to test
	PWCET float64          // 0 when the campaign is too short for a tail fit
}

// E9Report is the experiment outcome: the grid and three verdicts.
type E9Report struct {
	Rows []E9Row
	// Sound: zero overruns everywhere and every observed control
	// arrival inside the certified support with no more distinct
	// arrivals than statically enumerated.
	Sound bool
	// TimingAnalysable: the layout-randomised cells pass the i.i.d.
	// gate (when the campaign is long enough to run it) and every
	// control observation sits below the spec's WCET budget.
	TimingAnalysable bool
	// InferenceResistant: deterministic schedules are fully predictable
	// (guessing entropy 1) while randomized schedules force the
	// adversary to guess (measured GE > 1 in the sched-rand cells).
	InferenceResistant bool
	// Verdict details for the report.
	SoundDetail, TimingDetail, InferenceDetail string
}

// RunE9 runs the four grid cells and renders the verdicts.
func RunE9(cfg Config) (*E9Report, error) {
	rep := &E9Report{Sound: true, TimingAnalysable: true, InferenceResistant: true}
	var sound, timing, inference []string
	spec := CaseStudySchedSpec()
	var wcetBudget float64
	for _, t := range spec.Tasks {
		if t.Name == "control" {
			wcetBudget = t.WCETCycles
		}
	}

	for _, cell := range E9Cells() {
		s, err := RunE9Cell(cfg, cell)
		if err != nil {
			return nil, err
		}
		ctrl := s.controlReport()
		row := E9Row{
			Cell:            cell.Name(),
			Policy:          s.Static.Policy.String(),
			Frames:          len(s.ControlCycles),
			ScheduleBits:    s.Static.EntropyBits,
			MeasuredOffsets: s.DistinctControlOffsets(),
			StaticOffsets:   ctrl.DistinctOffsets,
			MeasuredGE:      s.MeasuredControlGE(),
			StaticGE:        ctrl.GuessingEntropy,
			Overruns:        s.Overruns,
		}
		for _, c := range s.ControlCycles {
			if c > row.MOET {
				row.MOET = c
			}
		}

		// Feasibility soundness: the executive's membership guard plus
		// the campaign-level arrival checks.
		if s.Overruns != 0 {
			rep.Sound = false
			sound = append(sound, fmt.Sprintf("%s: %d overruns", row.Cell, s.Overruns))
		}
		if err := s.OffsetsWithinSupport(); err != nil {
			rep.Sound = false
			sound = append(sound, fmt.Sprintf("%s: %v", row.Cell, err))
		}
		if row.MeasuredOffsets > row.StaticOffsets {
			rep.Sound = false
			sound = append(sound, fmt.Sprintf("%s: %d observed arrivals > %d enumerated",
				row.Cell, row.MeasuredOffsets, row.StaticOffsets))
		}

		// Timing analysability on the layout-randomised cells.
		if row.MOET > wcetBudget {
			rep.TimingAnalysable = false
			timing = append(timing, fmt.Sprintf("%s: control MOET %.0f > WCET budget %.0f",
				row.Cell, row.MOET, wcetBudget))
		}
		if iid, err := mbpta.CheckIID(s.ControlCycles, cfg.MBPTA); err == nil {
			row.IID = &iid
			if cell.LayoutRand && !iid.Pass() {
				rep.TimingAnalysable = false
				timing = append(timing, fmt.Sprintf("%s: i.i.d. rejected (LB p=%.4f, KS p=%.4f)",
					row.Cell, iid.LjungBox.PValue, iid.KS.PValue))
			}
		}
		if cell.LayoutRand {
			if m, err := mbpta.Analyse(s.ControlCycles, cfg.MBPTA); err == nil {
				row.PWCET = m.PWCET
			}
		}

		// Inference resistance.
		if cell.SchedRand {
			if row.MeasuredGE <= 1 || row.MeasuredOffsets < 2 {
				rep.InferenceResistant = false
				inference = append(inference, fmt.Sprintf("%s: arrivals predictable (GE %.2f over %d offsets)",
					row.Cell, row.MeasuredGE, row.MeasuredOffsets))
			}
		} else if row.MeasuredOffsets != 1 {
			rep.InferenceResistant = false
			inference = append(inference, fmt.Sprintf("%s: deterministic schedule drew %d distinct arrivals",
				row.Cell, row.MeasuredOffsets))
		}
		rep.Rows = append(rep.Rows, row)
	}

	rep.SoundDetail = "every drawn schedule inside the certified feasible set, zero overruns"
	if !rep.Sound {
		rep.SoundDetail = strings.Join(sound, "; ")
	}
	rep.TimingDetail = "control observations below the WCET budget; layout-randomised cells pass the i.i.d. gate"
	if !rep.TimingAnalysable {
		rep.TimingDetail = strings.Join(timing, "; ")
	}
	det, both := rep.Rows[0], rep.Rows[3]
	rep.InferenceDetail = fmt.Sprintf("guessing entropy %.1f -> %.1f (static bound %.1f, %.1f bits of schedule entropy per frame)",
		det.MeasuredGE, both.MeasuredGE, both.StaticGE, both.ScheduleBits)
	if !rep.InferenceResistant {
		rep.InferenceDetail = strings.Join(inference, "; ")
	}
	return rep, nil
}

// FormatE9 renders the E9 grid and verdicts as text.
func FormatE9(r *E9Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E9: SCHEDULE RANDOMISATION x LAYOUT RANDOMISATION\n")
	fmt.Fprintf(&b, "%-14s %-24s %10s %18s %20s %9s %12s %6s %12s\n",
		"", "policy", "sched bits", "arrivals (obs/st)", "guess entr (obs/st)", "overruns", "ctrl MOET", "iid", "pWCET")
	for _, row := range r.Rows {
		iid := "n/a"
		if row.IID != nil {
			iid = "FAIL"
			if row.IID.Pass() {
				iid = "pass"
			}
		}
		pwcet := "-"
		if row.PWCET > 0 {
			pwcet = fmt.Sprintf("%.0f", row.PWCET)
		}
		fmt.Fprintf(&b, "%-14s %-24s %10.1f %11d / %-4d %13.1f / %-4.1f %9d %12.0f %6s %12s\n",
			row.Cell, row.Policy, row.ScheduleBits,
			row.MeasuredOffsets, row.StaticOffsets,
			row.MeasuredGE, row.StaticGE,
			row.Overruns, row.MOET, iid, pwcet)
	}
	verdict := func(ok bool) string {
		if ok {
			return "PASS"
		}
		return "FAIL"
	}
	fmt.Fprintf(&b, "verdict schedule soundness:    %s — %s\n", verdict(r.Sound), r.SoundDetail)
	fmt.Fprintf(&b, "verdict timing analysability:  %s — %s\n", verdict(r.TimingAnalysable), r.TimingDetail)
	fmt.Fprintf(&b, "verdict inference resistance:  %s — %s\n", verdict(r.InferenceResistant), r.InferenceDetail)
	return b.String()
}
