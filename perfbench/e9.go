package main

import (
	"fmt"
	"time"

	"dsr/internal/analysis/schedfeas"
	"dsr/internal/campaign"
	"dsr/internal/core"
	"dsr/internal/experiments"
	"dsr/internal/loader"
	"dsr/internal/mem"
	"dsr/internal/platform"
	"dsr/internal/rtos"
	"dsr/internal/rvs"
	"dsr/internal/spaceapp"
)

// e9 is the schedule x layout randomisation grid: the four E9 cells,
// each e9Frames certified major frames of 11 partition runs (one
// control, ten processing).
//
// Untraced, an iteration calls experiments.RunE9Cell per cell. That
// reports only the control task's observables, so after the timed
// iterations simulate runs the benchmark's own copy of the cell once,
// untimed, to count the simulated cycles and partition runs; its hash
// must equal the RunE9Cell one. Traced, iterations run that copy with
// a span around every layer call.
type e9 struct {
	env *env
}

// e9Frames is the frame count per cell, cut from dsrsim's 250 so that
// an iteration takes seconds.
const e9Frames = 8

// e9SchedStream mirrors the Split stream experiments.RunE9Cell draws
// the per-frame schedule seeds from.
const e9SchedStream = 2

func (e *e9) config() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Runs = e9Frames
	cfg.SeedBase = e.env.seed
	cfg.InputSeedBase = inputSeedBase(e.env.seed)
	cfg.Workers = e.env.workers
	return cfg
}

// setup certifies every cell's policy and builds each worker's two
// partitions and executive, as one grid of RunE9Cell calls does.
func (e *e9) setup() (time.Duration, error) { return timed(e.build) }

func (e *e9) build() error {
	cfg := e.config()
	for _, cell := range experiments.E9Cells() {
		static, err := certify(cell)
		if err != nil {
			return err
		}
		for w := 0; w < cfg.Workers; w++ {
			if _, err := newE9Executive(nil, cfg, cell, static); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *e9) close() {}

func (e *e9) iterate(main *track) (iteration, error) {
	if main == nil {
		cfg := e.config()
		it := iteration{ops: 11 * cfg.Runs * len(experiments.E9Cells())}
		h := newHasher()
		for _, cell := range experiments.E9Cells() {
			s, err := experiments.RunE9Cell(cfg, cell)
			if err != nil {
				it.failed = it.ops
				return it, err
			}
			hashE9(h, s)
			it.sim.Overruns += s.Overruns
		}
		it.hash = h.sum()
		return it, nil
	}
	return e.own(main)
}

// simulate runs the benchmark's copy of the grid once without spans.
func (e *e9) simulate() (iteration, error) { return e.own(nil) }

// hashE9 adds one cell's row of the E9 table and its per-frame control
// observables.
func hashE9(h *hasher, s *experiments.E9Series) {
	h.str(s.Cell.Name())
	h.str(s.Static.Policy.String())
	h.f64(s.Static.EntropyBits)
	for f := range s.ControlCycles {
		h.f64(s.ControlCycles[f])
		h.u64(uint64(s.ControlOffsets[f]))
	}
	h.u64(uint64(s.Overruns))
	h.u64(uint64(s.DistinctControlOffsets()))
	h.f64(s.MeasuredControlGE())
	if err := s.OffsetsWithinSupport(); err != nil {
		h.str(err.Error())
	}
}

// e9Shard is one frame's outcome before the canonical merge.
type e9Shard struct {
	cycles float64
	offset int
	sim    simCounts
}

// own runs the grid through the benchmark's copy of RunE9Cell.
func (e *e9) own(main *track) (iteration, error) {
	cfg := e.config()
	it := iteration{ops: 11 * cfg.Runs * len(experiments.E9Cells())}
	h := newHasher()
	for _, cell := range experiments.E9Cells() {
		sp := main.begin("schedfeas.analyze")
		static, err := certify(cell)
		main.end(sp)
		if err != nil {
			it.failed = it.ops
			return it, err
		}
		s := &experiments.E9Series{
			Cell:           cell,
			Static:         static,
			ControlCycles:  make([]float64, cfg.Runs),
			ControlOffsets: make([]int, cfg.Runs),
		}
		newWorker := func(w int) (campaign.RunFunc[e9Shard], error) {
			t := main.fork()
			setup := t.begin("campaign.setup")
			ex, err := newE9Executive(t, cfg, cell, static)
			t.end(setup)
			if err != nil {
				return nil, err
			}
			return func(i int) (e9Shard, error) {
				run := t.begin("campaign.run")
				defer t.end(run)
				sp := t.begin("rtos.frame")
				acts, err := ex.RunFrame(i)
				t.end(sp)
				if err != nil {
					return e9Shard{}, err
				}
				var sh e9Shard
				for _, a := range acts {
					sh.sim.add(a.Result)
					if a.Overrun() {
						sh.sim.Overruns++
					}
					if a.Partition == "control" {
						sh.cycles = float64(a.Result.Cycles)
						if ds := rvs.Durations(a.Result.Trace, 1, 2); len(ds) > 0 {
							sh.cycles = float64(ds[0])
						}
						sh.offset = a.OffsetMillis
					}
				}
				return sh, nil
			}, nil
		}
		merge := func(i int, sh e9Shard) error {
			m := main.begin("campaign.merge")
			s.ControlCycles[i] = sh.cycles
			s.ControlOffsets[i] = sh.offset
			s.Overruns += sh.sim.Overruns
			it.sim.merge(sh.sim)
			main.end(m)
			return nil
		}
		ex := main.begin("campaign.execute")
		err = campaign.Execute(campaign.Config{Runs: cfg.Runs, Workers: cfg.Workers}, newWorker, merge)
		main.end(ex)
		if err != nil {
			it.failed = it.ops
			return it, err
		}
		hashE9(h, s)
	}
	it.hash = h.sum()
	return it, nil
}

// certify runs the feasibility analysis of one cell's policy.
func certify(cell experiments.E9Cell) (*schedfeas.Report, error) {
	static := schedfeas.Analyze(experiments.CaseStudySchedSpec(), experiments.CaseStudySchedPolicy(cell.SchedRand), schedfeas.Config{})
	if static.Cert == nil {
		return nil, fmt.Errorf("e9 cell %s not certifiable: %v", cell.Name(), static.Violations)
	}
	return static, nil
}

// newE9Executive builds one worker's control and processing
// partitions and the certified executive over them, with the seeds
// RunE9Cell derives: layout seeds from the campaign's root stream,
// schedule seeds from stream e9SchedStream at the cell's grid index.
func newE9Executive(t *track, cfg experiments.Config, cell experiments.E9Cell, static *schedfeas.Report) (*rtos.RandomizedExecutive, error) {
	sched := campaign.NewSchedule(cfg.SeedBase)
	index := 0
	if cell.LayoutRand {
		index |= 1
	}
	if cell.SchedRand {
		index |= 2
	}
	ctrl, err := newE9Runner(t, true, cell.LayoutRand, sched, cfg.InputSeedBase)
	if err != nil {
		return nil, err
	}
	proc, err := newE9Runner(t, false, false, sched, cfg.InputSeedBase)
	if err != nil {
		return nil, err
	}
	parts := []*rtos.Partition{
		{Name: "control", Criticality: rtos.HighCriticality, Runner: ctrl, PeriodMillis: 1000},
		{Name: "processing", Criticality: rtos.LowCriticality, Runner: proc, PeriodMillis: 100},
	}
	return rtos.NewRandomizedExecutive(rtos.DefaultConfig(), parts, static.Cert, sched.Split(e9SchedStream).Seed(index))
}

// e9Runner hosts one partition as RunE9Cell's runner does: a DSR
// reboot or a snapshot restore per activation, the activation's input,
// and a golden-model check of every completed run.
type e9Runner struct {
	t       *track
	name    string
	control bool
	plat    *platform.Platform
	img     *loader.Image
	snap    *platform.Snapshot
	rt      *core.Runtime
	seeds   campaign.Schedule

	inputBase uint64
	lastIn    *spaceapp.ControlInput
	lastScene *spaceapp.Scene
}

func newE9Runner(t *track, control, dsr bool, seeds campaign.Schedule, inputBase uint64) (*e9Runner, error) {
	r := &e9Runner{t: t, name: "processing", control: control, seeds: seeds, inputBase: inputBase}
	build := spaceapp.BuildProcessing
	if control {
		r.name, build = "control", spaceapp.BuildControl
	}
	sp := t.begin("spaceapp.build")
	p, err := build()
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin("platform.new")
	r.plat = platform.New(platform.ProximaLEON3())
	if !dsr {
		r.img, err = loader.Load(p, loader.DefaultSequentialConfig())
		if err == nil {
			r.plat.LoadImage(r.img)
			r.snap = r.plat.Snapshot()
		}
	}
	t.end(sp)
	if err != nil || !dsr {
		return r, err
	}
	sp = t.begin("core.new_runtime")
	r.rt, err = core.NewRuntime(p, r.plat, core.Options{})
	t.end(sp)
	return r, err
}

func (r *e9Runner) Name() string { return r.name }

func (r *e9Runner) Activate(act uint64) error {
	t := r.t
	img := r.img
	if r.rt != nil {
		sp := t.begin("core.reboot")
		_, err := r.rt.Reboot(r.seeds.Seed(int(act)))
		t.end(sp)
		if err != nil {
			return err
		}
		img = r.rt.Image()
	} else {
		sp := t.begin("platform.restore")
		r.plat.Restore(r.snap)
		t.end(sp)
	}
	var err error
	if r.control {
		sp := t.begin("spaceapp.gen")
		r.lastIn = spaceapp.GenControlInput(r.inputBase + act)
		t.end(sp)
		sp = t.begin("spaceapp.apply")
		err = spaceapp.ApplyControlInput(r.plat.Mem, img, r.lastIn)
		t.end(sp)
	} else {
		sp := t.begin("spaceapp.gen")
		r.lastScene = spaceapp.GenScene(r.inputBase+act, spaceapp.LitFraction)
		t.end(sp)
		sp = t.begin("spaceapp.apply")
		err = spaceapp.ApplyScene(r.plat.Mem, img, r.lastScene)
		t.end(sp)
	}
	return err
}

func (r *e9Runner) Execute(budget mem.Cycles) (platform.RunResult, bool, error) {
	t := r.t
	var (
		res  platform.RunResult
		done bool
		err  error
	)
	sp := t.begin("platform.run")
	if r.rt != nil {
		res, done, err = r.rt.RunBudget(budget)
	} else {
		res, done, err = r.plat.RunBudget(budget)
	}
	t.end(sp)
	if err != nil || !done {
		return res, done, err
	}
	sp = t.begin("spaceapp.reference")
	var want uint32
	if r.control {
		want = spaceapp.ControlReference(r.lastIn)
	} else {
		want = spaceapp.ProcessingReference(r.lastScene).RMSBits
	}
	t.end(sp)
	if res.ExitValue != want {
		return res, done, fmt.Errorf("%s: functional mismatch: got %#x, golden %#x", r.name, res.ExitValue, want)
	}
	return res, done, nil
}
