package experiments

import (
	"fmt"

	"dsr/internal/bus"
	"dsr/internal/campaign"
	"dsr/internal/core"
	"dsr/internal/cpu"
	"dsr/internal/layout"
	"dsr/internal/loader"
	"dsr/internal/mem"
	"dsr/internal/platform"
	"dsr/internal/prog"
	"dsr/internal/spaceapp"
	"dsr/internal/telemetry"
)

// Every campaign in this package — the E1-E5 series and their
// ablations, the E8 leakage campaigns and the E9 partitions — runs the
// paper's measurement protocol (§IV-V) on a host: one worker's private
// platform, driven through prepare(i, seed) → run(budget) → check. What
// varies between campaigns is data, not code: the layout policy (how
// the program is placed before every run) and the task (which program,
// its per-run input and its golden model).

// task is the program a host runs: its build, and the per-run input
// drawn from a seed, written into the image's memory, with the result
// word the golden model computes for it.
type task struct {
	name  string
	build func() (*prog.Program, error)
	input func(m *cpu.Memory, img *loader.Image, seed uint64) (golden uint32, err error)
}

// controlTask is the control application under a fresh sensor input
// per run.
var controlTask = task{
	name:  "control",
	build: spaceapp.BuildControl,
	input: func(m *cpu.Memory, img *loader.Image, seed uint64) (uint32, error) {
		in := spaceapp.GenControlInput(seed)
		if err := spaceapp.ApplyControlInput(m, img, in); err != nil {
			return 0, err
		}
		return spaceapp.ControlReference(in), nil
	},
}

// processingTask is the image-processing application under scenes
// drawn at the given lit-lens fraction.
func processingTask(litFrac float64) task {
	return task{
		name:  "processing",
		build: spaceapp.BuildProcessing,
		input: func(m *cpu.Memory, img *loader.Image, seed uint64) (uint32, error) {
			scene := spaceapp.GenScene(seed, litFrac)
			if err := spaceapp.ApplyScene(m, img, scene); err != nil {
				return 0, err
			}
			return spaceapp.ProcessingReference(scene).RMSBits, nil
		},
	}
}

// policy is a campaign's layout step. A fixed image (place set) is
// booted once and restored before every run, with the hardware-
// randomised caches optionally reseeded per run; DSR (dsr set) reboots
// a runtime with the run's seed, optionally under bus contention;
// static randomisation (neither set) builds a fresh image per run.
type policy struct {
	place  func(p *prog.Program, pc platform.Config) (*loader.Image, error)
	reseed bool

	// dsr returns worker-private runtime options (in particular a
	// private PRNG source).
	dsr        func() core.Options
	contention *bus.Contention
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
	fixedLayout  = policy{place: sequentialImage}
	staticLayout = policy{}
)

// defaultDSR is the paper's DSR configuration: eager relocation, every
// randomisation parameter at its platform default.
func defaultDSR() core.Options { return core.Options{} }

// lazyDSR is the A1 ablation's configuration: lazy relocation inside
// the measured window.
func lazyDSR() core.Options { return core.Options{Mode: core.Lazy} }

// host is one worker's platform running one task under one layout
// policy. It is the campaign worker body of every series and the
// rtos.Runner of an E9 partition.
type host struct {
	task task
	pol  policy
	plat *platform.Platform
	prog *prog.Program

	seeds     campaign.Schedule // layout seeds
	busSeeds  campaign.Schedule // contention seeds (DSR under contention)
	inputBase uint64

	img  *loader.Image      // the current run's image
	snap *platform.Snapshot // fixed image: the booted state
	rt   *core.Runtime      // DSR

	// Observation; all nil-safe no-ops when unset.
	wt      *telemetry.WorkerTracer
	capture *telemetry.EventLog

	golden uint32 // the golden result of the prepared run
}

// newHost builds a worker's platform from pc and lays task out under
// pol. Layout seeds come from cfg's root stream and inputs from
// cfg.InputSeedBase; no observation is attached (see Config.observe).
func newHost(cfg Config, pc platform.Config, pol policy, t task) (*host, error) {
	p, err := t.build()
	if err != nil {
		return nil, err
	}
	h := &host{
		task: t, pol: pol, plat: platform.New(pc), prog: p,
		seeds: cfg.schedule(), inputBase: cfg.InputSeedBase,
	}
	switch {
	case pol.place != nil:
		if h.img, err = pol.place(p, pc); err != nil {
			return nil, err
		}
		// Boot once, then fork the booted platform before every run: the
		// copy-on-write restore touches only the pages the previous run
		// dirtied.
		h.plat.LoadImage(h.img)
		h.snap = h.plat.Snapshot()
	case pol.dsr != nil:
		if pol.contention != nil {
			h.plat.Bus.SetContention(*pol.contention)
			h.busSeeds = h.seeds.Split(busStream)
		}
		if h.rt, err = core.NewRuntime(p, h.plat, pol.dsr()); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// seed is run i's layout seed: 0 for a fixed image the run does not
// reseed, the root schedule's seed i otherwise.
func (h *host) seed(i int) uint64 {
	if h.pol.place != nil && !h.pol.reseed {
		return 0
	}
	return h.seeds.Seed(i)
}

// prepare lays run i out with the given layout seed and applies its
// input (drawn from InputSeedBase + i).
func (h *host) prepare(i int, seed uint64) error {
	switch {
	case h.snap != nil:
		boot := h.wt.Begin(telemetry.SpanBoot, -1)
		h.plat.Restore(h.snap)
		if h.pol.reseed {
			// After the restore, so every run's placement hash and
			// replacement stream are the schedule's, as on a fresh boot.
			h.plat.ReseedCaches(seed)
		}
		err := h.input(i)
		h.wt.End(boot)
		return err
	case h.rt != nil:
		// Under contention, reseed before boot too: the relocation pass's
		// bus traffic must draw from run i's contention stream, not from
		// state left by the run this worker executed before. The second
		// reseed restores the measured window's canonical draw sequence.
		if h.pol.contention != nil {
			h.plat.Bus.ReseedContention(h.busSeeds.Seed(i))
		}
		if _, err := h.rt.Reboot(seed); err != nil {
			return err
		}
		if h.pol.contention != nil {
			h.plat.Bus.ReseedContention(h.busSeeds.Seed(i))
		}
		h.img = h.rt.Image()
		return h.input(i)
	}
	// Static randomisation pays its cost at build time: the fresh
	// per-run image build is the relocation phase here.
	reloc := h.wt.Begin(telemetry.SpanReloc, -1)
	img, err := core.StaticBuild(h.prog, loader.DefaultSequentialConfig(), h.plat.Cfg.L2.WaySize(), seed)
	h.wt.End(reloc)
	if err != nil {
		return err
	}
	boot := h.wt.Begin(telemetry.SpanBoot, -1)
	h.img = img
	h.plat.LoadImage(img)
	h.plat.Reload()
	err = h.input(i)
	h.wt.End(boot)
	return err
}

// input draws and applies run i's input and keeps its golden result.
func (h *host) input(i int) (err error) {
	h.golden, err = h.task.input(h.plat.Mem, h.img, h.inputBase+uint64(i))
	return err
}

// run executes the prepared run under budget and, when it completed,
// checks it against the golden model: layout randomisation must never
// change functional results.
func (h *host) run(budget mem.Cycles) (platform.RunResult, bool, error) {
	exec := h.wt.Begin(telemetry.SpanExecute, -1)
	res, done, err := h.plat.RunBudget(budget)
	h.wt.End(exec)
	if err != nil || !done {
		return res, done, err
	}
	if res.ExitValue != h.golden {
		return res, done, fmt.Errorf("experiments: %s mismatch: got %#x, golden %#x", h.task.name, res.ExitValue, h.golden)
	}
	return res, done, nil
}

// Name implements rtos.Runner.
func (h *host) Name() string { return h.task.name }

// Activate implements rtos.Runner: the partition reboot (a fresh
// layout under DSR, a restore otherwise) and the activation's input.
func (h *host) Activate(act uint64) error { return h.prepare(int(act), h.seed(int(act))) }

// Execute implements rtos.Runner: the activation's run within its
// window budget, checked against the golden model when it completes.
func (h *host) Execute(budget mem.Cycles) (platform.RunResult, bool, error) { return h.run(budget) }
