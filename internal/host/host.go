// Package host runs the paper's measurement protocol (§IV-V) on one
// worker's private platform, driven through Prepare(i, seed) →
// Run(budget) → check. Every campaign run in the repository — the
// evaluation series, the E8 leakage campaigns and the E9 partitions of
// internal/experiments, a dsrserve job's runs and pwcet -gen — runs on
// a Host. What varies between them is data, not code: the layout
// Policy (how the program is placed before every run) and the Task
// (which program, its per-run input and its golden model).
package host

import (
	"fmt"

	"dsr/internal/bus"
	"dsr/internal/campaign"
	"dsr/internal/core"
	"dsr/internal/cpu"
	"dsr/internal/loader"
	"dsr/internal/mem"
	"dsr/internal/platform"
	"dsr/internal/prog"
	"dsr/internal/telemetry"
)

// Task is the program a host runs: its build, and the per-run input
// drawn from a seed, written into the image's memory, with the result
// word the golden model computes for it. A nil Input means no input
// and no check: the run's exit word is not compared with anything.
type Task struct {
	Name  string
	Build func() (*prog.Program, error)
	Input func(m *cpu.Memory, img *loader.Image, seed uint64) (golden uint32, err error)
}

// Policy is a campaign's layout step. A fixed image (Place set) is
// booted once and restored before every run, with the hardware-
// randomised caches optionally reseeded per run; DSR (DSR set) reboots
// a runtime with the run's seed, optionally under bus contention;
// static randomisation (neither set) builds a fresh image per run.
type Policy struct {
	Place  func(p *prog.Program, pc platform.Config) (*loader.Image, error)
	Reseed bool

	// DSR returns worker-private runtime options (in particular a
	// private PRNG source).
	DSR        func() core.Options
	Contention *bus.Contention
}

// DSR is the paper's DSR policy: eager relocation, every randomisation
// parameter at its platform default.
var DSR = Policy{DSR: func() core.Options { return core.Options{} }}

// busStream is the Split stream index of the bus-contention seed
// schedule (kept distinct from the layout stream).
const busStream = 1

// Host is one worker's platform running one task under one layout
// policy. It is a campaign worker body and an rtos.Runner.
type Host struct {
	task Task
	pol  Policy
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

// New builds a worker's platform from pc and lays t out under pol.
// Run i's layout seed is seed i of the campaign schedule of seedBase
// (see Seed) and its input is drawn from inputBase + i; no observation
// is attached (see Observe).
func New(pc platform.Config, pol Policy, t Task, seedBase, inputBase uint64) (*Host, error) {
	p, err := t.Build()
	if err != nil {
		return nil, err
	}
	h := &Host{
		task: t, pol: pol, plat: platform.New(pc), prog: p,
		seeds: campaign.NewSchedule(seedBase), inputBase: inputBase,
	}
	switch {
	case pol.Place != nil:
		if h.img, err = pol.Place(p, pc); err != nil {
			return nil, err
		}
		// Boot once, then fork the booted platform before every run: the
		// copy-on-write restore touches only the pages the previous run
		// dirtied.
		h.plat.LoadImage(h.img)
		h.snap = h.plat.Snapshot()
	case pol.DSR != nil:
		if pol.Contention != nil {
			h.plat.Bus.SetContention(*pol.Contention)
			h.busSeeds = h.seeds.Split(busStream)
		}
		if h.rt, err = core.NewRuntime(p, h.plat, pol.DSR()); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// Observe attaches a campaign's observability: cycle attribution on
// the platform, worker span track wt and, on a DSR runtime when
// capture is set, a private log of the runtime's events (see Events).
func (h *Host) Observe(attribution bool, wt *telemetry.WorkerTracer, capture bool) {
	if attribution {
		h.plat.EnableAttribution()
	}
	h.wt = wt
	if h.rt != nil {
		h.rt.SetTracer(wt)
		if capture {
			h.capture = telemetry.NewCaptureLog()
			h.rt.SetEventLog(h.capture)
		}
	}
}

// Events returns and clears the runtime events captured since the last
// call (nil when capture is off).
func (h *Host) Events() []telemetry.Event { return h.capture.Take() }

// Platform is the worker's platform.
func (h *Host) Platform() *platform.Platform { return h.plat }

// Seed is run i's layout seed: 0 for a fixed image the run does not
// reseed, the schedule's seed i otherwise.
func (h *Host) Seed(i int) uint64 {
	if h.pol.Place != nil && !h.pol.Reseed {
		return 0
	}
	return h.seeds.Seed(i)
}

// Prepare lays run i out with the given layout seed and applies its
// input (drawn from inputBase + i).
func (h *Host) Prepare(i int, seed uint64) error {
	switch {
	case h.snap != nil:
		boot := h.wt.Begin(telemetry.SpanBoot, -1)
		h.plat.Restore(h.snap)
		if h.pol.Reseed {
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
		if h.pol.Contention != nil {
			h.plat.Bus.ReseedContention(h.busSeeds.Seed(i))
		}
		if _, err := h.rt.Reboot(seed); err != nil {
			return err
		}
		if h.pol.Contention != nil {
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
func (h *Host) input(i int) (err error) {
	if h.task.Input == nil {
		return nil
	}
	h.golden, err = h.task.Input(h.plat.Mem, h.img, h.inputBase+uint64(i))
	return err
}

// Run executes the prepared run under budget and, when it completed
// and the task has a golden model, checks it: layout randomisation
// must never change functional results.
func (h *Host) Run(budget mem.Cycles) (platform.RunResult, bool, error) {
	exec := h.wt.Begin(telemetry.SpanExecute, -1)
	res, done, err := h.plat.RunBudget(budget)
	h.wt.End(exec)
	if err != nil || !done || h.task.Input == nil {
		return res, done, err
	}
	if res.ExitValue != h.golden {
		return res, done, fmt.Errorf("host: %s mismatch: got %#x, golden %#x", h.task.Name, res.ExitValue, h.golden)
	}
	return res, done, nil
}

// Name implements rtos.Runner.
func (h *Host) Name() string { return h.task.Name }

// Activate implements rtos.Runner: the partition reboot (a fresh
// layout under DSR, a restore otherwise) and the activation's input.
func (h *Host) Activate(act uint64) error { return h.Prepare(int(act), h.Seed(int(act))) }

// Execute implements rtos.Runner: the activation's run within its
// window budget, checked against the golden model when it completes.
func (h *Host) Execute(budget mem.Cycles) (platform.RunResult, bool, error) { return h.Run(budget) }
