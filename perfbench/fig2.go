package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dsr/internal/campaign"
	"dsr/internal/core"
	"dsr/internal/experiments"
	"dsr/internal/loader"
	"dsr/internal/mbpta"
	"dsr/internal/platform"
	"dsr/internal/rvs"
	"dsr/internal/spaceapp"
	"dsr/internal/telemetry"
)

// fig2 is the paper's headline path: the 1000-run baseline and DSR
// control-task campaigns, MBPTA of the DSR series and the rendered
// Table I / Fig. 2 / Fig. 3 / margin report. With telemetry set it also
// records attribution, telemetry and host spans and exports what
// `dsrsim -telemetry` writes.
//
// Untraced, an iteration calls experiments.RunBaseline and RunDSR.
// Traced, it runs the same two series through campaign.Execute with the
// benchmark's own run and merge functions, so that every call into a
// layer gets a span; the output hash proves both paths compute the same.
type fig2 struct {
	env       *env
	telemetry bool
}

const fig2Runs = 1000

func (f *fig2) config() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Runs = fig2Runs
	cfg.SeedBase = f.env.seed
	cfg.InputSeedBase = inputSeedBase(f.env.seed)
	cfg.Workers = f.env.workers
	return cfg
}

// setup builds what one campaign of each series builds per worker: the
// baseline's booted platform and snapshot, and the DSR runtime.
func (f *fig2) setup() (time.Duration, error) { return timed(f.build) }

func (f *fig2) build() error {
	for w := 0; w < f.env.workers; w++ {
		p, err := spaceapp.BuildControl()
		if err != nil {
			return err
		}
		img, err := loader.Load(p, loader.DefaultSequentialConfig())
		if err != nil {
			return err
		}
		plat := platform.New(platform.ProximaLEON3())
		if f.telemetry {
			plat.EnableAttribution()
		}
		plat.LoadImage(img)
		plat.Snapshot()

		p, err = spaceapp.BuildControl()
		if err != nil {
			return err
		}
		plat = platform.New(platform.ProximaLEON3())
		if f.telemetry {
			plat.EnableAttribution()
		}
		if _, err := core.NewRuntime(p, plat, core.Options{}); err != nil {
			return err
		}
	}
	return nil
}

func (f *fig2) close() {}

func (f *fig2) iterate(main *track) (iteration, error) {
	cfg := f.config()
	var (
		camp   *telemetry.Campaign
		tracer *telemetry.Tracer
	)
	if f.telemetry {
		camp = telemetry.NewCampaign(0)
		tracer = telemetry.NewTracer()
		cfg.Telemetry, cfg.Attribution, cfg.Tracer = camp, true, tracer
		cfg.MBPTA.Events = camp.Events
	}
	it := iteration{ops: 2 * cfg.Runs}
	var (
		base, dsr *experiments.Series
		rep       *mbpta.Report
		aerr      error
		err       error
	)
	if main == nil {
		if base, err = experiments.RunBaseline(cfg); err == nil {
			if dsr, err = experiments.RunDSR(cfg); err == nil {
				rep, aerr = experiments.Figure3(dsr, cfg.MBPTA)
			}
		}
	} else {
		if base, err = f.series(main, cfg, false, nil); err == nil {
			stream := mbpta.NewStream(cfg.MBPTA)
			if dsr, err = f.series(main, cfg, true, stream); err == nil {
				s := main.begin("mbpta.analyse")
				rep, aerr = stream.Report()
				main.end(s)
			}
		}
	}
	if err != nil {
		it.failed = it.ops
		return it, err
	}
	for _, s := range []*experiments.Series{base, dsr} {
		for _, res := range s.Results {
			it.sim.add(res)
		}
	}

	s := main.begin("experiments.render")
	var out bytes.Buffer
	out.WriteString(experiments.FormatTable1(experiments.Table1(base, dsr)))
	out.WriteString(experiments.FormatFigure2(experiments.Figure2(base, dsr)))
	switch {
	case errors.Is(aerr, mbpta.ErrNotIID):
		// A rejected i.i.d. gate is a verdict on the sample, not a
		// failed operation.
		it.sim.IIDRejects++
		if rep != nil {
			out.WriteString(experiments.FormatIID(rep.IID))
		}
	case aerr != nil:
		main.end(s)
		it.failed = it.ops
		return it, aerr
	default:
		out.WriteString(experiments.FormatIID(rep.IID))
		out.WriteString(experiments.RenderFigure3(dsr, rep))
		_, _, moetRef := base.MinMeanMax()
		out.WriteString(experiments.FormatMargin(mbpta.CompareWithMargin(rep, moetRef, cfg.Margin), rep.MOET))
	}
	main.end(s)

	h := newHasher()
	for _, s := range []*experiments.Series{base, dsr} {
		h.str(s.Name)
		for i, res := range s.Results {
			h.f64(s.Cycles[i])
			h.result(res)
		}
	}
	h.bytes(out.Bytes())
	if camp != nil {
		s := main.begin("telemetry.export")
		jsonl, n, err := exportTelemetry(filepath.Join(f.env.tmp, "telemetry"), camp, tracer)
		main.end(s)
		if err != nil {
			return it, err
		}
		h.bytes(jsonl)
		it.exportBytes = n
		it.spans = len(tracer.Spans())
	}
	it.hash = h.sum()
	return it, nil
}

// fig2Shard is one run's outcome before the canonical-order merge.
type fig2Shard struct {
	seed   uint64
	res    platform.RunResult
	events []telemetry.Event
}

// series runs one campaign series (baseline or DSR) the way
// experiments does, with a span around every layer call. Worker w
// records on its own track; the merge records on main.
func (f *fig2) series(main *track, cfg experiments.Config, dsr bool, stream *mbpta.Stream) (*experiments.Series, error) {
	name := "No Rand"
	if dsr {
		name = "Sw Rand"
	}
	s := &experiments.Series{
		Name:    name,
		Cycles:  make([]float64, cfg.Runs),
		Results: make([]platform.RunResult, cfg.Runs),
	}
	sched := campaign.NewSchedule(cfg.SeedBase)
	newWorker := func(w int) (campaign.RunFunc[fig2Shard], error) {
		t := main.fork()
		setup := t.begin("campaign.setup")
		defer t.end(setup)
		sp := t.begin("spaceapp.build")
		p, err := spaceapp.BuildControl()
		t.end(sp)
		if err != nil {
			return nil, err
		}
		sp = t.begin("platform.new")
		plat := platform.New(platform.ProximaLEON3())
		if cfg.Attribution {
			plat.EnableAttribution()
		}
		var (
			img  *loader.Image
			snap *platform.Snapshot
		)
		if !dsr {
			img, err = loader.Load(p, loader.DefaultSequentialConfig())
			if err == nil {
				plat.LoadImage(img)
				snap = plat.Snapshot()
			}
		}
		t.end(sp)
		if err != nil {
			return nil, err
		}
		wt := cfg.Tracer.Worker(w)
		var (
			rt      *core.Runtime
			capture *telemetry.EventLog
		)
		if dsr {
			sp = t.begin("core.new_runtime")
			rt, err = core.NewRuntime(p, plat, core.Options{})
			t.end(sp)
			if err != nil {
				return nil, err
			}
			if cfg.Telemetry != nil {
				capture = telemetry.NewCaptureLog()
			}
			rt.SetEventLog(capture)
			rt.SetTracer(wt)
		}
		return func(i int) (fig2Shard, error) {
			run := t.begin("campaign.run")
			defer t.end(run)
			var seed uint64
			if dsr {
				seed = sched.Seed(i)
				sp := t.begin("core.reboot")
				_, err := rt.Reboot(seed)
				t.end(sp)
				if err != nil {
					return fig2Shard{}, err
				}
				img = rt.Image()
			}
			sp := t.begin("spaceapp.gen")
			in := spaceapp.GenControlInput(cfg.InputSeedBase + uint64(i))
			t.end(sp)
			boot := wt.Begin(telemetry.SpanBoot, -1)
			if !dsr {
				sp = t.begin("platform.restore")
				plat.Restore(snap)
				t.end(sp)
			}
			sp = t.begin("spaceapp.apply")
			err := spaceapp.ApplyControlInput(plat.Mem, img, in)
			t.end(sp)
			wt.End(boot)
			if err != nil {
				return fig2Shard{}, err
			}
			exec := wt.Begin(telemetry.SpanExecute, -1)
			sp = t.begin("platform.run")
			var res platform.RunResult
			if dsr {
				res, err = rt.Run()
			} else {
				res, err = plat.Run()
			}
			t.end(sp)
			wt.End(exec)
			if err != nil {
				return fig2Shard{}, err
			}
			sp = t.begin("spaceapp.reference")
			want := spaceapp.ControlReference(in)
			t.end(sp)
			if res.ExitValue != want {
				return fig2Shard{}, fmt.Errorf("functional mismatch in run %d: got %#x, golden %#x", i, res.ExitValue, want)
			}
			return fig2Shard{seed: seed, res: res, events: capture.Take()}, nil
		}, nil
	}
	merge := func(i int, sh fig2Shard) error {
		m := main.begin("campaign.merge")
		defer main.end(m)
		uoa := float64(sh.res.Cycles)
		if ds := rvs.Durations(sh.res.Trace, 1, 2); len(ds) > 0 {
			uoa = float64(ds[0])
		}
		s.Cycles[i], s.Results[i] = uoa, sh.res
		s.Attribution.Add(sh.res.Attribution)
		if stream != nil {
			sp := main.begin("mbpta.observe")
			stream.Observe(uoa)
			main.end(sp)
		}
		if camp := cfg.Telemetry; camp != nil {
			sp := main.begin("telemetry.record")
			camp.Events.ReplayAt(camp.Now(), sh.events)
			camp.RecordRun(telemetry.RunRecord{
				Series: s.Name, Index: i, Seed: sh.seed,
				Cycles: sh.res.Cycles, UoA: uoa, Attribution: sh.res.Attribution,
			})
			main.end(sp)
		}
		return nil
	}
	ex := main.begin("campaign.execute")
	err := campaign.Execute(campaign.Config{Runs: cfg.Runs, Workers: cfg.Workers, Tracer: cfg.Tracer}, newWorker, merge)
	main.end(ex)
	return s, err
}

// exportTelemetry writes the files `dsrsim -telemetry` writes and
// returns the deterministic JSONL dump and the bytes written.
func exportTelemetry(dir string, camp *telemetry.Campaign, tracer *telemetry.Tracer) ([]byte, int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	dump := camp.Dump()
	spans := tracer.Spans()
	spanDump := &telemetry.Dump{Spans: spans}
	writers := []struct {
		name  string
		write func(b *bytes.Buffer) error
	}{
		{"telemetry.jsonl", func(b *bytes.Buffer) error { return dump.WriteJSONL(b) }},
		{"telemetry.csv", func(b *bytes.Buffer) error { return dump.WriteCSV(b) }},
		{"telemetry.prom", func(b *bytes.Buffer) error { return dump.WritePrometheus(b) }},
		{"trace.json", func(b *bytes.Buffer) error { return dump.WriteChromeTrace(b, 0) }},
		{"spans.jsonl", func(b *bytes.Buffer) error { return spanDump.WriteJSONL(b) }},
		{"spans-trace.json", func(b *bytes.Buffer) error { return telemetry.WriteSpanTrace(b, spans) }},
	}
	var (
		jsonl []byte
		n     int64
	)
	for _, w := range writers {
		var b bytes.Buffer
		if err := w.write(&b); err != nil {
			return nil, 0, fmt.Errorf("export %s: %w", w.name, err)
		}
		if err := os.WriteFile(filepath.Join(dir, w.name), b.Bytes(), 0o644); err != nil {
			return nil, 0, err
		}
		if w.name == "telemetry.jsonl" {
			jsonl = b.Bytes()
		}
		n += int64(b.Len())
	}
	return jsonl, n, nil
}
