package experiments

import (
	"reflect"
	"sync"
	"testing"

	"dsr/internal/analysis/schedfeas"
	"dsr/internal/campaign"
	"dsr/internal/cpu"
	"dsr/internal/host"
	"dsr/internal/mem"
	"dsr/internal/platform"
	"dsr/internal/rtos"
)

// e9Activations runs cfg.Runs frames of cell through the campaign
// engine, one executive per worker as RunE9Cell builds them, and
// returns every frame's activation records in frame order.
func e9Activations(t *testing.T, cfg Config, cell E9Cell) [][]rtos.Activation {
	t.Helper()
	static := schedfeas.Analyze(CaseStudySchedSpec(), CaseStudySchedPolicy(cell.SchedRand), schedfeas.Config{})
	if static.Cert == nil {
		t.Fatalf("%s not certifiable: %v", cell.Name(), static.Violations)
	}
	out := make([][]rtos.Activation, cfg.Runs)
	newWorker := func(int) (campaign.RunFunc[[]rtos.Activation], error) {
		ex, err := NewE9Executive(cfg, cell, static.Cert)
		if err != nil {
			return nil, err
		}
		return ex.RunFrame, nil
	}
	err := campaign.Execute(campaign.Config{Runs: cfg.Runs, Workers: cfg.Workers}, newWorker,
		func(i int, acts []rtos.Activation) error {
			out[i] = acts
			return nil
		})
	if err != nil {
		t.Fatalf("%s: %v", cell.Name(), err)
	}
	return out
}

// TestE9MemoMatchesMemoOff runs a frame prefix of every cell with one
// memo shared by the four cells, at one and two workers, and requires
// every activation record of both partitions (cycles, budget,
// completion and the whole run result) and every cell's series to
// equal the memo-free run's. host_pin.json pins only the control
// observables; this is the processing partition's cover.
func TestE9MemoMatchesMemoOff(t *testing.T) {
	const frames = 3
	off := e9Config(frames, 2)
	off.e9 = nil
	wantActs := map[E9Cell][][]rtos.Activation{}
	wantSeries := map[E9Cell]*E9Series{}
	for _, cell := range E9Cells() {
		wantActs[cell] = e9Activations(t, off, cell)
		s, err := RunE9Cell(off, cell)
		if err != nil {
			t.Fatal(err)
		}
		wantSeries[cell] = s
	}
	for _, workers := range []int{1, 2} {
		on := e9Config(frames, workers)
		for _, cell := range E9Cells() {
			acts := e9Activations(t, on, cell)
			for f := range acts {
				if !reflect.DeepEqual(acts[f], wantActs[cell][f]) {
					t.Errorf("workers=%d %s frame %d: memo-on activations differ:\n got %+v\nwant %+v",
						workers, cell.Name(), f, acts[f], wantActs[cell][f])
				}
			}
			s, err := RunE9Cell(on, cell)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(s, wantSeries[cell]) {
				t.Errorf("workers=%d %s: memo-on series differs:\n got %+v\nwant %+v",
					workers, cell.Name(), s, wantSeries[cell])
			}
		}
		// Each cell ran its frames twice. Processing runs one fixed
		// image in every cell; control runs the fixed image in two
		// cells and the DSR layouts in the other two. Everything but
		// each distinct run's first execution is a hit.
		const passes, cells = 2, 4
		wantHits := map[string]int{
			"processing": passes*cells*frames*10 - frames*10,
			"control":    passes*cells*frames - 2*frames,
		}
		if !reflect.DeepEqual(on.e9.hits, wantHits) {
			t.Errorf("workers=%d: memo hits %v, want %v", workers, on.e9.hits, wantHits)
		}
	}
}

// TestE9MemoBudgetRule pins when the memo may answer: only when the
// recorded run completed in fewer cycles than the window budget, the
// engine's own cycles < budget gate. Under any smaller budget the
// activation re-runs on the host, overrun included, and the outcome is
// exactly a fresh memo-free host's.
func TestE9MemoBudgetRule(t *testing.T) {
	cfg := DefaultConfig()
	const act = 3
	newHost := func() *host.Host {
		h, err := cfg.newHost(platform.ProximaLEON3(), host.DSR, ControlTask)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	type outcome struct {
		res  platform.RunResult
		done bool
		err  error
	}
	run := func(r rtos.Runner, budget mem.Cycles) outcome {
		if err := r.Activate(act); err != nil {
			t.Fatal(err)
		}
		res, done, err := r.Execute(budget)
		return outcome{res, done, err}
	}
	memo := cfg.e9Runner(newHost(), true)
	rec := run(memo, cpu.NoBudget)
	if rec.err != nil || !rec.done {
		t.Fatalf("recording run: done=%v err=%v", rec.done, rec.err)
	}
	c := rec.res.Cycles
	overran := false
	// The overrunning budgets come first: the final hit must still see
	// the recorded run.
	for _, budget := range []mem.Cycles{c / 2, c - 1, c, c + 1} {
		hits := cfg.e9.hits["control"]
		got, want := run(memo, budget), run(newHost(), budget)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("budget %d (recorded %d): memo returned %+v, fresh host %+v", budget, c, got, want)
		}
		if hit, wantHit := cfg.e9.hits["control"] > hits, budget > c; hit != wantHit {
			t.Errorf("budget %d (recorded %d): hit=%v, want %v", budget, c, hit, wantHit)
		}
		overran = overran || !want.done
	}
	if !overran {
		t.Errorf("no budget below %d cycles cut the run: the overrun path went untested", c)
	}
}

// TestCampaignDeterminismE9SharedConfig runs two cells that share every
// run concurrently over copies of one Config, so their workers meet on
// the memo (the name keeps it inside `make race-campaign`), and
// requires the memo-free series. Copies with moved seed bases then
// must not be answered from runs recorded under the old bases.
func TestCampaignDeterminismE9SharedConfig(t *testing.T) {
	const frames = 2
	cells := []E9Cell{{LayoutRand: true}, {LayoutRand: true, SchedRand: true}}
	off := e9Config(frames, 1)
	off.e9 = nil
	cfg := e9Config(frames, 2)
	got := make([]*E9Series, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i, cell := range cells {
		wg.Add(1)
		go func(cfg Config) {
			defer wg.Done()
			got[i], errs[i] = RunE9Cell(cfg, cell)
		}(cfg)
	}
	wg.Wait()
	for i, cell := range cells {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := RunE9Cell(off, cell)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s over a shared memo:\n got %+v\nwant %+v", cell.Name(), got[i], want)
		}
	}
	if n := len(cfg.e9.runs); n != frames*11 {
		t.Errorf("memo holds %d runs, want the %d distinct activations", n, frames*11)
	}

	before := map[string]int{"control": cfg.e9.hits["control"], "processing": cfg.e9.hits["processing"]}
	moved := cfg
	moved.InputSeedBase += 1 << 32
	if _, err := RunE9Cell(moved, cells[0]); err != nil {
		t.Fatal(err)
	}
	for task, n := range before {
		if cfg.e9.hits[task] != n {
			t.Errorf("InputSeedBase moved: %d %s activations answered from the old inputs' runs", cfg.e9.hits[task]-n, task)
		}
	}
	// A new SeedBase draws new control layouts. The processing image is
	// fixed and its inputs unmoved, so its runs are rightly shared.
	reseeded := cfg
	reseeded.SeedBase++
	if _, err := RunE9Cell(reseeded, cells[0]); err != nil {
		t.Fatal(err)
	}
	if d := cfg.e9.hits["control"] - before["control"]; d != 0 {
		t.Errorf("SeedBase moved: %d control activations answered from the old layouts' runs", d)
	}
	if d := cfg.e9.hits["processing"] - before["processing"]; d != frames*10 {
		t.Errorf("SeedBase moved: %d processing hits, want all %d", d, frames*10)
	}
}
