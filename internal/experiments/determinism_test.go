package experiments

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"testing"

	"dsr/internal/bus"
	"dsr/internal/campaign/determtest"
	"dsr/internal/mbpta"
	"dsr/internal/obs"
	"dsr/internal/platform"
	"dsr/internal/prng"
	"dsr/internal/spaceapp"
	"dsr/internal/telemetry"
)

// The campaign engine's hard invariant: campaign output is
// byte-identical at every worker count. These tests run every Run*
// series once on the legacy sequential path (Workers=1) and once
// sharded wide (Workers=8), and compare everything observable —
// cycles, run results, cycle attribution, progress callback order,
// and the full telemetry export (metrics, events, sequence numbers,
// campaign-clock timestamps) byte for byte.
//
// The suite runs under -race in CI (make race-campaign), which also
// makes it the data-race detector for the worker pool.

// seriesRun is one campaign variant under test.
type seriesRun struct {
	name string
	runs int
	run  func(cfg Config) (*Series, error)
}

// determinismSeries lists every exported series constructor.
func determinismSeries() []seriesRun {
	dl1 := platform.ProximaLEON3().DL1
	l1way := dl1.WaySize()
	return []seriesRun{
		{"Baseline", 16, RunBaseline},
		{"DSR", 16, RunDSR},
		{"DSRLazy", 16, RunDSRLazy},
		{"DSROffsetBound", 16, func(cfg Config) (*Series, error) {
			return RunDSRWithOffsetBound(cfg, l1way, "L1-way bound")
		}},
		{"DSRWithPRNG", 16, func(cfg Config) (*Series, error) {
			return RunDSRWithPRNG(cfg, func() prng.Source { return prng.NewLFSR(1) }, "LFSR")
		}},
		{"HWRand", 16, RunHWRand},
		{"Static", 16, RunStatic},
		{"Contention", 16, func(cfg Config) (*Series, error) {
			return RunDSRWithContention(cfg,
				bus.Contention{Mode: bus.RandomContention, Intensity: 0.3, MaxDelay: 8},
				"contended")
		}},
		{"Processing", 4, func(cfg Config) (*Series, error) {
			return RunProcessing(cfg, spaceapp.LitFraction, "processing")
		}},
		{"Positioned", 16, RunPositioned},
	}
}

// campaignOutput is everything a campaign can emit, captured for
// comparison; output converts it to the shared determtest surface.
type campaignOutput struct {
	series    *Series
	progress  []int
	telemetry []byte // full Dump as JSONL
}

// output lifts a capture into the shared byte-identity checker's form.
func (c campaignOutput) output() determtest.Output {
	return determtest.Output{
		Cycles:      c.series.Cycles,
		Results:     c.series.Results,
		Attribution: c.series.Attribution,
		Progress:    c.progress,
		Telemetry:   c.telemetry,
	}
}

// runCampaign executes one series at the given worker count with every
// observability hook enabled.
func runCampaign(t *testing.T, sr seriesRun, workers int) campaignOutput {
	t.Helper()
	camp := telemetry.NewCampaign(0)
	cfg := DefaultConfig()
	cfg.Runs = sr.runs
	cfg.Workers = workers
	cfg.Attribution = true
	cfg.Telemetry = camp
	var progress []int
	cfg.Progress = func(series string, done, total int) {
		if total != sr.runs {
			t.Errorf("progress total = %d, want %d", total, sr.runs)
		}
		progress = append(progress, done)
	}
	s, err := sr.run(cfg)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var buf bytes.Buffer
	if err := camp.Dump().WriteJSONL(&buf); err != nil {
		t.Fatalf("workers=%d: dump: %v", workers, err)
	}
	return campaignOutput{
		series:    s,
		progress:  progress,
		telemetry: buf.Bytes(),
	}
}

// TestCampaignDeterminism is the invariant test: Workers=8 output must
// be indistinguishable from Workers=1 for every series.
func TestCampaignDeterminism(t *testing.T) {
	for _, sr := range determinismSeries() {
		sr := sr
		t.Run(sr.name, func(t *testing.T) {
			t.Parallel()
			seq := runCampaign(t, sr, 1)
			par := runCampaign(t, sr, 8)
			determtest.Check(t, "workers=8 vs sequential", seq.output(), par.output())
			determtest.CheckCanonicalProgress(t, seq.progress, sr.runs)
		})
	}
}

// TestCampaignProcessingWorkers runs the processing series with its
// task shared by four workers, each drawing its scenes into a pooled
// buffer while the others do: the output must equal the sequential
// run's byte for byte, and under -race no buffer may be touched by two
// workers at once.
func TestCampaignProcessingWorkers(t *testing.T) {
	sr := seriesRun{"Processing", 8, func(cfg Config) (*Series, error) {
		return RunProcessing(cfg, spaceapp.LitFraction, "processing")
	}}
	determtest.Check(t, "workers=4 vs sequential", runCampaign(t, sr, 1).output(), runCampaign(t, sr, 4).output())
}

// TestCampaignDeterminismWorkerSweep checks that every worker count in
// between agrees too (the invariant is "any worker count", not just the
// two endpoints), including counts that do not divide the run count.
func TestCampaignDeterminismWorkerSweep(t *testing.T) {
	sr := seriesRun{"DSR", 17, RunDSR} // prime run count: uneven shards
	ref := runCampaign(t, sr, 1)
	for _, w := range []int{2, 3, 5, 8} {
		got := runCampaign(t, sr, w)
		determtest.Check(t, fmt.Sprintf("workers=%d vs sequential", w), ref.output(), got.output())
	}
}

// TestCampaignDeterminismObserved extends the invariant to the live
// observability stack: a campaign with the span tracer, the obs
// campaign view, a live HTTP server and an attached SSE client must
// produce byte-identical results and telemetry to a plain campaign.
// Observation is strictly one-way.
func TestCampaignDeterminismObserved(t *testing.T) {
	sr := seriesRun{"DSR", 16, RunDSR}
	plain := runCampaign(t, sr, 8)

	camp := telemetry.NewCampaign(0)
	tracer := telemetry.NewTracer()
	view := obs.NewCampaign(camp.Registry, tracer, mbpta.Options{})
	srv, err := obs.Serve("127.0.0.1:0", view)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A live SSE client reads deltas for the whole campaign.
	resp, err := http.Get("http://" + srv.Addr() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // closed by Close
	}()

	cfg := DefaultConfig()
	cfg.Runs = sr.runs
	cfg.Workers = 8
	cfg.Attribution = true
	cfg.Telemetry = camp
	cfg.Tracer = tracer
	cfg.Observer = view
	var progress []int
	cfg.Progress = func(series string, done, total int) { progress = append(progress, done) }

	s, err := sr.run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	view.Done()
	var buf bytes.Buffer
	if err := camp.Dump().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}

	determtest.Check(t, "observed vs plain", plain.output(), determtest.Output{
		Cycles:      s.Cycles,
		Results:     s.Results,
		Attribution: s.Attribution,
		Progress:    progress,
		Telemetry:   buf.Bytes(),
	})

	// The observed campaign really was observed.
	if snap := view.Snapshot(); snap.Done != sr.runs || len(snap.Finished) != 1 {
		t.Fatalf("observer saw %d/%d runs, %d series", snap.Done, sr.runs, len(snap.Finished))
	}
	if spans := tracer.Spans(); len(spans) == 0 {
		t.Fatal("tracer recorded no spans")
	}
	srv.Close()
	<-drained
}

// TestCampaignDefaultWorkers checks Workers=0 (NumCPU) matches the
// sequential reference: the default configuration inherits the
// invariant.
func TestCampaignDefaultWorkers(t *testing.T) {
	sr := seriesRun{"DSR", 16, RunDSR}
	seq := runCampaign(t, sr, 1)
	def := runCampaign(t, sr, 0)
	determtest.Check(t, "workers=0 (NumCPU) vs sequential", seq.output(), def.output())
}
