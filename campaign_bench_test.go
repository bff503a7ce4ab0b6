// Campaign-engine benchmarks: the same paper-scale 1000-run DSR
// campaign executed at different worker-pool sizes, reporting the
// speedup over the strictly sequential legacy path. The determinism
// invariant (internal/experiments/determinism_test.go) guarantees all
// of these produce byte-identical output, so the only thing that may
// differ is wall time.
package dsr_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"dsr/internal/experiments"
)

// campaignBenchRuns is the paper-scale campaign size the engine is
// dimensioned for.
const campaignBenchRuns = 1000

func campaignBenchConfig(workers int) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Runs = campaignBenchRuns
	cfg.Workers = workers
	return cfg
}

// sequentialCampaignTime memoises the Workers=1 reference time that
// the speedup metric is quoted against.
var (
	seqTimeOnce sync.Once
	seqTime     time.Duration
	seqTimeErr  error
)

func sequentialCampaignTime(b *testing.B) time.Duration {
	b.Helper()
	seqTimeOnce.Do(func() {
		start := time.Now()
		_, seqTimeErr = experiments.RunDSR(campaignBenchConfig(1))
		seqTime = time.Since(start)
	})
	if seqTimeErr != nil {
		b.Fatal(seqTimeErr)
	}
	return seqTime
}

func benchmarkCampaignWorkers(b *testing.B, workers int) {
	ref := sequentialCampaignTime(b)
	cfg := campaignBenchConfig(workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunDSR(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	per := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(float64(ref)/float64(per), "speedup")
	b.ReportMetric(float64(campaignBenchRuns)/per.Seconds(), "runs/s")
}

func BenchmarkCampaignWorkers1(b *testing.B) { benchmarkCampaignWorkers(b, 1) }
func BenchmarkCampaignWorkers4(b *testing.B) { benchmarkCampaignWorkers(b, 4) }
func BenchmarkCampaignWorkers8(b *testing.B) { benchmarkCampaignWorkers(b, 8) }

// TestCampaignParallelNotSlower is the CI smoke check for the
// engine's reason to exist: on a multicore machine, the default
// parallel campaign must not lose to the sequential path. The bound is
// deliberately loose (parallel ≤ 1.15x sequential) — the benchmarks
// above quantify the actual speedup; this test only catches the
// engine regressing into "parallel in name only" (e.g. a serialising
// lock on the run path). It times three interleaved sequential/parallel
// pairs and compares the best of each, so a burst of other work on the
// host (other packages' tests running beside this one) slows one
// sample, not the verdict.
func TestCampaignParallelNotSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("timing smoke test skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing smoke test skipped under -race (instrumentation skews the ratio)")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("single-CPU machine: nothing to parallelise")
	}
	cfg := experiments.DefaultConfig()
	cfg.Runs = 300
	timeRun := func(workers int) time.Duration {
		c := cfg
		c.Workers = workers // 0: the default, NumCPU
		start := time.Now()
		if _, err := experiments.RunDSR(c); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	const pairs = 3
	var seq, par time.Duration
	for i := 0; i < pairs; i++ {
		s, p := timeRun(1), timeRun(0)
		if i == 0 || s < seq {
			seq = s
		}
		if i == 0 || p < par {
			par = p
		}
	}

	t.Logf("best of %d: sequential %v, parallel (%d CPUs) %v, ratio %.2fx",
		pairs, seq, runtime.NumCPU(), par, float64(seq)/float64(par))
	if float64(par) > 1.15*float64(seq) {
		t.Errorf("parallel campaign slower than sequential: %v vs %v", par, seq)
	}
}
