package serve

import (
	"testing"
)

// BenchmarkServeSubmitLatency measures the submit path — JSON decode,
// spec validation (assemble + DSR transform verification), job-dir
// persistence and enqueue — with the executor parked on a long job so
// no campaign work pollutes the numbers. This is the daemon's
// user-facing latency floor; benchgate tracks it.
func BenchmarkServeSubmitLatency(b *testing.B) {
	s, ts, cl := startServer(b, b.TempDir(), Config{
		Executors: 1, QueueCap: b.N + 8, CheckpointEvery: 1 << 30,
		Logf: func(string, ...any) {},
	})
	// Seconds of simulated work at one worker, inside MaxRuns: far
	// longer than the timed submits take. The check after the loop
	// fails the benchmark if the job ended before they did.
	long := testSpec(b, "long", 100_000, 1, 42)
	if _, err := cl.Submit(long); err != nil {
		b.Fatalf("submit long: %v", err)
	}
	waitProgress(b, cl, "long", 1)
	src := testSource(b)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := Spec{Source: src, Runs: 600, Seed: uint64(i + 1), Workers: 1}
		if _, err := cl.Submit(spec); err != nil {
			b.Fatalf("submit %d: %v", i, err)
		}
	}
	b.StopTimer()
	if st, err := cl.Status("long"); err != nil || st.State != StateRunning {
		b.Fatalf("the parked job did not outlast %d submits: state %q, err %v", b.N, st.State, err)
	}
	s.Kill()
	ts.Close()
}

// BenchmarkCheckpointJob is one job's checkpoint layer: a 1000-point
// prefix merged through one writer, checkpointed every 50 points (the
// daemon's default cadence), 20 checkpoints in all. Each point is
// encoded once; the first checkpoint writes a fresh journal and each
// later one appends the segment merged since, so every point is hashed
// and written once.
func BenchmarkCheckpointJob(b *testing.B) {
	pts := bytesCheckpoint(1000, true, true).Points
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := &checkpointWriter{dir: dir, job: "job-0", specHash: "h1"}
		for k, pt := range pts {
			w.add(pt)
			if (k+1)%50 == 0 {
				if err := w.write(w.n, false); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
