package serve

import (
	"bufio"
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dsr/internal/campaign/determtest"
)

// testSource loads the repo's miniature UoA program; serve tests
// measure the same program the assembler end-to-end tests run.
func testSource(t testing.TB) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "asm", "testdata", "uoa.s"))
	if err != nil {
		t.Fatalf("read test program: %v", err)
	}
	return string(b)
}

// testSpec builds a job spec over the test program. Attribution is on
// so the rendered report exercises the per-component split too.
func testSpec(t testing.TB, id string, runs, workers int, seed uint64) Spec {
	return Spec{
		ID: id, Source: testSource(t), Runs: runs, Seed: seed,
		Workers: workers, Attribution: true,
	}
}

// telemetryJSONL encodes an outcome's telemetry dump as a job's
// telemetry.jsonl holds it.
func telemetryJSONL(t testing.TB, o *Outcome) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := o.Telemetry.WriteJSONL(&b); err != nil {
		t.Fatalf("telemetry export: %v", err)
	}
	return b.Bytes()
}

// outcomeOutput lifts a runner Outcome onto the shared byte-identity
// surface.
func outcomeOutput(t testing.TB, o *Outcome) determtest.Output {
	cycles := make([]float64, len(o.Points))
	for i, pt := range o.Points {
		cycles[i] = float64(pt.Cycles)
	}
	return determtest.Output{
		Cycles:    cycles,
		Results:   o.Points,
		Stream:    o.Times,
		Telemetry: telemetryJSONL(t, o),
		Report:    []byte(FormatReport(o)),
	}
}

// refOutput runs the campaign directly through the shared runner (the
// CLI path) — the reference every service-side surface must match byte
// for byte.
func refOutput(t testing.TB, spec Spec) determtest.Output {
	t.Helper()
	out, err := Run(spec, nil, Hooks{})
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}
	return outcomeOutput(t, out)
}

// jobOutput fetches a finished job's artifacts over the API and lifts
// them onto the same surface.
func jobOutput(t testing.TB, cl *Client, id string) determtest.Output {
	t.Helper()
	pts, err := cl.Points(id)
	if err != nil {
		t.Fatalf("fetch points %s: %v", id, err)
	}
	report, err := cl.Report(id)
	if err != nil {
		t.Fatalf("fetch report %s: %v", id, err)
	}
	telem, err := cl.Telemetry(id)
	if err != nil {
		t.Fatalf("fetch telemetry %s: %v", id, err)
	}
	cycles := make([]float64, len(pts))
	for i, pt := range pts {
		cycles[i] = float64(pt.Cycles)
	}
	return determtest.Output{
		Cycles:    cycles,
		Results:   pts,
		Stream:    cycles,
		Telemetry: telem,
		Report:    report,
	}
}

// startServer builds a Server over dir and mounts its API on an
// httptest server.
func startServer(t testing.TB, dir string, cfg Config) (*Server, *httptest.Server, *Client) {
	t.Helper()
	cfg.DataDir = dir
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	return s, ts, &Client{Base: ts.URL}
}

// waitTerminal polls a job to a terminal state, failing on timeout.
func waitTerminal(t testing.TB, cl *Client, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st, err := cl.Status(id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if st.State.terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return JobStatus{}
}

// waitProgress polls until the job has merged at least min runs (and
// is not yet terminal), failing if it finishes first — the caller is
// about to interrupt it mid-flight and needs it to still be in flight.
func waitProgress(t testing.TB, cl *Client, id string, min int) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st, err := cl.Status(id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if st.State.terminal() {
			t.Fatalf("job %s reached %s before the test could interrupt it mid-flight (done=%d)",
				id, st.State, st.Done)
		}
		if st.State == StateRunning && st.Done >= min {
			return st
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %d merged runs", id, min)
	return JobStatus{}
}

// TestCampaignServeDeterminism is the core service-level determinism
// suite: a job submitted over the API produces points, MBPTA stream,
// telemetry JSONL and rendered report byte-identical to the dsrrun CLI
// path, at every worker count.
func TestCampaignServeDeterminism(t *testing.T) {
	const runs = 600
	ref := refOutput(t, testSpec(t, "", runs, 1, 42))

	s, ts, cl := startServer(t, t.TempDir(), Config{Executors: 2})
	defer ts.Close()
	defer s.Stop()

	for _, workers := range []int{1, 8} {
		spec := testSpec(t, "", runs, workers, 42)
		st, err := cl.Submit(spec)
		if err != nil {
			t.Fatalf("submit workers=%d: %v", workers, err)
		}
		fin := waitTerminal(t, cl, st.ID)
		if fin.State != StateDone {
			t.Fatalf("workers=%d: job ended %s: %s", workers, fin.State, fin.Error)
		}
		if fin.Done != runs {
			t.Fatalf("workers=%d: done=%d, want %d", workers, fin.Done, runs)
		}
		determtest.Check(t, "service workers="+string(rune('0'+workers))+" vs CLI",
			ref, jobOutput(t, cl, st.ID))
	}
}

// TestCampaignServeIdempotentSubmit: resubmitting an identical spec
// under the same id returns the existing job; a different spec under
// the same id is a conflict.
func TestCampaignServeIdempotentSubmit(t *testing.T) {
	s, ts, cl := startServer(t, t.TempDir(), Config{Executors: 1})
	defer ts.Close()
	defer s.Stop()

	spec := testSpec(t, "same", 600, 4, 42)
	st, err := cl.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.ID != "same" {
		t.Fatalf("id = %q", st.ID)
	}
	if _, err := cl.Submit(spec); err != nil {
		t.Fatalf("idempotent resubmit: %v", err)
	}
	other := spec
	other.Seed = 43
	_, err = cl.Submit(other)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusConflict {
		t.Fatalf("conflicting resubmit returned %v, want 409", err)
	}
	if st := waitTerminal(t, cl, "same"); st.State != StateDone {
		t.Fatalf("job ended %s", st.State)
	}
}

// TestCampaignServeConcurrentJobs runs 8 jobs concurrently (different
// seeds and worker counts, so results interleave arbitrarily in the
// executor pool) and checks each against its own CLI reference.
func TestCampaignServeConcurrentJobs(t *testing.T) {
	const runs = 400
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	refs := make([]determtest.Output, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed uint64) {
			defer wg.Done()
			refs[i] = refOutput(t, testSpec(t, "", runs, 1, seed))
		}(i, seed)
	}
	wg.Wait()

	s, ts, cl := startServer(t, t.TempDir(), Config{Executors: 4, QueueCap: 16})
	defer ts.Close()
	defer s.Stop()

	ids := make([]string, len(seeds))
	for i, seed := range seeds {
		st, err := cl.Submit(testSpec(t, "", runs, 1+i%4, seed))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		if st := waitTerminal(t, cl, id); st.State != StateDone {
			t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
		}
		determtest.Check(t, "concurrent job "+id, refs[i], jobOutput(t, cl, id))
	}
}

// TestCampaignServeCancelResubmit: cancelling a running job mid-flight
// drains it promptly to the cancelled state; resubmitting the same
// id re-enqueues it (resuming from whatever checkpoint the cancelled
// attempt left) and finishes byte-identical to the CLI path.
func TestCampaignServeCancelResubmit(t *testing.T) {
	const runs = 20000
	spec := testSpec(t, "cancel-me", runs, 2, 42)
	ref := refOutput(t, testSpec(t, "", runs, 1, 42))

	s, ts, cl := startServer(t, t.TempDir(), Config{Executors: 1, CheckpointEvery: 200})
	defer ts.Close()
	defer s.Stop()

	if _, err := cl.Submit(spec); err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitProgress(t, cl, "cancel-me", 100)
	if _, err := cl.Cancel("cancel-me"); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	st := waitTerminal(t, cl, "cancel-me")
	if st.State != StateCancelled {
		t.Fatalf("cancelled job ended %s", st.State)
	}
	if st.Done >= runs {
		t.Fatalf("cancelled job merged all %d runs", st.Done)
	}
	// Cancel is idempotent on a terminal job.
	if st, err := cl.Cancel("cancel-me"); err != nil || st.State != StateCancelled {
		t.Fatalf("second cancel: %v %s", err, st.State)
	}

	// Resubmit: same id, same spec — accepted and re-run to completion.
	if _, err := cl.Submit(spec); err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	fin := waitTerminal(t, cl, "cancel-me")
	if fin.State != StateDone {
		t.Fatalf("resubmitted job ended %s: %s", fin.State, fin.Error)
	}
	determtest.Check(t, "cancel+resubmit vs CLI", ref, jobOutput(t, cl, "cancel-me"))
}

// TestCampaignServeCheckpointRestore is the crash test: kill the
// daemon mid-campaign (no graceful checkpoint), start a fresh daemon
// over the same data dir, and require the resumed job's every surface
// to be byte-identical to an uninterrupted CLI run.
func TestCampaignServeCheckpointRestore(t *testing.T) {
	const runs = 20000
	spec := testSpec(t, "crashy", runs, 2, 42)
	ref := refOutput(t, testSpec(t, "", runs, 1, 42))
	dir := t.TempDir()

	s, ts, cl := startServer(t, dir, Config{Executors: 1, CheckpointEvery: 200})
	if _, err := cl.Submit(spec); err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitProgress(t, cl, "crashy", 500)
	s.Kill()
	ts.Close()

	if _, err := os.Stat(filepath.Join(dir, "jobs", "crashy", checkpointFile)); err != nil {
		t.Fatalf("no checkpoint on disk after kill: %v", err)
	}

	s2, ts2, cl2 := startServer(t, dir, Config{Executors: 1, CheckpointEvery: 200})
	defer ts2.Close()
	defer s2.Stop()
	fin := waitTerminal(t, cl2, "crashy")
	if fin.State != StateDone {
		t.Fatalf("recovered job ended %s: %s", fin.State, fin.Error)
	}
	if fin.Done != runs {
		t.Fatalf("recovered job done=%d, want %d", fin.Done, runs)
	}
	determtest.Check(t, "kill+restore vs CLI", ref, jobOutput(t, cl2, "crashy"))
}

// TestCampaignServeGracefulStopResume: a graceful Stop suspends the
// in-flight job with a final checkpoint; the next daemon finishes it
// byte-identically.
func TestCampaignServeGracefulStopResume(t *testing.T) {
	const runs = 20000
	spec := testSpec(t, "suspend", runs, 2, 42)
	ref := refOutput(t, testSpec(t, "", runs, 1, 42))
	dir := t.TempDir()

	s, ts, cl := startServer(t, dir, Config{Executors: 1, CheckpointEvery: 200})
	if _, err := cl.Submit(spec); err != nil {
		t.Fatalf("submit: %v", err)
	}
	st := waitProgress(t, cl, "suspend", 500)
	s.Stop()
	ts.Close()

	// The final checkpoint must cover everything merged at suspension:
	// no progress may be lost on a graceful stop.
	cp := LoadCheckpoint(filepath.Join(dir, "jobs", "suspend"), "suspend", spec.Hash())
	if cp == nil {
		t.Fatal("no checkpoint after graceful stop")
	}
	if cp.Cursor < st.Done {
		t.Fatalf("final checkpoint cursor %d < %d merged before stop", cp.Cursor, st.Done)
	}

	s2, ts2, cl2 := startServer(t, dir, Config{Executors: 1, CheckpointEvery: 200})
	defer ts2.Close()
	defer s2.Stop()
	fin := waitTerminal(t, cl2, "suspend")
	if fin.State != StateDone {
		t.Fatalf("resumed job ended %s: %s", fin.State, fin.Error)
	}
	determtest.Check(t, "stop+resume vs CLI", ref, jobOutput(t, cl2, "suspend"))
}

// TestCampaignServeCorruptCheckpointRestart: a crash that damages a
// segment in the middle of the journal resumes at the segment before
// it; damaging the header restarts the job from scratch. Either way
// the final outputs are byte-identical to the CLI path — corruption
// costs progress, never correctness.
func TestCampaignServeCorruptCheckpointRestart(t *testing.T) {
	const runs = 20000
	spec := testSpec(t, "bitrot", runs, 2, 42)
	ref := refOutput(t, testSpec(t, "", runs, 1, 42))
	dir := t.TempDir()

	s, ts, cl := startServer(t, dir, Config{Executors: 1, CheckpointEvery: 100})
	if _, err := cl.Submit(spec); err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Several segments must exist before the kill so the damaged one
	// has a verified prefix before it.
	waitProgress(t, cl, "bitrot", 500)
	s.Kill()
	ts.Close()

	jobDir := filepath.Join(dir, "jobs", "bitrot")
	whole := LoadCheckpoint(jobDir, "bitrot", spec.Hash())
	if whole == nil {
		t.Fatal("no checkpoint on disk after kill")
	}
	cur := filepath.Join(jobDir, checkpointFile)
	b := readFile(t, cur)
	b[len(b)/2] ^= 0x01 // bit-flip mid-journal
	writeFile(t, cur, b)
	if cp := LoadCheckpoint(jobDir, "bitrot", spec.Hash()); cp == nil || cp.Cursor == 0 || cp.Cursor >= whole.Cursor {
		t.Fatalf("corrupt middle segment did not fall back to an earlier segment (whole journal at %d)", whole.Cursor)
	}

	s2, ts2, cl2 := startServer(t, dir, Config{Executors: 1, CheckpointEvery: 100})
	defer ts2.Close()
	defer s2.Stop()
	fin := waitTerminal(t, cl2, "bitrot")
	if fin.State != StateDone {
		t.Fatalf("recovered job ended %s: %s", fin.State, fin.Error)
	}
	determtest.Check(t, "corrupt-checkpoint restart vs CLI", ref, jobOutput(t, cl2, "bitrot"))
}

// TestCampaignServeScratchRestart: when the journal's header is
// destroyed no segment can be trusted, and recovery restarts the job
// from run zero and still matches the CLI byte for byte.
func TestCampaignServeScratchRestart(t *testing.T) {
	const runs = 2000
	spec := testSpec(t, "scratch", runs, 2, 42)
	ref := refOutput(t, testSpec(t, "", runs, 1, 42))
	dir := t.TempDir()

	s, ts, cl := startServer(t, dir, Config{Executors: 1, CheckpointEvery: 100})
	if _, err := cl.Submit(spec); err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitProgress(t, cl, "scratch", 300)
	s.Kill()
	ts.Close()

	jobDir := filepath.Join(dir, "jobs", "scratch")
	cur := filepath.Join(jobDir, checkpointFile)
	b := readFile(t, cur)
	b[len(`{"job":"`)] ^= 0x01 // the job id in the header
	writeFile(t, cur, b)
	if cp := LoadCheckpoint(jobDir, "scratch", spec.Hash()); cp != nil {
		t.Fatalf("journal with a corrupt header loaded at cursor %d", cp.Cursor)
	}

	s2, ts2, cl2 := startServer(t, dir, Config{Executors: 1, CheckpointEvery: 100})
	defer ts2.Close()
	defer s2.Stop()
	fin := waitTerminal(t, cl2, "scratch")
	if fin.State != StateDone {
		t.Fatalf("recovered job ended %s: %s", fin.State, fin.Error)
	}
	determtest.Check(t, "scratch restart vs CLI", ref, jobOutput(t, cl2, "scratch"))
}

// TestServeQueueSaturation: submissions beyond the queue bound get
// 429 + Retry-After while the running job keeps merging and its SSE
// stream keeps flowing — backpressure never blocks the execution path
// or in-flight consumers.
func TestServeQueueSaturation(t *testing.T) {
	s, ts, cl := startServer(t, t.TempDir(), Config{Executors: 1, QueueCap: 2, CheckpointEvery: 1000})
	defer ts.Close()
	defer s.Stop()

	// Occupy the single executor with a long job, then fill the queue.
	long := testSpec(t, "long", 40000, 2, 42)
	if _, err := cl.Submit(long); err != nil {
		t.Fatalf("submit long: %v", err)
	}
	waitProgress(t, cl, "long", 1)
	// Seeds 1 and 2 at 400 runs are known to pass the i.i.d. gate (the
	// concurrent-jobs suite runs them); this test is about queue
	// mechanics, not analysis statistics.
	for i := 0; i < 2; i++ {
		if _, err := cl.Submit(testSpec(t, "", 400, 1, uint64(1+i))); err != nil {
			t.Fatalf("fill queue %d: %v", i, err)
		}
	}

	// Saturated: the next submission is rejected with backpressure.
	_, err := cl.Submit(testSpec(t, "", 400, 1, 99))
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated submit returned %v, want 429", err)
	}
	if se.RetryAfter < 1 {
		t.Fatalf("429 without usable Retry-After (%d)", se.RetryAfter)
	}

	// The running job is still merging under saturation.
	before, err := cl.Status("long")
	if err != nil {
		t.Fatal(err)
	}
	waitProgress(t, cl, "long", before.Done+100)

	// And its SSE stream still serves snapshot + deltas.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/jobs/long/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("SSE connect under saturation: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var sawSnapshot, sawDelta bool
	for sc.Scan() && !(sawSnapshot && sawDelta) {
		line := sc.Text()
		if strings.HasPrefix(line, "event: snapshot") {
			sawSnapshot = true
		}
		if strings.HasPrefix(line, "event: delta") {
			sawDelta = true
		}
	}
	if !sawSnapshot || !sawDelta {
		t.Fatalf("SSE under saturation: snapshot=%v delta=%v", sawSnapshot, sawDelta)
	}

	// Drain: cancel the long job; the queued jobs then run to done.
	if _, err := cl.Cancel("long"); err != nil {
		t.Fatal(err)
	}
	sts, err := listJobs(cl)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sts {
		if st.ID == "long" {
			continue
		}
		if fin := waitTerminal(t, cl, st.ID); fin.State != StateDone {
			t.Fatalf("queued job %s ended %s: %s", st.ID, fin.State, fin.Error)
		}
	}
}

// listJobs fetches GET /jobs.
func listJobs(cl *Client) ([]JobStatus, error) {
	var sts []JobStatus
	err := cl.do(http.MethodGet, "/jobs", nil, &sts)
	return sts, err
}
