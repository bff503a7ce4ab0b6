package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dsr/internal/analysis"
	"dsr/internal/asm"
	"dsr/internal/cpu"
	"dsr/internal/host"
	"dsr/internal/platform"
	"dsr/internal/prog"
	"dsr/internal/telemetry"
)

// TestSpecValidateRejectsUnsafeID: the job id becomes a directory name
// under DataDir/jobs/, so Validate must reject anything that is not a
// single safe path segment before it can reach the filesystem.
func TestSpecValidateRejectsUnsafeID(t *testing.T) {
	src := testSource(t)
	bad := []string{
		"../evil", "..", ".", "a/b", `a\b`, "a b", "a\x00b",
		"../../../../tmp/evil", strings.Repeat("x", 65),
	}
	for _, id := range bad {
		sp := Spec{ID: id, Source: src, Runs: 600, Seed: 1}
		if _, err := sp.Validate(); err == nil {
			t.Errorf("Validate accepted unsafe id %q", id)
		}
	}
	good := []string{"job-0", "A.b_c-9", strings.Repeat("x", 64)}
	for _, id := range good {
		sp := Spec{ID: id, Source: src, Runs: 600, Seed: 1}
		if _, err := sp.Validate(); err != nil {
			t.Errorf("Validate rejected id %q: %v", id, err)
		}
	}
}

// TestSpecValidateBoundsRuns: Run sizes a job's result slice by its
// runs count, so Validate must refuse a count above MaxRuns before any
// job is created (checked through Validate only: such a job is never
// run), and still admit MaxRuns itself.
func TestSpecValidateBoundsRuns(t *testing.T) {
	src := testSource(t)
	for _, runs := range []int{0, -1, MaxRuns + 1, 1_000_000_000_000} {
		sp := Spec{Source: src, Runs: runs, Seed: 1}
		if _, err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "runs must be in") {
			t.Errorf("Validate(runs=%d) = %v, want the runs-range error", runs, err)
		}
	}
	sp := Spec{Source: src, Runs: MaxRuns, Seed: 1}
	if _, err := sp.Validate(); err != nil {
		t.Errorf("Validate rejected runs=MaxRuns: %v", err)
	}
}

// TestSpecValidateBoundsBlockSize: 4 blocks of 1<<62 runs overflow
// int, so a multiplying guard would wrap and admit a job whose every
// run executes before the analysis fails; Validate must refuse it.
func TestSpecValidateBoundsBlockSize(t *testing.T) {
	src := testSource(t)
	for _, bs := range []int{51, 1 << 61, 1 << 62, math.MaxInt} {
		sp := Spec{Source: src, Runs: 200, Seed: 1, BlockSize: bs}
		if _, err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "too few for MBPTA block size") {
			t.Errorf("Validate(runs=200, block_size=%d) = %v, want the block-size error", bs, err)
		}
	}
	sp := Spec{Source: src, Runs: 200, Seed: 1, BlockSize: 50}
	if _, err := sp.Validate(); err != nil {
		t.Errorf("Validate rejected runs=200, block_size=50: %v", err)
	}
}

// TestSpecValidateBoundsWorkers: every worker builds its own platform
// and DSR runtime, so Validate must refuse a pool above MaxWorkers
// (checked through Validate only: no such pool is ever started), and
// still admit MaxWorkers itself.
func TestSpecValidateBoundsWorkers(t *testing.T) {
	src := testSource(t)
	for _, w := range []int{MaxWorkers + 1, 1 << 40} {
		sp := Spec{Source: src, Runs: 600, Seed: 1, Workers: w}
		if _, err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "workers must be at most") {
			t.Errorf("Validate(workers=%d) = %v, want the workers error", w, err)
		}
	}
	sp := Spec{Source: src, Runs: 600, Seed: 1, Workers: MaxWorkers}
	if _, err := sp.Validate(); err != nil {
		t.Errorf("Validate rejected workers=MaxWorkers: %v", err)
	}
}

// TestServeSubmitPathTraversal: a submission whose id tries to escape
// the data directory is rejected with 400 and must not create or write
// anything anywhere on disk.
func TestServeSubmitPathTraversal(t *testing.T) {
	dir := t.TempDir()
	s, ts, cl := startServer(t, dir, Config{Executors: 1})
	defer ts.Close()
	defer s.Stop()

	_, err := cl.Submit(testSpec(t, "../../escaped", 600, 1, 42))
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("traversal submit returned %v, want 400", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "..", "escaped")); !os.IsNotExist(err) {
		t.Fatalf("traversal submit escaped the data dir: %v", err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("traversal submit left %d entries in the jobs dir", len(entries))
	}
}

// TestCampaignServeResubmitFreshViewAndCursor: re-enqueuing a
// cancelled job must hand SSE clients a fresh live view (not the
// previous attempt's terminated stream) and report the checkpoint
// cursor as its done count until the executor starts replaying.
func TestCampaignServeResubmitFreshViewAndCursor(t *testing.T) {
	const runs = 40000
	spec := testSpec(t, "fresh", runs, 2, 42)
	dir := t.TempDir()
	s, ts, cl := startServer(t, dir, Config{Executors: 1, CheckpointEvery: 100})
	defer ts.Close()
	defer s.Stop()

	if _, err := cl.Submit(spec); err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitProgress(t, cl, "fresh", 300)
	if _, err := cl.Cancel("fresh"); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if st := waitTerminal(t, cl, "fresh"); st.State != StateCancelled {
		t.Fatalf("cancelled job ended %s", st.State)
	}
	cp := LoadCheckpoint(filepath.Join(dir, "jobs", "fresh"), "fresh", spec.Hash())
	if cp == nil || cp.Cursor == 0 {
		t.Fatal("no checkpoint on disk after mid-flight cancel")
	}

	st, err := cl.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if st.State != StateQueued {
		t.Fatalf("resubmit state = %s, want %s", st.State, StateQueued)
	}
	if st.Done != cp.Cursor {
		t.Fatalf("resubmit reported done=%d, want checkpoint cursor %d", st.Done, cp.Cursor)
	}

	// The re-run's view must be live: no inherited ended flag, no stale
	// finished-series summaries from the cancelled attempt.
	s.mu.Lock()
	view := s.jobs["fresh"].view
	s.mu.Unlock()
	snap := view.Snapshot()
	if snap.Ended {
		t.Fatal("re-enqueued job's SSE view still reports ended")
	}
	if len(snap.Finished) != 0 {
		t.Fatalf("re-enqueued job's SSE view carries %d stale series summaries", len(snap.Finished))
	}
}

// TestJobTracerKeepsLiveStateOnly: the job table holds a finished job
// for the daemon's lifetime, so its tracer must keep no span timeline
// (nothing reads one) while its live view still counts every run.
func TestJobTracerKeepsLiveStateOnly(t *testing.T) {
	const runs = 120
	spec := testSpec(t, "live", runs, 2, 7)
	s, ts, cl := startServer(t, t.TempDir(), Config{Executors: 1})
	defer ts.Close()
	defer s.Stop()

	if _, err := cl.Submit(spec); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st := waitTerminal(t, cl, "live"); st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	s.mu.Lock()
	j := s.jobs["live"]
	s.mu.Unlock()
	if spans := j.tracer.Spans(); spans != nil {
		t.Fatalf("finished job's tracer holds %d spans, want none", len(spans))
	}
	var done uint64
	for _, w := range j.view.Snapshot().Workers {
		done += w.Runs
	}
	if done != runs {
		t.Fatalf("live view counts %d runs across workers, want %d", done, runs)
	}
}

// TestCampaignServeCheckpointFailureCadence: when checkpoint writes
// start failing (here: the job directory vanishes mid-run, which works
// even as root, unlike a chmod), the job still reaches a terminal state
// and the daemon retries at the checkpoint cadence — one attempt per
// boundary, not one per merged point.
func TestCampaignServeCheckpointFailureCadence(t *testing.T) {
	const runs, every = 6000, 50
	var mu sync.Mutex
	ckptErrs := 0
	logf := func(format string, args ...any) {
		if strings.Contains(fmt.Sprintf(format, args...), ": checkpoint: ") {
			mu.Lock()
			ckptErrs++
			mu.Unlock()
		}
	}
	data := t.TempDir()
	s, ts, cl := startServer(t, data, Config{Executors: 1, CheckpointEvery: every, Logf: logf})
	defer ts.Close()
	defer s.Stop()

	if _, err := cl.Submit(testSpec(t, "vanish", runs, 2, 42)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitProgress(t, cl, "vanish", 2*every)
	dir := filepath.Join(data, "jobs", "vanish")
	// A checkpoint being written concurrently can refill the directory;
	// retry until it is gone.
	for {
		if err := os.RemoveAll(dir); err == nil {
			if _, err := os.Stat(dir); os.IsNotExist(err) {
				break
			}
		}
	}
	st := waitTerminal(t, cl, "vanish")
	mu.Lock()
	logged := ckptErrs
	mu.Unlock()
	counted := s.Registry().Counter("dsrserve_checkpoint_errors_total", telemetry.Labels{"job": "vanish"}).Value()
	t.Logf("job ended %s at %d runs; %d checkpoint errors logged, %d counted", st.State, st.Done, logged, counted)
	if logged == 0 || uint64(logged) != counted {
		t.Fatalf("%d checkpoint errors logged, %d counted: want equal and non-zero", logged, counted)
	}
	if limit := runs/every + 1; logged > limit {
		t.Fatalf("%d checkpoint errors logged, want at most %d (one per %d-run boundary)", logged, limit, every)
	}
}

// addrSource exits with the DSR-placed address of buf, so its exit
// word differs with every layout: a program with no golden model.
const addrSource = `.program addr
.entry main

.data buf size=64 align=8
.word 1 2 3 4

.func main frame=96
    save 96
    ipoint 1
    set buf, %o0
    ipoint 2
    halt
`

// TestServeRunsProgramWithoutGoldenModel: a job's runs are measured,
// never checked — serve's task has no input and no golden model. A job
// whose exit word moves with the layout completes, with the same
// points and telemetry at every worker count.
func TestServeRunsProgramWithoutGoldenModel(t *testing.T) {
	task := host.Task{Name: "addr", Build: func() (*prog.Program, error) { return asm.Assemble(addrSource) }}
	h, err := host.New(platform.ProximaLEON3(), host.DSR, task, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range []uint32{0x54005b30, 0x54001608, 0x540042b8} {
		if err := h.Prepare(k, uint64(k+1)); err != nil {
			t.Fatal(err)
		}
		if res, _, err := h.Run(cpu.NoBudget); err != nil || res.ExitValue != want {
			t.Fatalf("layout seed %d: exit word %#x, %v; want %#x", k+1, res.ExitValue, err, want)
		}
	}

	s, ts, cl := startServer(t, t.TempDir(), Config{Executors: 1})
	defer ts.Close()
	defer s.Stop()
	var points [2][]Point
	var telem [2][]byte
	for w := 1; w <= 2; w++ {
		id := fmt.Sprintf("addr-w%d", w)
		if _, err := cl.Submit(Spec{ID: id, Source: addrSource, Runs: 200, Seed: 1, Workers: w}); err != nil {
			t.Fatalf("submit: %v", err)
		}
		if st := waitTerminal(t, cl, id); st.State != StateDone {
			t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
		}
		if points[w-1], err = cl.Points(id); err != nil {
			t.Fatal(err)
		}
		if telem[w-1], err = cl.Telemetry(id); err != nil {
			t.Fatal(err)
		}
	}
	if len(points[0]) != 200 || !reflect.DeepEqual(points[0], points[1]) {
		t.Errorf("points differ between 1 and 2 workers (%d vs %d points)", len(points[0]), len(points[1]))
	}
	if !bytes.Equal(telem[0], telem[1]) {
		t.Error("telemetry bytes differ between 1 and 2 workers")
	}
}

// TestVerifyErrorNamesEveryError: dsrrun prints Validate's error as its
// refusal, so a failed transform verification names each Error
// diagnostic, not only the first, and no lesser finding.
func TestVerifyErrorNamesEveryError(t *testing.T) {
	if err := verifyError([]analysis.Diagnostic{{Pass: "dsr-verify", Sev: analysis.Warning, Msg: "w"}}); err != nil {
		t.Fatalf("a warning alone failed verification: %v", err)
	}
	err := verifyError([]analysis.Diagnostic{
		{Pass: "dsr-verify", Sev: analysis.Error, Fn: "main", Index: 3, Msg: "first error"},
		{Pass: "dsr-verify", Sev: analysis.Warning, Fn: "main", Index: 4, Msg: "a warning"},
		{Pass: "dsr-verify", Sev: analysis.Error, Fn: "fold", Index: 1, Msg: "second error"},
	})
	if err == nil {
		t.Fatal("two Error diagnostics passed verification")
	}
	for _, want := range []string{"main+3: first error", "fold+1: second error"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "a warning") {
		t.Errorf("error %q names a warning", err)
	}
}

// TestServeRecoverInvalidSpecFails: a queued job whose spec on disk no
// longer validates is registered as failed with Validate's error, with
// that state persisted, and never runs; a valid job beside it still
// completes.
func TestServeRecoverInvalidSpecFails(t *testing.T) {
	dir := t.TempDir()
	bad := testSpec(t, "bad", 10, 1, 42) // too few runs for any block size
	good := testSpec(t, "good", 200, 1, 42)
	for _, sp := range []Spec{bad, good} {
		jd := filepath.Join(dir, "jobs", sp.ID)
		if err := os.MkdirAll(jd, 0o755); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(jd, "spec.json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, want := bad.Validate()
	if want == nil {
		t.Fatal("the bad spec validates")
	}

	s, ts, cl := startServer(t, dir, Config{Executors: 1})
	defer ts.Close()
	defer s.Stop()
	st, err := cl.Status("bad")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.Error != want.Error() || st.Name != "bad" {
		t.Fatalf("recovered invalid job: state %s, error %q, name %q; want failed, %q, bad", st.State, st.Error, st.Name, want)
	}
	var ps persistedState
	if b, err := os.ReadFile(filepath.Join(dir, "jobs", "bad", "state.json")); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(b, &ps); err != nil || ps.State != StateFailed {
		t.Fatalf("persisted state %+v, %v; want failed", ps, err)
	}
	if st := waitTerminal(t, cl, "good"); st.State != StateDone {
		t.Fatalf("valid job ended %s: %s", st.State, st.Error)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", "bad", "report.txt")); !os.IsNotExist(err) {
		t.Fatalf("the invalid job ran: %v", err)
	}
}
