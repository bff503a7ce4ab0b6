package campaign

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsr/internal/telemetry"
)

// TestExecuteMergesInCanonicalOrder checks the core invariant at the
// engine level: whatever order runs complete in, merge sees indices
// 0, 1, 2, ... exactly once each.
func TestExecuteMergesInCanonicalOrder(t *testing.T) {
	const n = 200
	for _, workers := range []int{1, 2, 3, 8, n} {
		var order []int
		err := Execute(Config{Runs: n, Workers: workers},
			func(w int) (RunFunc[int], error) {
				return func(i int) (int, error) {
					// Perturb completion order: later indices finish sooner.
					if i%7 == 0 {
						time.Sleep(time.Duration(i%3) * time.Microsecond)
					}
					return i * i, nil
				}, nil
			},
			func(i, r int) error {
				if r != i*i {
					t.Errorf("workers=%d: merge(%d) got %d, want %d", workers, i, r, i*i)
				}
				order = append(order, i)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("workers=%d: merge order %v", workers, order)
		}
	}
}

// TestExecuteWorkerPrivateState checks each worker gets its own state
// from its own newWorker call, and no worker id is constructed twice.
func TestExecuteWorkerPrivateState(t *testing.T) {
	const n, workers = 64, 4
	var mu sync.Mutex
	built := map[int]int{}
	err := Execute(Config{Runs: n, Workers: workers},
		func(w int) (RunFunc[int], error) {
			mu.Lock()
			built[w]++
			mu.Unlock()
			private := 0 // worker-local accumulator: data race here would trip -race
			return func(i int) (int, error) {
				private++
				return private, nil
			}, nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(built) != workers {
		t.Errorf("built %d workers, want %d", len(built), workers)
	}
	for w, c := range built {
		if c != 1 {
			t.Errorf("worker %d constructed %d times", w, c)
		}
	}
}

// TestExecuteRunError checks a failing run aborts the campaign with
// that error and never merges the failed index or anything after it.
func TestExecuteRunError(t *testing.T) {
	boom := errors.New("boom")
	const failAt = 10
	for _, workers := range []int{1, 4} {
		var merged []int
		err := Execute(Config{Runs: 32, Workers: workers},
			func(w int) (RunFunc[int], error) {
				return func(i int) (int, error) {
					if i == failAt {
						return 0, boom
					}
					return i, nil
				}, nil
			},
			func(i, r int) error {
				merged = append(merged, i)
				return nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		for _, i := range merged {
			if i >= failAt {
				t.Errorf("workers=%d: merged index %d at or beyond failed run %d", workers, i, failAt)
			}
		}
	}
}

// TestExecuteRunPanic checks a panicking run fails the campaign instead
// of the process: the error is a *PanicError naming the run, with the
// panic value and stack, and the merge holds exactly the runs before
// it. The run just before the panic is slow, so on the parallel path it
// is still in flight when the panic stops the campaign.
func TestExecuteRunPanic(t *testing.T) {
	const failAt = 10
	for _, workers := range []int{1, 4} {
		var merged []int
		err := Execute(Config{Runs: 32, Workers: workers},
			func(w int) (RunFunc[int], error) {
				return func(i int) (int, error) {
					switch i {
					case failAt - 1:
						time.Sleep(20 * time.Millisecond)
					case failAt:
						panic("boom")
					}
					return i, nil
				}, nil
			},
			func(i, r int) error {
				merged = append(merged, i)
				return nil
			})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want a *PanicError", workers, err)
		}
		if pe.Index != failAt || pe.Value != "boom" || !strings.Contains(string(pe.Stack), "TestExecuteRunPanic") {
			t.Errorf("workers=%d: panic error index %d value %v, stack:\n%s", workers, pe.Index, pe.Value, pe.Stack)
		}
		if want := fmt.Sprintf("campaign: run %d panicked: boom", failAt); !strings.HasPrefix(err.Error(), want) {
			t.Errorf("workers=%d: error %q does not start with %q", workers, err, want)
		}
		want := make([]int, failAt)
		for i := range want {
			want[i] = i
		}
		if !reflect.DeepEqual(merged, want) {
			t.Errorf("workers=%d: merged %v, want %v", workers, merged, want)
		}
	}
}

// TestExecuteNewWorkerPanic checks a panic while building a worker is a
// construction error, on both paths.
func TestExecuteNewWorkerPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := Execute(Config{Runs: 16, Workers: workers},
			func(w int) (RunFunc[int], error) {
				if w == workers-1 {
					panic(fmt.Sprintf("worker %d", w))
				}
				return func(i int) (int, error) { return i, nil }, nil
			}, nil)
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Index != -1 || pe.Value != fmt.Sprintf("worker %d", workers-1) {
			t.Fatalf("workers=%d: err = %v, want a construction *PanicError", workers, err)
		}
		if !strings.HasPrefix(err.Error(), "campaign: worker construction panicked") {
			t.Errorf("workers=%d: error %q", workers, err)
		}
	}
}

// TestExecuteDeterministicError checks concurrent failures resolve to
// the smallest-index error — the one the sequential path reports.
func TestExecuteDeterministicError(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		err := Execute(Config{Runs: 64, Workers: 8},
			func(w int) (RunFunc[int], error) {
				return func(i int) (int, error) {
					if i%5 == 3 { // fails at 3, 8, 13, ...
						return 0, fmt.Errorf("run %d failed", i)
					}
					return i, nil
				}, nil
			}, nil)
		if err == nil || err.Error() != "run 3 failed" {
			t.Fatalf("trial %d: err = %v, want run 3's error", trial, err)
		}
	}
}

// TestExecuteNewWorkerError checks worker-construction failures win
// over run errors and abort cleanly.
func TestExecuteNewWorkerError(t *testing.T) {
	build := errors.New("no platform")
	err := Execute(Config{Runs: 16, Workers: 4},
		func(w int) (RunFunc[int], error) {
			if w == 2 {
				return nil, build
			}
			return func(i int) (int, error) { return i, nil }, nil
		}, nil)
	if !errors.Is(err, build) {
		t.Fatalf("err = %v, want construction error", err)
	}
}

// TestExecuteMergeError checks a merge failure propagates and stops the
// campaign.
func TestExecuteMergeError(t *testing.T) {
	sink := errors.New("disk full")
	for _, workers := range []int{1, 4} {
		var last int32
		err := Execute(Config{Runs: 64, Workers: workers},
			func(w int) (RunFunc[int], error) {
				return func(i int) (int, error) { return i, nil }, nil
			},
			func(i, r int) error {
				atomic.StoreInt32(&last, int32(i))
				if i == 5 {
					return sink
				}
				return nil
			})
		if !errors.Is(err, sink) {
			t.Fatalf("workers=%d: err = %v, want merge error", workers, err)
		}
		if got := atomic.LoadInt32(&last); got != 5 {
			t.Errorf("workers=%d: merge continued to index %d after failing at 5", workers, got)
		}
	}
}

// TestExecuteEdgeCases covers the degenerate configurations.
func TestExecuteEdgeCases(t *testing.T) {
	var calls atomic.Int32 // newWorker runs on the worker goroutines
	noRuns := func(w int) (RunFunc[int], error) {
		calls.Add(1)
		return func(i int) (int, error) { return i, nil }, nil
	}
	if err := Execute(Config{Runs: 0, Workers: 4}, noRuns, nil); err != nil {
		t.Fatalf("Runs=0: %v", err)
	}
	if calls.Load() != 0 {
		t.Error("Runs=0 built a worker")
	}
	if err := Execute(Config{Runs: -1}, noRuns, nil); err == nil {
		t.Error("Runs=-1 did not error")
	}
	// Workers > Runs clamps rather than spawning idle goroutines.
	if got := (Config{Runs: 3, Workers: 64}).WorkerCount(); got != 3 {
		t.Errorf("WorkerCount clamp: got %d, want 3", got)
	}
	if got := (Config{Runs: 100, Workers: 0}).WorkerCount(); got != min(runtime.NumCPU(), 100) {
		t.Errorf("WorkerCount default: got %d", got)
	}
	// A nil merge is allowed (fire-and-forget campaigns).
	if err := Execute(Config{Runs: 8, Workers: 4}, noRuns, nil); err != nil {
		t.Fatalf("nil merge: %v", err)
	}
}

// TestExecuteStreamingMerge checks the merge does not wait for the
// whole campaign: with runs completing in index order, merge i must be
// able to run while runs > i are still executing. A buffered-barrier
// implementation would deadlock here, because run n-1 blocks until
// merge 0 has happened.
func TestExecuteStreamingMerge(t *testing.T) {
	const n = 8
	merged := make(chan int, n)
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- Execute(Config{Runs: n, Workers: 2},
			func(w int) (RunFunc[int], error) {
				return func(i int) (int, error) {
					if i == n-1 {
						<-release // last run parks until merge 0 observed
					}
					return i, nil
				}, nil
			},
			func(i, r int) error {
				merged <- i
				return nil
			})
	}()
	select {
	case i := <-merged:
		if i != 0 {
			t.Fatalf("first merge was %d", i)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("merge 0 never happened while run n-1 was in flight: merge is not streaming")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestExecuteTraced checks the engine's span instrumentation: both the
// sequential and parallel paths emit a valid, analyzable span timeline
// (campaign + worker/setup/run spans, claim + merge spans on the
// parallel path) covering every run exactly once.
func TestExecuteTraced(t *testing.T) {
	const n = 40
	for _, workers := range []int{1, 4} {
		tr := telemetry.NewTracer()
		err := Execute(Config{Runs: n, Workers: workers, Tracer: tr},
			func(w int) (RunFunc[int], error) {
				wt := tr.Worker(w)
				return func(i int) (int, error) {
					// Phase spans nested under the engine's run span must
					// inherit its run index.
					m := wt.Begin(telemetry.SpanExecute, -1)
					wt.End(m)
					return i, nil
				}, nil
			},
			func(i, r int) error { return nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		spans := tr.Spans()
		if _, err := telemetry.ValidateSpans(spans); err != nil {
			t.Fatalf("workers=%d: invalid spans: %v", workers, err)
		}
		counts := map[string]int{}
		execRuns := map[int]bool{}
		for _, s := range spans {
			counts[s.Kind]++
			if s.Kind == "execute" {
				if s.Run < 0 || s.Run >= n {
					t.Fatalf("workers=%d: execute span with run %d (not inherited)", workers, s.Run)
				}
				execRuns[s.Run] = true
			}
		}
		if counts["campaign"] != 1 || counts["run"] != n || counts["execute"] != n {
			t.Fatalf("workers=%d: span counts %v", workers, counts)
		}
		if counts["merge"] != n {
			t.Fatalf("workers=%d: %d merge spans, want %d", workers, counts["merge"], n)
		}
		if len(execRuns) != n {
			t.Fatalf("workers=%d: execute spans cover %d distinct runs, want %d", workers, len(execRuns), n)
		}
		if workers > 1 && (counts["claim"] == 0 || counts["merge.wait"] != n || counts["worker"] != workers) {
			t.Fatalf("workers=%d: parallel span counts %v", workers, counts)
		}
		rep, err := telemetry.AnalyzeSpans(spans)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.TotalRuns != n {
			t.Fatalf("workers=%d: report runs %d, want %d", workers, rep.TotalRuns, n)
		}
	}
}

// TestExecuteResumeFromCursor checks the checkpoint-resume contract:
// a campaign resumed at First=k merges exactly indices k..n-1, with
// results identical to the tail of an uninterrupted campaign, at every
// worker count.
func TestExecuteResumeFromCursor(t *testing.T) {
	const n, first = 40, 17
	run := func(w int) (RunFunc[int], error) {
		return func(i int) (int, error) { return i*i + 3, nil }, nil
	}
	for _, workers := range []int{1, 2, 8} {
		var order []int
		err := Execute(Config{Runs: n, First: first, Workers: workers}, run,
			func(i, r int) error {
				if r != i*i+3 {
					t.Errorf("workers=%d: merge(%d) got %d", workers, i, r)
				}
				order = append(order, i)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(order) != n-first {
			t.Fatalf("workers=%d: merged %d runs, want %d", workers, len(order), n-first)
		}
		for k, i := range order {
			if i != first+k {
				t.Fatalf("workers=%d: merge order %v not canonical from %d", workers, order, first)
			}
		}
	}
	// Degenerate cursors.
	if err := Execute(Config{Runs: 5, First: 5}, run, nil); err != nil {
		t.Fatalf("First==Runs should be a no-op, got %v", err)
	}
	if err := Execute(Config{Runs: 5, First: 6}, run, nil); err == nil {
		t.Fatal("First>Runs should error")
	}
	if err := Execute(Config{Runs: 5, First: -1}, run, nil); err == nil {
		t.Fatal("negative First should error")
	}
}

// TestExecuteInterrupt checks cooperative cancellation: after Interrupt
// fires the engine stops handing out runs, drains in-flight ones,
// merges only a contiguous canonical prefix (beyond the cursor), and
// returns ErrInterrupted.
func TestExecuteInterrupt(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 10000
		const gate = 100 // runs at or beyond this index block until the interrupt
		interrupt := make(chan struct{})
		var merged []int
		stopAt := 25
		err := Execute(Config{Runs: n, Workers: workers, Interrupt: interrupt},
			func(w int) (RunFunc[int], error) {
				return func(i int) (int, error) {
					if i >= gate {
						<-interrupt
					}
					return i, nil
				}, nil
			},
			func(i, r int) error {
				merged = append(merged, i)
				if len(merged) == stopAt {
					close(interrupt)
				}
				return nil
			})
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("workers=%d: err = %v, want ErrInterrupted", workers, err)
		}
		if len(merged) >= n || len(merged) < stopAt {
			t.Fatalf("workers=%d: merged %d runs", workers, len(merged))
		}
		for k, i := range merged {
			if i != k {
				t.Fatalf("workers=%d: merged prefix %v not contiguous", workers, merged[:k+1])
			}
		}
	}
}

// TestExecuteInterruptErrorPrecedence: a real run error wins over the
// interruption, preserving deterministic error resolution.
func TestExecuteInterruptErrorPrecedence(t *testing.T) {
	interrupt := make(chan struct{})
	close(interrupt) // fires immediately
	boom := errors.New("boom")
	err := Execute(Config{Runs: 8, Workers: 1, Interrupt: interrupt},
		func(w int) (RunFunc[int], error) { return nil, boom },
		nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want worker-construction error", err)
	}
}

// TestExecuteInterruptBeforeStart: an already-fired interrupt merges
// nothing.
func TestExecuteInterruptBeforeStart(t *testing.T) {
	interrupt := make(chan struct{})
	close(interrupt)
	var merged int
	err := Execute(Config{Runs: 8, Workers: 1, Interrupt: interrupt},
		func(w int) (RunFunc[int], error) {
			return func(i int) (int, error) { return i, nil }, nil
		},
		func(i, r int) error { merged++; return nil })
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if merged != 0 {
		t.Fatalf("merged %d runs after pre-fired interrupt", merged)
	}
}
