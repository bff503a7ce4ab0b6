package campaign

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"dsr/internal/telemetry"
)

// ErrInterrupted is returned by Execute when the campaign stopped
// because Config.Interrupt fired before every run merged. It is a
// cooperative stop, not a failure: every run merged before the
// interruption is valid (and, being a pure function of its canonical
// index, byte-identical to what an uninterrupted campaign would have
// merged), so callers may checkpoint the merged prefix and later
// resume from it with Config.First.
var ErrInterrupted = errors.New("campaign: interrupted")

// PanicError is a panic in newWorker or a RunFunc, turned into an error
// so that a faulty run fails its campaign instead of the process. It
// resolves like any other error of its index.
type PanicError struct {
	// Index is the run that panicked, or -1 for worker construction.
	Index int
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	what := fmt.Sprintf("run %d", e.Index)
	if e.Index < 0 {
		what = "worker construction"
	}
	return fmt.Sprintf("campaign: %s panicked: %v\n%s", what, e.Value, e.Stack)
}

// recoverAt turns a panic in progress into a *PanicError for index and
// stores it in *err. It must be deferred directly.
func recoverAt(index int, err *error) {
	if v := recover(); v != nil {
		*err = &PanicError{Index: index, Value: v, Stack: debug.Stack()}
	}
}

// newSafeWorker calls newWorker(w), turning a panic into an error.
func newSafeWorker[R any](newWorker func(w int) (RunFunc[R], error), w int) (run RunFunc[R], err error) {
	defer recoverAt(-1, &err)
	return newWorker(w)
}

// safeRun calls run(i), turning a panic into that run's error.
func safeRun[R any](run RunFunc[R], i int) (r R, err error) {
	defer recoverAt(i, &err)
	return run(i)
}

// RunObserver receives a campaign's live progress feed (satisfied by
// *obs.Campaign). All calls arrive from the merge goroutine in
// canonical run order; a run's index is its canonical campaign index,
// and uoa is its merged unit-of-analysis duration in cycles.
// Observation is strictly one-way: an observer cannot influence the
// merge.
type RunObserver interface {
	BeginSeries(series string, total int)
	ObserveRun(series string, index int, uoa float64)
	EndSeries(series string)
}

// Config dimensions an engine execution.
type Config struct {
	// Runs is the number of independent runs to execute (canonical
	// indices 0..Runs-1).
	Runs int
	// First is the resume cursor: the engine executes and merges only
	// indices First..Runs-1, assuming the caller already holds the
	// merged results of 0..First-1 (from a checkpoint). Because every
	// run is a pure function of its canonical index, a resumed campaign
	// merges exactly what the original would have merged from that
	// point on. Zero (the default) runs the whole campaign.
	First int
	// Interrupt, when non-nil, requests a cooperative stop when it
	// becomes receivable (typically by closing it): the engine stops
	// handing out new runs, drains in-flight ones, merges any contiguous
	// completed prefix, and returns ErrInterrupted. Run and merge errors
	// take precedence over the interruption.
	Interrupt <-chan struct{}
	// Workers is the worker-pool size: 0 (or negative) selects
	// runtime.NumCPU(), 1 selects the legacy strictly sequential path
	// (no goroutines, runs executed inline on the caller's goroutine).
	// The engine's determinism invariant guarantees the merged output is
	// byte-identical for every worker count.
	Workers int
	// Tracer, when non-nil, records a host wall-time span timeline of
	// the execution: a campaign span plus merge/merge.wait spans on the
	// campaign track (worker -1), and worker/setup/claim/run spans per
	// worker. Run functions can nest phase spans (boot, reloc, execute)
	// under their run span via Tracer.Worker(w). Tracing never affects
	// campaign results — spans live on the host clock, outside the
	// deterministic telemetry dump.
	Tracer *telemetry.Tracer
}

// WorkerCount resolves the effective pool size: Workers, defaulted to
// runtime.NumCPU() and clamped to [1, remaining runs].
func (c Config) WorkerCount() int {
	w := c.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if rem := c.Runs - c.First; rem > 0 && w > rem {
		w = rem
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RunFunc executes one run by canonical index on worker-private state
// and returns its result. It is called from a single goroutine per
// worker, but different workers call their own RunFunc concurrently:
// implementations must not share mutable state across workers.
type RunFunc[R any] func(i int) (R, error)

// MergeFunc folds one run's result into the campaign output. The
// engine calls it exactly once per index, in canonical order 0, 1, 2,
// ..., always from the caller's goroutine — so merge code may touch
// non-thread-safe campaign state (telemetry registries, event logs,
// result slices) without locking. Results stream into the merge as
// soon as their canonical predecessor has merged; the engine does not
// wait for the whole campaign before merging the first run.
type MergeFunc[R any] func(i int, r R) error

// Execute shards cfg.Runs independent runs across cfg.Workers workers
// and merges the results in canonical order.
//
// newWorker is called once per worker (with the worker id) to build
// worker-private state — typically a fresh platform instance plus a DSR
// runtime — and returns the worker's RunFunc. Run indices are assigned
// dynamically (a shared counter), which keeps all workers busy even
// when run times vary; determinism is unaffected because every run is a
// pure function of its canonical index.
//
// On error — from newWorker, a run, or the merge — the engine stops
// handing out new runs, drains in-flight ones, and returns the error
// belonging to the smallest canonical index (worker construction
// errors, which have no index, take precedence). A panic in newWorker
// or a run is such an error, a *PanicError. The merge is never invoked
// for indices at or beyond a failed run, and when a run fails it is
// invoked for every index before it, as on the sequential path.
func Execute[R any](cfg Config, newWorker func(w int) (RunFunc[R], error), merge MergeFunc[R]) error {
	n := cfg.Runs
	if n < 0 {
		return fmt.Errorf("campaign: negative run count %d", n)
	}
	first := cfg.First
	if first < 0 {
		return fmt.Errorf("campaign: negative resume cursor %d", first)
	}
	if first > n {
		return fmt.Errorf("campaign: resume cursor %d beyond run count %d", first, n)
	}
	if n == 0 || first == n {
		return nil
	}
	ct := cfg.Tracer.Worker(-1)
	campaign := ct.Begin(telemetry.SpanCampaign, -1)
	defer ct.End(campaign)
	if cfg.WorkerCount() == 1 {
		return executeSequential(first, n, cfg.Interrupt, cfg.Tracer, newWorker, merge)
	}
	return executeParallel(first, n, cfg.WorkerCount(), cfg.Interrupt, cfg.Tracer, newWorker, merge)
}

// interrupted reports whether the interrupt channel has fired; a nil
// channel never fires.
func interrupted(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// executeSequential is the legacy path (Workers=1): one worker, runs
// executed inline in canonical order on the caller's goroutine. It is
// the reference the determinism tests compare the parallel path
// against.
func executeSequential[R any](first, n int, interrupt <-chan struct{}, tr *telemetry.Tracer, newWorker func(w int) (RunFunc[R], error), merge MergeFunc[R]) error {
	wt, ct := tr.Worker(0), tr.Worker(-1)
	ws := wt.Begin(telemetry.SpanWorker, -1)
	defer wt.End(ws)
	setup := wt.Begin(telemetry.SpanSetup, -1)
	run, err := newSafeWorker(newWorker, 0)
	wt.End(setup)
	if err != nil {
		return err
	}
	for i := first; i < n; i++ {
		if interrupted(interrupt) {
			return ErrInterrupted
		}
		rs := wt.Begin(telemetry.SpanRun, i)
		r, err := safeRun(run, i)
		wt.End(rs)
		if err != nil {
			return err
		}
		if merge != nil {
			ms := ct.Begin(telemetry.SpanMerge, i)
			err := merge(i, r)
			ct.End(ms)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// indexedError is an error tagged with the canonical index it occurred
// at, so that concurrent failures resolve deterministically to the one
// the sequential path would have hit first.
type indexedError struct {
	index int // run index; -1 for worker-construction errors
	err   error
}

// executeParallel is the worker-pool path. Results land in a pre-sized
// slice guarded by a mutex + condvar; the caller's goroutine walks the
// slice in canonical order, handing each completed result to merge as
// soon as it is available.
func executeParallel[R any](first, n, workers int, interrupt <-chan struct{}, tr *telemetry.Tracer, newWorker func(w int) (RunFunc[R], error), merge MergeFunc[R]) error {
	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		results = make([]R, n)
		done    = make([]bool, n)
		next    = first // next unassigned run index
		stopped bool    // no further runs may be claimed
		stopReq bool    // Interrupt fired
		failAt  = n     // smallest failed run index
		errs    []indexedError
		wg      sync.WaitGroup
	)
	fail := func(index int, err error) {
		// called with mu held
		errs = append(errs, indexedError{index: index, err: err})
		if index >= 0 && index < failAt {
			failAt = index
		}
		stopped = true
		cond.Broadcast()
	}
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		// An interrupt only counts while unclaimed work remains: once every
		// run has been handed out, the campaign completes normally — there
		// is nothing left to cut short.
		if !stopped && next < n && interrupted(interrupt) {
			stopped, stopReq = true, true
			cond.Broadcast()
		}
		if stopped || next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wt := tr.Worker(w)
			ws := wt.Begin(telemetry.SpanWorker, -1)
			defer wt.End(ws)
			setup := wt.Begin(telemetry.SpanSetup, -1)
			run, err := newSafeWorker(newWorker, w)
			wt.End(setup)
			if err != nil {
				mu.Lock()
				fail(-1, err)
				mu.Unlock()
				return
			}
			for {
				cl := wt.Begin(telemetry.SpanClaim, -1)
				i, ok := claim()
				wt.End(cl)
				if !ok {
					return
				}
				rs := wt.Begin(telemetry.SpanRun, i)
				r, err := safeRun(run, i)
				wt.End(rs)
				mu.Lock()
				if err != nil {
					fail(i, err)
					mu.Unlock()
					return
				}
				results[i], done[i] = r, true
				cond.Broadcast()
				mu.Unlock()
			}
		}(w)
	}

	// Canonical-order streaming merge on the caller's goroutine.
	ct := tr.Worker(-1)
	var mergeErr error
	mu.Lock()
	for i := first; i < n; i++ {
		mw := ct.Begin(telemetry.SpanMergeWait, i)
		// After a stop, only a run below a failed one is still awaited:
		// runs are claimed in index order, so it is in flight and
		// completes or fails, and the merge then holds every run before
		// the failure, as on the sequential path.
		for !done[i] && (!stopped || i < failAt && failAt < n) {
			cond.Wait()
		}
		ct.End(mw)
		if !done[i] {
			break // stopped before run i completed
		}
		r := results[i]
		mu.Unlock()
		if merge != nil {
			ms := ct.Begin(telemetry.SpanMerge, i)
			if err := merge(i, r); err != nil {
				mergeErr = err
			}
			ct.End(ms)
		}
		mu.Lock()
		if mergeErr != nil {
			stopped = true
			break
		}
	}
	stopped = true
	mu.Unlock()
	wg.Wait()

	if mergeErr != nil {
		return mergeErr
	}
	if err := firstError(errs); err != nil {
		return err
	}
	if stopReq {
		return ErrInterrupted
	}
	return nil
}

// firstError resolves concurrent failures deterministically: worker
// construction errors first, then the error with the smallest run
// index — the one the sequential path would have reported.
func firstError(errs []indexedError) error {
	var best *indexedError
	for i := range errs {
		e := &errs[i]
		if best == nil {
			best = e
			continue
		}
		switch {
		case e.index == -1 && best.index != -1:
			best = e
		case e.index != -1 && best.index != -1 && e.index < best.index:
			best = e
		}
	}
	if best == nil {
		return nil
	}
	return best.err
}
