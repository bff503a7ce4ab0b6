package experiments

import (
	"runtime"
	"testing"

	"dsr/internal/host"
	"dsr/internal/platform"
	"dsr/internal/spaceapp"
)

// TestPrepareAllocations pins the steady state of a run's input: once a
// host has prepared a run, preparing the next one (restore the booted
// image, draw and apply the input, compute its golden word) allocates
// nothing in proportion to the input, for the control task's sensor
// frame and for the processing task's 166 KB scene alike. A DSR
// control host, once every memory page its layouts touch exists,
// allocates nothing at all per Prepare: the reboot (layout draw, image
// rebuild, memory clear, metadata writes) and the input reuse what the
// previous runs built.
func TestPrepareAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	const runs, limit = 50, 1024
	cfg := DefaultConfig()
	for _, tk := range []host.Task{ControlTask, processingTask(spaceapp.LitFraction)} {
		h, err := cfg.newHost(platform.ProximaLEON3(), fixedLayout, tk)
		if err != nil {
			t.Fatal(err)
		}
		// Settle the heap the host's construction left, then prepare one
		// run to take the buffers the collection may have dropped from
		// the pool: no collection is pending while the runs are counted.
		runtime.GC()
		if err := h.Prepare(0, h.Seed(0)); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 1; i <= runs; i++ {
			if err := h.Prepare(i, h.Seed(i)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d bytes allocated per Prepare", tk.Name, per)
		if per >= limit {
			t.Errorf("%s: %d bytes allocated per Prepare, want under %d", tk.Name, per, limit)
		}
	}

	// Page creation has a long tail (a rare layout reaches a page no
	// earlier one touched), so the counted Prepares replay runs the
	// warm-up already prepared: same layouts, same pages.
	h, err := cfg.newHost(platform.ProximaLEON3(), host.DSR, ControlTask)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= runs; i++ {
		if err := h.Prepare(i, h.Seed(i)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	if err := h.Prepare(0, h.Seed(0)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= runs; i++ {
		if err := h.Prepare(i, h.Seed(i)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("DSR control: %d allocations (%d bytes) in %d Prepares", allocs, bytes, runs)
	if allocs != 0 {
		t.Errorf("DSR control: %d allocations (%d bytes) in %d Prepares, want 0", allocs, bytes, runs)
	}
}
