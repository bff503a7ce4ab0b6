package host

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"dsr/internal/bus"
	"dsr/internal/core"
	"dsr/internal/cpu"
	"dsr/internal/loader"
	"dsr/internal/platform"
	"dsr/internal/spaceapp"
)

// controlTask is the control partition with its sensor-frame input and
// golden model, so every compared run is also checked for function.
var controlTask = Task{
	Name:  "control",
	Build: spaceapp.BuildControl,
	Input: func(m *cpu.Memory, img *loader.Image, seed uint64) (uint32, error) {
		in := spaceapp.GenControlInput(seed)
		if err := spaceapp.ApplyControlInput(m, img, in); err != nil {
			return 0, err
		}
		return spaceapp.ControlReference(in), nil
	},
}

// TestObservedRebootLeavesRunUnchanged pins the premise that lets
// Reboot skip the boot-time relocation model when no event log reads
// it: the measured window re-flushes every cache and TLB and resets
// every counter, and the host reseeds the contention stream after the
// reboot, so the run after an observed reboot (event log attached,
// relocation traffic simulated) equals the run after an unobserved
// one — cycles, PMCs, trace, exit word and attribution — in both
// relocation modes, with attribution off and on, with and without bus
// contention. The observed reboot must report a non-zero boot cost.
func TestObservedRebootLeavesRunUnchanged(t *testing.T) {
	const runs = 24
	for _, mode := range []core.RelocationMode{core.Eager, core.Lazy} {
		for _, cont := range []*bus.Contention{nil, {Mode: bus.RandomContention, Intensity: 0.3, MaxDelay: 8}} {
			for _, att := range []bool{false, true} {
				name := fmt.Sprintf("%s/contention=%t/attribution=%t", mode, cont != nil, att)
				t.Run(name, func(t *testing.T) {
					pol := Policy{DSR: func() core.Options { return core.Options{Mode: mode} }, Contention: cont}
					plain, err := New(platform.ProximaLEON3(), pol, controlTask, 1, 1)
					if err != nil {
						t.Fatal(err)
					}
					observed, err := New(platform.ProximaLEON3(), pol, controlTask, 1, 1)
					if err != nil {
						t.Fatal(err)
					}
					plain.Observe(att, nil, false)
					observed.Observe(att, nil, true)
					for i := 0; i < runs; i++ {
						want := prepareRun(t, plain, i)
						got := prepareRun(t, observed, i)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("run %d: observed reboot changed the run:\n got %+v\nwant %+v", i, got, want)
						}
						if got.Attribution.Valid != att {
							t.Fatalf("run %d: attribution valid = %t, want %t", i, got.Attribution.Valid, att)
						}
						if plain.Events() != nil {
							t.Fatalf("run %d: unobserved host captured events", i)
						}
						checkBootCost(t, i, observed)
					}
				})
			}
		}
	}
}

// prepareRun prepares and runs run i on h.
func prepareRun(t *testing.T, h *Host, i int) platform.RunResult {
	t.Helper()
	if err := h.Prepare(i, h.Seed(i)); err != nil {
		t.Fatal(err)
	}
	res, done, err := h.Run(cpu.NoBudget)
	if err != nil || !done {
		t.Fatalf("run %d: done=%t err=%v", i, done, err)
	}
	return res
}

// checkBootCost requires exactly one dsr.reboot event among h's
// captured events, with a positive boot_cycles attribute.
func checkBootCost(t *testing.T, i int, h *Host) {
	t.Helper()
	reboots := 0
	for _, e := range h.Events() {
		if e.Kind != "dsr.reboot" {
			continue
		}
		reboots++
		v, ok := e.Attr("boot_cycles")
		if !ok {
			t.Fatalf("run %d: dsr.reboot without boot_cycles: %s", i, e.String())
		}
		if n, err := strconv.ParseUint(v, 10, 64); err != nil || n == 0 {
			t.Fatalf("run %d: dsr.reboot boot_cycles = %q, want > 0", i, v)
		}
	}
	if reboots != 1 {
		t.Fatalf("run %d: %d dsr.reboot events, want 1", i, reboots)
	}
}
