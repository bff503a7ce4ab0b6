package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"dsr/internal/analysis/wcet"
)

// The leakage (E8) and partition (E9) campaigns run on the same worker
// host as the golden_cycles.json series but record different
// observables: per-run layout seeds and attack observations for E8,
// per-frame control cycles, arrival offsets and overruns for E9. This
// pin covers those observables in every leakage mode and every E9
// cell, so a change to how a worker lays out, feeds, runs or checks a
// program cannot move them unnoticed.
//
// Regenerate (only for a change meant to move simulated behaviour) with:
//
//	go test ./internal/experiments -run TestHostPin -update-pin

var updatePin = flag.Bool("update-pin", false,
	"rewrite testdata/host_pin.json from the current binary")

const hostPinPath = "testdata/host_pin.json"

// Campaign lengths of the pin: every leakage layout seen once, and a
// handful of E9 major frames per cell.
const (
	pinLeakRuns = 8
	pinE9Frames = 8
)

// leakPin is one leakage campaign's pinned observables.
type leakPin struct {
	Seeds     []uint64  `json:"seeds"`
	ObsSHA256 string    `json:"obs_sha256"`
	Cycles    []float64 `json:"cycles"`
}

// e9Pin is one E9 cell's pinned observables.
type e9Pin struct {
	ControlCycles  []float64 `json:"control_cycles"`
	ControlOffsets []int     `json:"control_offsets"`
	Overruns       int       `json:"overruns"`
}

type hostPin struct {
	Leak map[string]leakPin `json:"leak"`
	E9   map[string]e9Pin   `json:"e9"`
}

func captureHostPin(t *testing.T) hostPin {
	t.Helper()
	pin := hostPin{Leak: map[string]leakPin{}, E9: map[string]e9Pin{}}
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.Runs = pinLeakRuns
	for _, mode := range []wcet.Mode{wcet.ModeDet, wcet.ModeDSREager, wcet.ModeDSRLazy} {
		s, err := RunLeak(cfg, mode)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		oj, err := json.Marshal(s.Obs)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(oj)
		pin.Leak[mode.String()] = leakPin{Seeds: s.Seeds, ObsSHA256: hex.EncodeToString(sum[:]), Cycles: s.Cycles}
	}
	cfg.Runs = pinE9Frames
	for _, cell := range E9Cells() {
		s, err := RunE9Cell(cfg, cell)
		if err != nil {
			t.Fatalf("%s: %v", cell.Name(), err)
		}
		pin.E9[cell.Name()] = e9Pin{ControlCycles: s.ControlCycles, ControlOffsets: s.ControlOffsets, Overruns: s.Overruns}
	}
	return pin
}

// TestHostPin compares the leakage and E9 observables against the
// recorded pin.
func TestHostPin(t *testing.T) {
	got := captureHostPin(t)
	if *updatePin {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(hostPinPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(hostPinPath)
	if err != nil {
		t.Fatalf("pin file missing (record with -update-pin): %v", err)
	}
	var want hostPin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("pin file corrupt: %v", err)
	}
	for name, w := range want.Leak {
		if g := got.Leak[name]; !reflect.DeepEqual(g, w) {
			t.Errorf("leak %s:\n got %+v\nwant %+v", name, g, w)
		}
	}
	for name, w := range want.E9 {
		if g := got.E9[name]; !reflect.DeepEqual(g, w) {
			t.Errorf("e9 %s:\n got %+v\nwant %+v", name, g, w)
		}
	}
	if len(got.Leak) != len(want.Leak) || len(got.E9) != len(want.E9) {
		t.Errorf("pin covers %d leak modes and %d E9 cells, recorded %d and %d",
			len(got.Leak), len(got.E9), len(want.Leak), len(want.E9))
	}
}
