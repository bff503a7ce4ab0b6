package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dsr/internal/mem"
)

// TestOutputBytesPinned runs a fixed 200-run uoa.s job through the
// shared runner and compares the sha256 of its telemetry JSONL and of
// its points.json with values recorded when both were still written by
// encoding/json. TestCampaignServeDeterminism cannot see such drift:
// the CLI and the service share one encoder.
func TestOutputBytesPinned(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "bytes_pin.json"))
	if err != nil {
		t.Fatal(err)
	}
	var pin struct {
		Spec struct {
			ID          string `json:"id"`
			Runs        int    `json:"runs"`
			Workers     int    `json:"workers"`
			Seed        uint64 `json:"seed"`
			Attribution bool   `json:"attribution"`
		} `json:"spec"`
		TelemetrySHA256 string `json:"telemetry_sha256"`
		TelemetryBytes  int    `json:"telemetry_bytes"`
		PointsSHA256    string `json:"points_sha256"`
		PointsBytes     int    `json:"points_bytes"`
	}
	if err := json.Unmarshal(raw, &pin); err != nil {
		t.Fatal(err)
	}
	spec := testSpec(t, pin.Spec.ID, pin.Spec.Runs, pin.Spec.Workers, pin.Spec.Seed)
	spec.Attribution = pin.Spec.Attribution
	out, err := Run(spec, nil, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	w := &checkpointWriter{}
	for _, pt := range out.Points {
		w.add(pt)
	}
	points, err := w.pointsJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		b         []byte
		sum       string
		wantBytes int
	}{
		{"telemetry", telemetryJSONL(t, out), pin.TelemetrySHA256, pin.TelemetryBytes},
		{"points", points, pin.PointsSHA256, pin.PointsBytes},
	} {
		h := sha256.Sum256(c.b)
		if got := hex.EncodeToString(h[:]); got != c.sum || len(c.b) != c.wantBytes {
			t.Errorf("%s: sha256 %s over %d bytes, pinned %s over %d bytes", c.name, got, len(c.b), c.sum, c.wantBytes)
		}
	}
}

// TestTelemetryExportAllocations pins a finished job's telemetry export
// to one encoding streamed to disk: writing telemetry.jsonl allocates no
// more than the export's own length plus one write buffer (a buffer
// regrown to hold the whole export allocates about twice its length),
// and the file holds the bytes WriteJSONL encodes.
func TestTelemetryExportAllocations(t *testing.T) {
	out, err := Run(testSpec(t, "export", 1000, 2, 7), nil, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "telemetry.jsonl")
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := writeTelemetry(path, out.Telemetry); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, telemetryJSONL(t, out)) {
		t.Fatal("telemetry.jsonl differs from the dump's encoding")
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("export of %d bytes allocated %d bytes", len(got), alloc)
	if limit := uint64(len(got) + telemetryBufSize); alloc > limit {
		t.Errorf("export of %d bytes allocated %d bytes, want at most %d", len(got), alloc, limit)
	}
}

// TestCheckpointPointEncoding holds the point encoder to json.Marshal
// on edge values, and to its error on a non-finite UoA.
func TestCheckpointPointEncoding(t *testing.T) {
	pts := []Point{
		{},
		{Index: -3, Seed: math.MaxUint64, Cycles: mem.Cycles(math.MaxUint64), UoA: 1e-7},
		{Index: 1, UoA: 1e21},
		{Index: 2, UoA: math.Copysign(0, -1), Attr: bytesCheckpoint(5, true, true).Points[4].Attr},
		{Index: 3, UoA: 0.1},
	}
	w := &checkpointWriter{}
	for _, pt := range pts {
		w.add(pt)
	}
	got, err := w.pointsJSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(pts)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want)+"\n" {
		t.Fatalf("points encoding\n got %s\nwant %s", got, want)
	}

	for _, uoa := range []float64{math.NaN(), math.Inf(1)} {
		w := &checkpointWriter{}
		w.add(Point{Index: 0})
		w.add(Point{Index: 1, UoA: uoa})
		_, werr := json.Marshal(Point{UoA: uoa})
		var uve *json.UnsupportedValueError
		if _, err := w.pointsJSON(); !errors.As(err, &uve) || err.Error() != "serve: marshal checkpoint: "+werr.Error() {
			t.Errorf("UoA %v: err %v, want the wrapped %v", uoa, err, werr)
		}
	}
}
