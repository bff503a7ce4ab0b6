package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildDsrsim builds dsrsim into a temporary directory and returns the
// binary's path.
func buildDsrsim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dsrsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestOutputPinned is the fast twin of `make regen-check`: dsrsim is
// built as a binary and run over every experiment of the short paper
// path at 500 runs, and its stdout must be exactly the bytes recorded
// below (the same at any -workers value). A change that moves a
// reported cycle, table or verdict fails here in seconds; E9 and the
// full 1000-run regeneration stay with regen-check. Re-record the pin
// only with a change that means to move the output.
func TestOutputPinned(t *testing.T) {
	const (
		wantSHA256 = "e1729d8890a90b982704d572e792b05c500cbd81a35259d2b9e51714acb5c09c"
		wantBytes  = 3959
	)
	bin := buildDsrsim(t)
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-table1", "-fig2", "-fig3", "-iid", "-margin", "-leakage", "-runs", "500", "-workers", "2")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("dsrsim: %v\n%s", err, stderr.Bytes())
	}
	sum := sha256.Sum256(stdout.Bytes())
	if got := hex.EncodeToString(sum[:]); got != wantSHA256 || stdout.Len() != wantBytes {
		t.Fatalf("dsrsim stdout is %d bytes, sha256 %s; want %d bytes, sha256 %s:\n%s",
			stdout.Len(), got, wantBytes, wantSHA256, stdout.Bytes())
	}
}

// TestTelemetryExportsPinned pins the deterministic telemetry exports of
// `-fig2 -runs 200 -workers 2 -telemetry DIR`: the JSONL records (which
// carry every per-component dsr_attributed_cycles_total, so a cycle that
// moves between attribution buckets fails here), the CSV, the Prometheus
// exposition and the simulated-time Chrome trace. They are the same
// bytes at any -workers value. The wall-clock span files
// (spans.jsonl, spans-trace.json) are not deterministic and are not
// pinned. Re-record only with a change that means to move the exports.
func TestTelemetryExportsPinned(t *testing.T) {
	want := map[string]string{
		"telemetry.jsonl": "4bdaadd1e7eb07ab141f8dabd8c92939f36623b742780917dc525981ce4c12d8",
		"trace.json":      "eda7ad0ec2b5633bd0c9f68bdba154a804fdf07873ad464c9c5b027b45a93c57",
		"telemetry.csv":   "5fd0b220b2d4b7b73d38d3d911cd33bc9ca4a0b0e9a28b4cbc4bebf1cf2ae3c6",
		"telemetry.prom":  "2967e2def4be64305f8261f7ea659f83edfb09d121fef83bb687177b78bf1bca",
	}
	bin := buildDsrsim(t)
	dir := filepath.Join(t.TempDir(), "telemetry")
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-fig2", "-runs", "200", "-workers", "2", "-telemetry", dir)
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("dsrsim: %v\n%s", err, stderr.Bytes())
	}
	for name, w := range want {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != w {
			t.Errorf("%s is %d bytes, sha256 %s; want sha256 %s", name, len(b), got, w)
		}
	}
}

// TestRunsBelowOneRefused: a campaign of fewer than one run has no
// minimum or pWCET to report, so dsrsim refuses -runs 0 and negative
// values with a usage message and exit status 2 before any campaign
// starts (no "running ..." progress line, nothing on stdout).
func TestRunsBelowOneRefused(t *testing.T) {
	bin := buildDsrsim(t)
	for _, args := range [][]string{
		{"-table1", "-runs", "0"},
		{"-fig2", "-runs", "-5"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("dsrsim %v: %v, want exit status 2\n%s", args, err, stderr.Bytes())
		}
		if !strings.Contains(stderr.String(), "-runs must be at least 1") || !strings.Contains(stderr.String(), "Usage") {
			t.Errorf("dsrsim %v: stderr lacks the -runs refusal and usage:\n%s", args, stderr.Bytes())
		}
		if strings.Contains(stderr.String(), "running") || stdout.Len() != 0 {
			t.Errorf("dsrsim %v started a campaign:\nstdout: %s\nstderr: %s", args, stdout.Bytes(), stderr.Bytes())
		}
	}
}
