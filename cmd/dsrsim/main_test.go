package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os/exec"
	"path/filepath"
	"testing"
)

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
	bin := filepath.Join(t.TempDir(), "dsrsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
