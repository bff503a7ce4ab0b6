package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dsr/internal/cpu"
	"dsr/internal/prng"
	"dsr/internal/rvs"
)

// timesText is an n-line -times input of light-tailed i.i.d. execution
// times, with line bad (0-based; -1 for none) replaced by "NaN".
func timesText(n, bad int) string {
	src := prng.NewMWC(11)
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i == bad {
			b.WriteString("NaN\n")
			continue
		}
		var s float64
		for k := 0; k < 8; k++ {
			s += src.Float64()
		}
		fmt.Fprintf(&b, "%.0f\n", 300000+2000*s)
	}
	return b.String()
}

// runTool runs the tool as main does, reading stdin from in, and fails
// the test if it has not finished within a deadline.
func runTool(t *testing.T, in string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	done := make(chan int, 1)
	go func() { done <- run(args, strings.NewReader(in), &out, &errw) }()
	select {
	case code = <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("pwcet %v did not finish", args)
	}
	return code, out.String(), errw.String()
}

func TestExitCodes(t *testing.T) {
	// A small two-run trace for the CSV conversion, and the bytes
	// rvs.WriteCSV makes of it.
	trace := []cpu.TracePoint{
		{ID: rvs.UoAEnter, Cycles: 100}, {ID: rvs.UoAExit, Cycles: 350},
		{ID: rvs.UoAEnter, Cycles: 1000}, {ID: rvs.UoAExit, Cycles: 1275},
	}
	var bin, wantCSV bytes.Buffer
	if err := rvs.Encode(&bin, trace); err != nil {
		t.Fatal(err)
	}
	if err := rvs.WriteCSV(&wantCSV, trace); err != nil {
		t.Fatal(err)
	}
	traceFile := filepath.Join(t.TempDir(), "trace.bin")
	if err := os.WriteFile(traceFile, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		in     string
		args   []string
		want   int
		stderr string
		stdout func(t *testing.T, out string) // nil: not checked
	}{
		{"iid times", timesText(1000, -1), []string{"-times", "-"}, 0, "", nil},
		{"NaN line", timesText(1000, 500), []string{"-times", "-"}, 1, "sample 500 is NaN", nil},
		{"bad line", "12\nx\n", []string{"-times", "-"}, 1, "bad execution time", nil},
		{"no input", "", []string{}, 1, "give -trace FILE or -times FILE", nil},
		{"bad flag", "", []string{"-nope"}, 2, "", nil},
		{"help", "", []string{"-h"}, 0, "-times", nil},
		{"gen", "", []string{"-gen", "60"}, 0, "", func(t *testing.T, out string) {
			got, err := rvs.Decode(strings.NewReader(out))
			if err != nil {
				t.Fatal(err)
			}
			if n := len(rvs.Durations(got, rvs.UoAEnter, rvs.UoAExit)); n != 60 {
				t.Errorf("-gen 60 trace holds %d UoA times, want 60", n)
			}
			// Layout seeds 1..60 and control inputs 9000..9059: the trace
			// is a pure function of those, pinned byte for byte.
			const wantSHA = "aafb0f7774c7e389f9a4c45e3fba412a93c3b2ed7ef642739acdef00bc017740"
			if sum := sha256.Sum256([]byte(out)); hex.EncodeToString(sum[:]) != wantSHA || len(out) != 1450 {
				t.Errorf("-gen 60 trace is %d bytes with sha256 %x, want 1450 bytes with %s", len(out), sum, wantSHA)
			}
		}},
		{"trace csv", "", []string{"-trace", traceFile, "-csv"}, 0, "", func(t *testing.T, out string) {
			if out != wantCSV.String() {
				t.Errorf("CSV\n%s\nwant rvs.WriteCSV's\n%s", out, wantCSV.String())
			}
		}},
		{"csv without trace", "", []string{"-csv"}, 2, "-csv needs -trace FILE", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runTool(t, tc.in, tc.args...)
			if code != tc.want || !strings.Contains(stderr, tc.stderr) {
				t.Fatalf("exit %d, want %d; stderr %q, want it to hold %q", code, tc.want, stderr, tc.stderr)
			}
			if tc.stdout != nil {
				tc.stdout(t, stdout)
			}
		})
	}
}
