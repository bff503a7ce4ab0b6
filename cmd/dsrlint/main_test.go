package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden JSON files")

// runTool invokes the tool exactly as main does, capturing both streams.
func runTool(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestExitCodes pins the documented contract: 0 clean (warnings do not
// fail), 1 on errors, -Werror'd warnings or a -wcet/-leak refusal, 2 on
// usage/input problems.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean", []string{"testdata/clean.s"}, 0},
		{"warnings are not errors", []string{"testdata/warn.s"}, 0},
		{"werror promotes warnings", []string{"-Werror", "testdata/warn.s"}, 1},
		{"error finding", []string{"testdata/error.s"}, 1},
		{"error finding json", []string{"-json", "testdata/error.s"}, 1},
		{"missing file", []string{"testdata/nope.s"}, 2},
		{"unknown builtin", []string{"-builtin", "nope"}, 2},
		{"no input", []string{}, 2},
		{"builtin control", []string{"-builtin", "control"}, 0},
		{"clean with wcet", []string{"-wcet", "testdata/clean.s"}, 0},
		{"clean with leak", []string{"-leak", "testdata/clean.s"}, 0},
		{"wcet dsr-eager", []string{"-wcet", "-mode", "dsr-eager", "testdata/clean.s"}, 0},
		{"leak dsr-lazy", []string{"-leak", "-mode", "dsr-lazy", "testdata/clean.s"}, 0},
		{"unknown mode", []string{"-wcet", "-mode", "nope", "testdata/clean.s"}, 2},
		// The probe lints clean; only the bound refusals fail it.
		{"unbounded loop lints clean", []string{"testdata/unbounded.s"}, 0},
		{"unbounded loop refused by wcet", []string{"-wcet", "testdata/unbounded.s"}, 1},
		{"unbounded loop refused by leak", []string{"-leak", "testdata/unbounded.s"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runTool(t, tc.args...)
			if code != tc.want {
				t.Fatalf("dsrlint %v: exit %d, want %d\nstderr:\n%s", tc.args, code, tc.want, stderr)
			}
		})
	}
}

// TestJSONGolden locks the -json output byte-for-byte against golden
// files: the document is a published schema (analysis.ReportJSON) that
// downstream tooling parses, so any change must be a conscious one
// (run with -update to accept it).
func TestJSONGolden(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		golden string
	}{
		// -dsr=false and -l2=false keep the fixture reports focused on
		// the file's own findings rather than layout-dependent ones.
		{"clean+wcet", []string{"-json", "-wcet", "-dsr=false", "-l2=false", "testdata/clean.s"}, "clean_wcet.json"},
		{"clean+leak", []string{"-json", "-leak", "-dsr=false", "-l2=false", "testdata/clean.s"}, "clean_leak.json"},
		{"warn", []string{"-json", "-dsr=false", "-l2=false", "testdata/warn.s"}, "warn.json"},
		{"error", []string{"-json", "-dsr=false", "-l2=false", "testdata/error.s"}, "error.json"},
		// Both analyzers over the program x mode pairs the wcet-check and
		// leak-check gates run, with every default pass on.
		{"uoa det", []string{"-json", "-wcet", "-leak", "-mode", "det", "../../internal/asm/testdata/uoa.s"}, "uoa_det.json"},
		{"control det", []string{"-json", "-wcet", "-leak", "-mode", "det", "-builtin", "control"}, "control_det.json"},
		{"control dsr-eager", []string{"-json", "-wcet", "-leak", "-mode", "dsr-eager", "-builtin", "control"}, "control_dsr-eager.json"},
		{"control dsr-lazy", []string{"-json", "-wcet", "-leak", "-mode", "dsr-lazy", "-builtin", "control"}, "control_dsr-lazy.json"},
		{"processing det", []string{"-json", "-wcet", "-leak", "-mode", "det", "-builtin", "processing"}, "processing_det.json"},
		{"processing dsr-eager", []string{"-json", "-wcet", "-leak", "-mode", "dsr-eager", "-builtin", "processing"}, "processing_dsr-eager.json"},
		{"clean det", []string{"-json", "-wcet", "-leak", "-mode", "det", "testdata/clean.s"}, "clean_det.json"},
		// Both analyzers share one front end, so its refusal is one error.
		{"unbounded", []string{"-json", "-wcet", "-leak", "testdata/unbounded.s"}, "unbounded.json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, stdout, stderr := runTool(t, tc.args...)
			if stderr != "" {
				t.Fatalf("unexpected stderr:\n%s", stderr)
			}
			if !json.Valid([]byte(stdout)) {
				t.Fatalf("output is not valid JSON:\n%s", stdout)
			}
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, []byte(stdout), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./cmd/dsrlint -update` to create goldens)", err)
			}
			if string(want) != stdout {
				t.Fatalf("golden mismatch for %s\n--- want\n%s--- got\n%s", tc.golden, want, stdout)
			}
		})
	}
}

// TestJSONStableAcrossRuns guards the determinism claim directly: the
// same input must serialise identically on repeated invocations.
func TestJSONStableAcrossRuns(t *testing.T) {
	args := []string{"-json", "-wcet", "testdata/clean.s"}
	_, first, _ := runTool(t, args...)
	for i := 0; i < 3; i++ {
		_, again, _ := runTool(t, args...)
		if again != first {
			t.Fatalf("run %d differs from first:\n%s\nvs\n%s", i+2, again, first)
		}
	}
}

// TestFrontEndDiagnosticsOnce: -wcet and -leak share one front end, so
// the text output lists its refusal once and counts one error.
func TestFrontEndDiagnosticsOnce(t *testing.T) {
	code, stdout, stderr := runTool(t, "-q", "-wcet", "-leak", "testdata/unbounded.s")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if n := strings.Count(stdout, "loop has no inferable bound"); n != 1 {
		t.Fatalf("loop diagnostic printed %d times, want 1:\n%s", n, stdout)
	}
	if !strings.Contains(stderr, "1 error(s)") {
		t.Fatalf("stderr %q, want one error", stderr)
	}
}
