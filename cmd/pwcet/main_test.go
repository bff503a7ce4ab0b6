package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"dsr/internal/prng"
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
	cases := []struct {
		name   string
		in     string
		args   []string
		want   int
		stderr string
	}{
		{"iid times", timesText(1000, -1), []string{"-times", "-"}, 0, ""},
		{"NaN line", timesText(1000, 500), []string{"-times", "-"}, 1, "sample 500 is NaN"},
		{"bad line", "12\nx\n", []string{"-times", "-"}, 1, "bad execution time"},
		{"no input", "", []string{}, 1, "give -trace FILE or -times FILE"},
		{"bad flag", "", []string{"-nope"}, 2, ""},
		{"help", "", []string{"-h"}, 0, "-times"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runTool(t, tc.in, tc.args...)
			if code != tc.want || !strings.Contains(stderr, tc.stderr) {
				t.Fatalf("exit %d, want %d; stderr %q, want it to hold %q", code, tc.want, stderr, tc.stderr)
			}
		})
	}
}
