package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// checkString holds String(s) to json.Marshal(s), appending after a
// non-empty prefix so the encoder never relies on an empty buffer.
func checkString(t *testing.T, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("json.Marshal(%q): %v", s, err)
	}
	if got := String([]byte("x"), s); !bytes.Equal(got[1:], want) {
		t.Fatalf("String(%q) = %s, want %s", s, got[1:], want)
	}
}

// checkFloat holds Float(f) to json.Marshal(f): the same bytes for a
// finite value, the same error for a non-finite one.
func checkFloat(t *testing.T, f float64) {
	t.Helper()
	want, werr := json.Marshal(f)
	got, gerr := Float([]byte("x"), f)
	if werr != nil {
		if gerr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("Float(%v): err %v, want %v", f, gerr, werr)
		}
		if string(got) != "x" {
			t.Fatalf("Float(%v) appended %q on error", f, got[1:])
		}
		return
	}
	if gerr != nil {
		t.Fatalf("Float(%v): unexpected error %v", f, gerr)
	}
	if !bytes.Equal(got[1:], want) {
		t.Fatalf("Float(%v) = %s, want %s", f, got[1:], want)
	}
}

func TestString(t *testing.T) {
	for _, s := range []string{
		"", "dsr_runs_total", "uoa<&>", "a<b", "a>b", "a&b", `a"b`, `a\b`, "tab\there", "\x00\x1f\x7f",
		"café", "  ", "\xff\xfe", "ok\xc3", "z",
	} {
		checkString(t, s)
	}
}

func TestFloat(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 9.99e-7, 1e-7, -1e-7,
		1e20, 1e21, -1e21, 123456789, 1.5e300, math.SmallestNonzeroFloat64,
		math.MaxFloat64, 2.2250738585072014e-308, 1e-100,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		checkFloat(t, f)
	}
}

// FuzzJSONEnc holds String and Float to json.Marshal on arbitrary
// strings and float64 bit patterns: equal bytes for every string and
// finite float, the same error for a non-finite one. The committed
// corpus under testdata/fuzz/FuzzJSONEnc covers invalid UTF-8, U+2028,
// control bytes, the HTML-escaped '<', '>', '&', −0, subnormals, the
// 1e-6/1e21 format switch points, NaN and ±Inf.
func FuzzJSONEnc(f *testing.F) {
	f.Add("dsr_run_cycles", math.Float64bits(1024))
	f.Fuzz(func(t *testing.T, s string, bits uint64) {
		checkString(t, s)
		checkFloat(t, math.Float64frombits(bits))
	})
}
