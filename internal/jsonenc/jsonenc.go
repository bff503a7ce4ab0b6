// Package jsonenc appends JSON scalars byte-identical to encoding/json,
// without reflection. Record encoders on per-run output paths (the
// telemetry JSONL dump, checkpoint points) build each record with these
// helpers into one reused buffer instead of calling json.Marshal per
// record.
//
// The byte rules are encoding/json's, not a re-statement of them: a
// string that needs any escaping is handed to json.Marshal whole, and
// floats use the same strconv format switch and exponent cleanup as
// the standard library's float encoder. FuzzJSONEnc holds both against
// json.Marshal.
package jsonenc

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
)

// String appends s as json.Marshal encodes a string. Plain printable
// ASCII is copied between quotes; anything json.Marshal would escape or
// rewrite (control bytes, '"', '\\', the HTML-sensitive '<', '>', '&',
// and every non-ASCII byte, which covers invalid UTF-8 and U+2028/
// U+2029) sends the whole string through json.Marshal.
func String(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			e, _ := json.Marshal(s) // a string always encodes
			return append(b, e...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// Float appends f as json.Marshal encodes a float64: the shortest
// representation, in 'f' form unless |f| is below 1e-6 or at least
// 1e21, with the 'e' form's two-digit negative exponent trimmed
// ("1e-07" becomes "1e-7"). NaN and ±Inf have no JSON form; they return
// b unchanged and the *json.UnsupportedValueError json.Marshal returns.
func Float(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	fmt := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		fmt = 'e'
	}
	b = strconv.AppendFloat(b, f, fmt, -1, 64)
	if fmt == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
