// Package rvs reproduces the measurement tooling role of the Rapita
// Verification Suite and GRMON in the paper's setup (§V): programs are
// instrumented at unit-of-analysis (UoA) boundaries with instrumentation
// points; timestamps land in an out-of-band buffer; the binary trace is
// dumped, converted, and analysed. This package provides the trace
// representation, the binary codec (the "dump through the debug link"),
// duration extraction between ipoint pairs, and the text rendering of
// the pWCET plot (the RVS Viewer screenshot of Fig. 3).
package rvs

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"dsr/internal/cpu"
	"dsr/internal/mem"
)

// Conventional instrumentation point identifiers for the UoA boundaries.
const (
	UoAEnter int32 = 1
	UoAExit  int32 = 2
)

// Durations extracts the enter→exit durations of a UoA from a trace.
// Nested or unmatched points are tolerated: each exit closes the most
// recent open enter; unmatched enters are discarded.
func Durations(trace []cpu.TracePoint, enter, exit int32) []mem.Cycles {
	var out []mem.Cycles
	var open []mem.Cycles
	for _, tp := range trace {
		switch tp.ID {
		case enter:
			open = append(open, tp.Cycles)
		case exit:
			if n := len(open); n > 0 {
				out = append(out, tp.Cycles-open[n-1])
				open = open[:n-1]
			}
		}
	}
	return out
}

// UoA returns the run's unit-of-analysis duration, the first
// UoAEnter→UoAExit window of its trace, and whether the trace holds one.
func UoA(trace []cpu.TracePoint) (mem.Cycles, bool) {
	if ds := Durations(trace, UoAEnter, UoAExit); len(ds) > 0 {
		return ds[0], true
	}
	return 0, false
}

// ToFloats converts cycle durations for the statistics layer.
func ToFloats(ds []mem.Cycles) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

// Binary trace format: the on-the-wire layout GRMON dumps (big-endian,
// as the SPARC target writes it).
//
//	magic   [4]byte  "RVST"
//	version uint16   1
//	count   uint32
//	records count × { id int32, cycles uint64 }
var (
	traceMagic = [4]byte{'R', 'V', 'S', 'T'}
	// ErrBadTrace is returned for malformed trace streams.
	ErrBadTrace = errors.New("rvs: malformed trace")
)

const traceVersion = 1

// Encode writes a binary trace.
func Encode(w io.Writer, trace []cpu.TracePoint) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.BigEndian, uint16(traceVersion)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.BigEndian, uint32(len(trace))); err != nil {
		return err
	}
	for _, tp := range trace {
		if err := binary.Write(bw, binary.BigEndian, tp.ID); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.BigEndian, uint64(tp.Cycles)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode reads a binary trace.
func Decode(r io.Reader) ([]cpu.TracePoint, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, magic)
	}
	var version uint16
	if err := binary.Read(br, binary.BigEndian, &version); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if version != traceVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, version)
	}
	var count uint32
	if err := binary.Read(br, binary.BigEndian, &count); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	// Do not trust the declared count for allocation: a corrupt header
	// could otherwise demand gigabytes before the first record is read.
	// Truncated streams fail at the record loop instead.
	prealloc := count
	if prealloc > 4096 {
		prealloc = 4096
	}
	trace := make([]cpu.TracePoint, 0, prealloc)
	for i := uint32(0); i < count; i++ {
		var id int32
		var cyc uint64
		if err := binary.Read(br, binary.BigEndian, &id); err != nil {
			return nil, fmt.Errorf("%w: truncated at record %d", ErrBadTrace, i)
		}
		if err := binary.Read(br, binary.BigEndian, &cyc); err != nil {
			return nil, fmt.Errorf("%w: truncated at record %d", ErrBadTrace, i)
		}
		trace = append(trace, cpu.TracePoint{ID: id, Cycles: mem.Cycles(cyc)})
	}
	return trace, nil
}

// WriteCSV converts a trace to the host-side CSV format (pwcet -csv).
func WriteCSV(w io.Writer, trace []cpu.TracePoint) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "ipoint,cycles"); err != nil {
		return err
	}
	for _, tp := range trace {
		if _, err := fmt.Fprintf(bw, "%d,%d\n", tp.ID, tp.Cycles); err != nil {
			return err
		}
	}
	return bw.Flush()
}
