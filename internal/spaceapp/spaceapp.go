// Package spaceapp reproduces the paper's case study (§IV): the
// mixed-criticality software of an integrated active-optics instrument
// for space telescopes.
//
// Two tasks are provided, written in the simulator's IR:
//
//   - the high-criticality CONTROL task (the paper's unit of analysis,
//     invoked every second): it ingests the wavefront-error estimates,
//     validates and filters them, elaborates actuator commands for the
//     mirror displacements through an influence-matrix product and a PI
//     regulator, and handles the interface with the rest of the
//     spacecraft (uplink mailbox parsing, telemetry frame construction
//     and CRC); and
//
//   - the low-criticality image PROCESSING task (invoked every 100 ms):
//     it computes the passive deformation of the mirror from a 12×12
//     array of lenses of 34×34 pixels each, in two phases — a coarse
//     intensity/centroid pass over every lens and a fine sub-pixel pass
//     over the lightened lenses only (around 70% of the total, which
//     ties execution time to the input data, the paper's high-level
//     jitter source).
//
// Both tasks come with bit-exact Go golden models (golden.go) so every
// randomised execution can be checked for functional correctness.
package spaceapp

import (
	"fmt"

	"dsr/internal/prog"
)

// Geometry of the instrument, from §IV of the paper.
const (
	// LensGrid is the lenslet array dimension (12×12).
	LensGrid = 12
	// NumLenses is the lens count (144), one wavefront zone per lens.
	NumLenses = LensGrid * LensGrid
	// LensPixels is the per-lens image dimension (34×34).
	LensPixels = 34
	// PixelsPerLens is the per-lens pixel count.
	PixelsPerLens = LensPixels * LensPixels
	// LitFraction is the nominal fraction of lightened lenses (~70%).
	LitFraction = 0.7
)

// Control-task dimensioning. The zone count equals the lens count; the
// actuator count is the instrument's mirror-displacement channel count.
const (
	NumZones     = NumLenses
	NumActuators = 16
	// MailboxWords is the spacecraft uplink mailbox scanned each cycle.
	MailboxWords = 128
	// RawWords is the sensor DMA buffer: 16 header words + one word per zone.
	RawWords = 16 + NumZones
	// FrameWords is the telemetry frame length (CRC'd in full).
	FrameWords = 64
	// ScrubWords is the EDAC memory-scrub window checked every cycle —
	// the routine integer housekeeping of on-board software.
	ScrubWords = 3072
	// HistorySlots is the telemetry history ring depth.
	HistorySlots = 4
)

// Control-law constants (IEEE single precision; the golden model and the
// IR code share them bit-exactly through the coefficient table).
const (
	coefFilterA  = float32(0.8)  // IIR pole
	coefFilterB  = float32(0.2)  // IIR gain
	coefWFELimit = float32(50.0) // validation window (±)
	coefKp       = float32(0.5)  // proportional gain
	coefKi       = float32(0.3)  // integral gain
	coefILeak    = float32(0.1)  // integrator leak-in
	coefQuant    = float32(16.0) // command quantisation scale
	coefCmdLimit = float32(1e3)  // actuator saturation (±)
)

// TelemetryMagic heads every telemetry frame ("PXMA").
const TelemetryMagic = 0x50584D41

// Processing-task parameters.
const (
	// LitThreshold is the phase-1 intensity threshold deciding whether a
	// lens is lightened. Phase 1 samples one pixel per word (289 samples
	// per lens); a lit lens sums to ~14000, a dim one to ~4500.
	LitThreshold = 9000
	// FineWindow is the centered sub-window refined in phase 2.
	FineWindow = 16
	// FineOrigin is the window's top-left offset inside a lens image.
	FineOrigin = (LensPixels - FineWindow) / 2
	// fineCenter is the window-relative spot reference (float32).
	fineCenter = float32(7.5)
)

// Builtin builds the case-study task called name, control or
// processing: the names the CLIs accept for a built-in program.
func Builtin(name string) (*prog.Program, error) {
	switch name {
	case "control":
		return BuildControl()
	case "processing":
		return BuildProcessing()
	}
	return nil, fmt.Errorf("unknown builtin %q (want control or processing)", name)
}
