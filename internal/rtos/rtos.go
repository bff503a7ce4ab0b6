// Package rtos models the hypervisor configuration of the paper's setup
// (§IV): PikeOS Native hosting two partitions — the high-criticality
// control task invoked every second and the low-criticality image
// processing task invoked every 100 ms — with spatial and temporal
// isolation, caches flushed automatically at each partition start,
// preemption disabled during partition execution, and partition reboot
// between measurement runs so that every execution starts from a fresh
// (and, under DSR, freshly randomised) memory layout.
//
// The executive is time-partitioned: a major frame is divided into
// windows, each window owns one partition activation, and a partition
// that overruns its window is cut off (temporal isolation) and flagged
// — the mixed-criticality concern that motivates the case study. The
// frame's windows come from a schedule certified by
// internal/analysis/schedfeas; under the zero schedfeas.Policy every
// frame replays the nominal schedule, which is the fixed cyclic
// executive of the paper's setup.
package rtos

import (
	"dsr/internal/mem"
	"dsr/internal/platform"
)

// Criticality is the design-assurance level of a partition.
type Criticality int

const (
	// LowCriticality marks the image-processing partition.
	LowCriticality Criticality = iota
	// HighCriticality marks the control partition.
	HighCriticality
)

func (c Criticality) String() string {
	if c == HighCriticality {
		return "high"
	}
	return "low"
}

// Runner abstracts the software hosted in a partition: a plain image or
// a DSR runtime. Activate prepares a fresh run (the partition reboot);
// Execute performs one run under a cycle budget, reporting whether the
// program completed within it.
type Runner interface {
	Name() string
	Activate(activation uint64) error
	Execute(budget mem.Cycles) (platform.RunResult, bool, error)
}

// Partition is one hosted application.
type Partition struct {
	Name        string
	Criticality Criticality
	Runner      Runner
	// PeriodMillis is the activation period (control: 1000, processing: 100).
	PeriodMillis int
}

// Config describes the executive.
type Config struct {
	MajorFrameMillis int
	// CyclesPerMilli converts wall-clock windows to core cycles
	// (an 80 MHz LEON3 gives 80_000 cycles per millisecond).
	CyclesPerMilli mem.Cycles
}

// DefaultConfig is the case study's frame: 1 s major frame on an 80 MHz
// core.
func DefaultConfig() Config {
	return Config{MajorFrameMillis: 1000, CyclesPerMilli: 80_000}
}

// Activation records one partition execution.
type Activation struct {
	Partition   string
	Criticality Criticality
	MajorFrame  int
	Window      int
	Activation  uint64
	// OffsetMillis is the window's start offset within its major frame,
	// drawn per frame from the certified schedule (the arrival
	// observable a timing-inference adversary sees).
	OffsetMillis int
	Cycles       mem.Cycles
	Budget       mem.Cycles
	// Completed is false when the window expired first (temporal
	// isolation cut the partition off).
	Completed bool
	Result    platform.RunResult
}

// Overrun reports whether the partition consumed its entire window
// without completing.
func (a Activation) Overrun() bool { return !a.Completed }
