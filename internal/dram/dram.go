// Package dram models the LEON3 platform's SDRAM memory controller
// (Fig. 1): the terminal level of the hierarchy. The paper treats DRAM as
// a constant-latency device at analysis time (low-level jitter sources
// other than caches are "forced to work in their worst latency", §II), so
// the model charges a fixed worst-case access latency plus a per-word
// burst transfer cost. Counters record the traffic reaching main memory.
package dram

import (
	"dsr/internal/mem"
	"dsr/internal/telemetry"
)

// Config describes the memory-controller latency model.
type Config struct {
	Name string
	// AccessLatency is the fixed row-access cost charged per transaction.
	AccessLatency mem.Cycles
	// PerWord is the burst transfer cost per 32-bit word moved.
	PerWord mem.Cycles
}

// Counters are the DRAM traffic counters.
type Counters struct {
	Reads      uint64
	Writes     uint64
	WordsRead  uint64
	WordsWrite uint64
}

// DRAM is the terminal memory device.
type DRAM struct {
	cfg Config
	ctr Counters
	att *telemetry.Attribution // see SetAttribution
}

// New builds a DRAM controller.
func New(cfg Config) *DRAM { return &DRAM{cfg: cfg} }

// Config returns the controller configuration.
func (d *DRAM) Config() Config { return d.cfg }

// Counters returns a snapshot of the traffic counters.
func (d *DRAM) Counters() Counters { return d.ctr }

// ResetCounters zeroes the traffic counters.
func (d *DRAM) ResetCounters() { d.ctr = Counters{} }

// SetAttribution installs (or clears, with nil) the cycle-attribution
// profiler, which then books every access's whole latency to CompDRAM.
func (d *DRAM) SetAttribution(att *telemetry.Attribution) { d.att = att }

func words(size int) uint64 {
	if size <= 0 {
		return 1
	}
	return uint64((size + mem.WordSize - 1) / mem.WordSize)
}

// Read implements mem.Backend.
func (d *DRAM) Read(addr mem.Addr, size int) mem.Cycles {
	d.ctr.Reads++
	w := words(size)
	d.ctr.WordsRead += w
	lat := d.cfg.AccessLatency + mem.Cycles(w)*d.cfg.PerWord
	d.att.Charge(telemetry.CompDRAM, lat)
	return lat
}

// Write implements mem.Backend.
func (d *DRAM) Write(addr mem.Addr, size int) mem.Cycles {
	d.ctr.Writes++
	w := words(size)
	d.ctr.WordsWrite += w
	lat := d.cfg.AccessLatency + mem.Cycles(w)*d.cfg.PerWord
	d.att.Charge(telemetry.CompDRAM, lat)
	return lat
}
