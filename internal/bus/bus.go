// Package bus models the AMBA AHB processor bus of the LEON3 platform
// (Fig. 1): IL1 and DL1 misses are propagated over the bus to the shared
// L2. In the paper's single-core configuration the bus adds a fixed
// arbitration + transfer latency per transaction; the model nevertheless
// counts transactions per initiator so that the future-work multicore
// contention study (§VII) has a place to attach.
package bus

import (
	"fmt"

	"dsr/internal/mem"
	"dsr/internal/prng"
	"dsr/internal/telemetry"
)

// Config describes the bus latency model.
type Config struct {
	Name string
	// ReadLatency and WriteLatency are added to every transaction before
	// the downstream device's own latency.
	ReadLatency  mem.Cycles
	WriteLatency mem.Cycles
}

// Counters are the bus performance events.
type Counters struct {
	Reads  uint64
	Writes uint64
	// Interfered counts transactions delayed by the modelled co-runner.
	Interfered uint64
	// InterferenceCycles is the total delay injected by the co-runner.
	InterferenceCycles uint64
}

// ContentionMode selects how multicore bus interference is modelled —
// the paper's future work item (ii), "dealing with COTS multicore
// contention-related jitter".
type ContentionMode int

const (
	// NoContention is the paper's single-core configuration.
	NoContention ContentionMode = iota
	// RandomContention injects a random arbitration delay per
	// transaction, as a time-randomised arbiter (or an MBPTA-compliant
	// co-runner model) would: the delay is another i.i.d.-able jitter
	// source, so MBPTA still applies.
	RandomContention
	// WorstCaseContention charges the maximum delay on every
	// transaction — the "force the resource to its worst latency"
	// analysis-time treatment of §II for resources not randomised.
	WorstCaseContention
)

func (m ContentionMode) String() string {
	switch m {
	case RandomContention:
		return "random"
	case WorstCaseContention:
		return "worst-case"
	default:
		return "none"
	}
}

// Contention parameterises the co-runner model.
type Contention struct {
	Mode ContentionMode
	// Intensity is the probability a transaction suffers interference
	// (RandomContention only).
	Intensity float64
	// MaxDelay is the worst per-transaction arbitration delay.
	MaxDelay mem.Cycles
}

// Bus forwards transactions to a downstream backend with added latency.
type Bus struct {
	cfg  Config
	next mem.Backend
	ctr  Counters

	cont Contention
	src  prng.Source
	att  *telemetry.Attribution // see SetAttribution
}

// New builds a bus in front of next.
func New(cfg Config, next mem.Backend) *Bus {
	if next == nil {
		panic(fmt.Sprintf("bus %q: nil downstream device", cfg.Name))
	}
	return &Bus{cfg: cfg, next: next}
}

// Config returns the bus configuration.
func (b *Bus) Config() Config { return b.cfg }

// SetAttribution installs (or clears, with nil) the cycle-attribution
// profiler, which then books each transaction's bus latency, co-runner
// delay included, to CompBus; the downstream device books its own.
func (b *Bus) SetAttribution(att *telemetry.Attribution) { b.att = att }

// Counters returns a snapshot of the transaction counters.
func (b *Bus) Counters() Counters { return b.ctr }

// ResetCounters zeroes the transaction counters.
func (b *Bus) ResetCounters() { b.ctr = Counters{} }

// SetContention installs (or clears, with Mode NoContention) the
// co-runner interference model.
func (b *Bus) SetContention(c Contention) {
	if c.Mode == RandomContention {
		if c.Intensity < 0 || c.Intensity > 1 {
			panic(fmt.Sprintf("bus %q: contention intensity %f out of [0,1]", b.cfg.Name, c.Intensity))
		}
		if b.src == nil {
			b.src = prng.NewMWC(0xB05)
		}
	}
	b.cont = c
}

// ReseedContention reseeds the interference source (per measurement run,
// like every other randomisation source).
func (b *Bus) ReseedContention(seed uint64) {
	if b.src == nil {
		b.src = prng.NewMWC(seed)
		return
	}
	b.src.Seed(seed)
}

// contend returns the co-runner delay for one transaction.
func (b *Bus) contend() mem.Cycles {
	switch b.cont.Mode {
	case RandomContention:
		if prng.Float64(b.src) >= b.cont.Intensity {
			return 0
		}
		d := mem.Cycles(prng.Intn(b.src, int(b.cont.MaxDelay))) + 1
		b.ctr.Interfered++
		b.ctr.InterferenceCycles += uint64(d)
		return d
	case WorstCaseContention:
		b.ctr.Interfered++
		b.ctr.InterferenceCycles += uint64(b.cont.MaxDelay)
		return b.cont.MaxDelay
	default:
		return 0
	}
}

// Read implements mem.Backend.
func (b *Bus) Read(addr mem.Addr, size int) mem.Cycles {
	b.ctr.Reads++
	self := b.cfg.ReadLatency + b.contend()
	b.att.Charge(telemetry.CompBus, self)
	return self + b.next.Read(addr, size)
}

// Write implements mem.Backend.
func (b *Bus) Write(addr mem.Addr, size int) mem.Cycles {
	b.ctr.Writes++
	self := b.cfg.WriteLatency + b.contend()
	b.att.Charge(telemetry.CompBus, self)
	return self + b.next.Write(addr, size)
}
