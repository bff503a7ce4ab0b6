package telemetry

import (
	"dsr/internal/mem"
)

// Campaign bundles the three telemetry surfaces of a measurement
// campaign — the metrics registry, the structured event log, and a
// campaign clock that lays consecutive simulated runs end to end on one
// timeline (which is what makes the Chrome trace a coherent campaign
// view). A nil *Campaign disables everything.
type Campaign struct {
	Registry *Registry
	Events   *EventLog

	clock  mem.Cycles
	series map[string]*seriesMetrics // RecordRun's handles, per series
}

// seriesMetrics holds one series' registry handles, resolved on its
// first run so that RecordRun makes no registry lookups afterwards. The
// UoA histogram and attribution counters are created on their first
// non-zero value, as the registry would be asked for them then, so the
// set of metrics a snapshot shows is the same as with per-run lookups.
type seriesMetrics struct {
	labels     Labels
	runs       *Counter
	cycles     *Counter
	runCycles  *Histogram
	uoa        *Histogram
	attributed [NumComponents]*Counter
}

// NewCampaign builds an enabled campaign with an event ring of the given
// capacity (<=0 selects the default).
func NewCampaign(eventCapacity int) *Campaign {
	c := &Campaign{Registry: NewRegistry(), Events: NewEventLog(eventCapacity)}
	c.Events.SetClock(c.Now)
	return c
}

// Now returns the campaign clock position in simulated cycles; nil-safe.
func (c *Campaign) Now() mem.Cycles {
	if c == nil {
		return 0
	}
	return c.clock
}

// Advance moves the campaign clock forward; nil-safe.
func (c *Campaign) Advance(n mem.Cycles) {
	if c != nil {
		c.clock += n
	}
}

// RunRecord is everything a campaign wants to know about one measured
// run; the caller fills what it has.
type RunRecord struct {
	// Series is the campaign configuration name ("No Rand", "Sw Rand"...).
	Series string
	// Index is the run number within the series.
	Index int
	// Seed is the layout randomisation seed (0 for deterministic runs).
	Seed uint64
	// Cycles is the run's total execution time.
	Cycles mem.Cycles
	// UoA is the measured unit-of-analysis duration (ipoints 1→2).
	UoA float64
	// Attribution is the per-run cycle attribution (zero Valid when the
	// profiler is disabled).
	Attribution AttributionSnapshot
}

// RunCycleBounds are the histogram bounds used for per-run cycle
// durations (exponential, covering 1k..~500M cycles).
var RunCycleBounds = ExpBounds(1024, 2, 20)

// RecordRun books one measured run: counters and histograms in the
// registry, a B/E span pair plus attribution attributes in the event
// log, and a campaign-clock advance by the run's duration. Nil-safe.
// Calls come from one goroutine (the canonical-order merge), which owns
// the clock and the per-series handles.
func (c *Campaign) RecordRun(rec RunRecord) {
	if c == nil {
		return
	}
	m := c.seriesMetrics(rec.Series)
	m.runs.Inc()
	m.cycles.Add(uint64(rec.Cycles))
	m.runCycles.Observe(float64(rec.Cycles))
	if rec.UoA > 0 {
		if m.uoa == nil {
			m.uoa = c.Registry.Histogram("dsr_uoa_cycles", m.labels, RunCycleBounds)
		}
		m.uoa.Observe(rec.UoA)
	}
	if rec.Attribution.Valid {
		for comp := Component(0); comp < NumComponents; comp++ {
			if v := rec.Attribution.Component(comp); v > 0 {
				ctr := m.attributed[comp]
				if ctr == nil {
					ctr = c.Registry.Counter("dsr_attributed_cycles_total",
						Labels{"series": rec.Series, "component": comp.String()})
					m.attributed[comp] = ctr
				}
				ctr.Add(uint64(v))
			}
		}
	}

	start := c.Now()
	attrs := []Attr{
		Int("run", rec.Index),
		Uint64("seed", rec.Seed),
		Cycles("cycles", rec.Cycles),
	}
	if rec.UoA > 0 {
		attrs = append(attrs, Float("uoa_cycles", rec.UoA))
	}
	c.Events.EmitAt(start, rec.Series, "run", PhaseBegin, attrs...)
	if rec.UoA > 0 {
		// Place the measured UoA span inside the run span; the exact
		// enter offset is not retained, so centre it.
		u := mem.Cycles(rec.UoA)
		if u > rec.Cycles {
			u = rec.Cycles
		}
		off := (rec.Cycles - u) / 2
		c.Events.EmitAt(start+off, rec.Series, "uoa", PhaseBegin, Int("run", rec.Index))
		c.Events.EmitAt(start+off+u, rec.Series, "uoa", PhaseEnd)
	}
	if rec.Attribution.Valid {
		var aattrs []Attr
		for comp := Component(0); comp < NumComponents; comp++ {
			if v := rec.Attribution.Component(comp); v > 0 {
				aattrs = append(aattrs, Cycles(comp.String(), v))
			}
		}
		c.Events.EmitAt(start+rec.Cycles, rec.Series, "run.attribution", PhaseInstant, aattrs...)
	}
	c.Events.EmitAt(start+rec.Cycles, rec.Series, "run", PhaseEnd)
	c.Advance(rec.Cycles)
}

// seriesMetrics returns the series' handles, registering its per-run
// counters and histogram on first use.
func (c *Campaign) seriesMetrics(series string) *seriesMetrics {
	if m := c.series[series]; m != nil {
		return m
	}
	labels := Labels{"series": series}
	m := &seriesMetrics{
		labels:    labels,
		runs:      c.Registry.Counter("dsr_runs_total", labels),
		cycles:    c.Registry.Counter("dsr_run_cycles_total", labels),
		runCycles: c.Registry.Histogram("dsr_run_cycles", labels, RunCycleBounds),
	}
	if c.series == nil {
		c.series = map[string]*seriesMetrics{}
	}
	c.series[series] = m
	return m
}

// Dump snapshots the campaign into the exportable form; nil-safe (empty
// dump).
func (c *Campaign) Dump() *Dump {
	if c == nil {
		return &Dump{}
	}
	return NewDump(c.Registry, c.Events)
}
