package telemetry

import (
	"reflect"
	"testing"

	"dsr/internal/mem"
)

// refRecordRunMetrics is the registry half of RecordRun with a lookup
// per metric per call: the reference the cached per-series handles
// must reproduce.
func refRecordRunMetrics(r *Registry, rec RunRecord) {
	labels := Labels{"series": rec.Series}
	r.Counter("dsr_runs_total", labels).Inc()
	r.Counter("dsr_run_cycles_total", labels).Add(uint64(rec.Cycles))
	r.Histogram("dsr_run_cycles", labels, RunCycleBounds).Observe(float64(rec.Cycles))
	if rec.UoA > 0 {
		r.Histogram("dsr_uoa_cycles", labels, RunCycleBounds).Observe(rec.UoA)
	}
	if rec.Attribution.Valid {
		for comp := Component(0); comp < NumComponents; comp++ {
			if v := rec.Attribution.Component(comp); v > 0 {
				r.Counter("dsr_attributed_cycles_total",
					Labels{"series": rec.Series, "component": comp.String()}).Add(uint64(v))
			}
		}
	}
}

// TestRecordRunSnapshotUnchanged interleaves two series — one that
// never has a UoA, one whose UoA and some attribution components start
// at zero and turn non-zero later — and requires the registry snapshot
// after every run to equal the per-call-lookup reference: the lazily
// created metrics must appear at the same run, with the same values.
func TestRecordRunSnapshotUnchanged(t *testing.T) {
	c := NewCampaign(0)
	ref := NewRegistry()
	for i := 0; i < 40; i++ {
		recs := []RunRecord{{Series: "No Rand", Index: i, Seed: uint64(i), Cycles: mem.Cycles(900 + i)}}
		var att Attribution
		att.Charge(CompBaseIssue, mem.Cycles(500+i))
		if i >= 3 {
			att.Charge(CompDRAM, mem.Cycles(7*i))
		}
		if i%5 == 4 {
			att.Charge(CompBus, 11)
		}
		sw := RunRecord{Series: "Sw Rand", Index: i, Seed: uint64(100 + i),
			Cycles: mem.Cycles(2000 + 3*i), Attribution: att.Snapshot()}
		if i >= 6 {
			sw.UoA = float64(1500 + i)
		}
		recs = append(recs, sw)
		if i%2 == 1 {
			recs[0], recs[1] = recs[1], recs[0]
		}
		for _, rec := range recs {
			c.RecordRun(rec)
			refRecordRunMetrics(ref, rec)
			if got, want := c.Registry.Snapshot(), ref.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("run %d of %q: snapshot\n%+v\nwant\n%+v", i, rec.Series, got, want)
			}
		}
	}
}
