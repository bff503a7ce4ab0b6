package platform

import (
	"testing"

	"dsr/internal/bus"
	"dsr/internal/cache"
	"dsr/internal/dram"
	"dsr/internal/mem"
	"dsr/internal/telemetry"
)

// TestLevelsBookSelfLatency drives a bus → L2 → DRAM chain wired as
// EnableAttribution wires it: every transaction must book each level's
// self-latency — bus arbitration plus contention, the L2 hit latency
// per line access or one cycle per probed line, the whole DRAM latency
// — and nothing else, so the bookings add up to the returned latency.
// Inside a hushed span the levels book nothing.
func TestLevelsBookSelfLatency(t *testing.T) {
	att := telemetry.NewAttribution()
	d := dram.New(dram.Config{Name: "SDRAM", AccessLatency: 20, PerWord: 2})
	// 32 direct-mapped 32-byte sets: 0x100, 0x500 and 0x900 share set 8.
	l2 := cache.New(cache.Config{
		Name: "L2", Size: 1024, LineSize: 32, Ways: 1, HitLatency: 6,
		Placement: cache.PlacementModulo, Replacement: cache.ReplacementLRU,
		Write: cache.WriteBackAllocate,
	}, d)
	b := bus.New(bus.Config{Name: "AHB", ReadLatency: 2, WriteLatency: 3}, l2)
	b.SetAttribution(att)
	l2.SetAttribution(att, telemetry.CompL2)
	d.SetAttribution(att)

	const line = 20 + 8*2 // one 32-byte line to or from DRAM
	check := func(what string, lat, wantBus, wantL2, wantDRAM mem.Cycles) {
		t.Helper()
		for _, c := range []struct {
			comp telemetry.Component
			want mem.Cycles
		}{{telemetry.CompBus, wantBus}, {telemetry.CompL2, wantL2}, {telemetry.CompDRAM, wantDRAM}} {
			if got := att.Component(c.comp); got != c.want {
				t.Errorf("%s: %s booked %d, want %d", what, c.comp, got, c.want)
			}
		}
		if att.Total() != lat {
			t.Errorf("%s: booked %d cycles for a %d-cycle transaction", what, att.Total(), lat)
		}
		att.Reset()
	}
	check("read miss", b.Read(0x100, 4), 2, 6, line)
	check("read hit", b.Read(0x104, 4), 2, 6, 0)
	check("write hit", b.Write(0x108, 4), 3, 6, 0)
	check("fill evicting a dirty line", b.Read(0x500, 4), 2, 6, 2*line)
	check("write-allocate miss", b.Write(0x900, 4), 3, 6, line)
	check("read over two lines", b.Read(0x91c, 8), 2, 2*6, line)
	check("WritebackRange", l2.WritebackRange(0x900, 64), 0, 2, line)
	check("InvalidateRange", l2.InvalidateRange(0x900, 64), 0, 2, 0)
	b.SetContention(bus.Contention{Mode: bus.WorstCaseContention, MaxDelay: 5})
	check("read under contention", b.Read(0x920, 4), 2+5, 6, line)
	b.SetContention(bus.Contention{})

	att.Hush()
	lat := b.Read(0x100, 4) + b.Write(0x500, 4) + l2.WritebackRange(0x500, 32)
	att.Unhush(telemetry.CompDTLBWalk, lat)
	if got := att.Component(telemetry.CompDTLBWalk); got != lat || att.Total() != lat {
		t.Errorf("hushed span: %s booked %d of %d cycles, total %d", telemetry.CompDTLBWalk, got, lat, att.Total())
	}
}
