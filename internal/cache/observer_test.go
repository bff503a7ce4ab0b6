package cache

import (
	"reflect"
	"testing"
)

// event mirrors one Observer callback.
type event struct {
	write bool
	set   int
	hit   bool
}

type eventLog struct{ evs []event }

func (l *eventLog) OnAccess(write bool, set int, hit bool) {
	l.evs = append(l.evs, event{write, set, hit})
}

// smallCfg: 1024 B, 16 B lines, 2 ways -> 32 sets, set every 512 bytes.

func TestObserverReadEvents(t *testing.T) {
	c := New(smallCfg("t"), &flatMemory{readLat: 10})
	log := &eventLog{}
	c.SetObserver(log)
	c.Read(0x100, 4) // miss, set 16
	c.Read(0x104, 4) // hit, same line (way 0 of its set)
	c.Read(0x10E, 4) // straddles into set 17: hit (0x100 line) + miss (0x110)
	want := []event{
		{false, 16, false},
		{false, 16, true},
		{false, 16, true},
		{false, 17, false},
	}
	if !reflect.DeepEqual(log.evs, want) {
		t.Fatalf("events = %+v; want %+v", log.evs, want)
	}
}

func TestObserverWriteThroughEvents(t *testing.T) {
	cfg := smallCfg("dl1")
	cfg.Write = WriteThroughNoAllocate
	c := New(cfg, &flatMemory{readLat: 10, writeLat: 12})
	log := &eventLog{}
	c.SetObserver(log)
	c.Write(0x100, 4) // WT store miss: no allocate
	c.Read(0x100, 4)  // miss (store did not install)
	c.Write(0x100, 4) // WT store hit
	c.Write(0x104, 4) // WT store hit on way 0 of its set
	want := []event{
		{true, 16, false},
		{false, 16, false},
		{true, 16, true},
		{true, 16, true},
	}
	if !reflect.DeepEqual(log.evs, want) {
		t.Fatalf("events = %+v; want %+v", log.evs, want)
	}
}

func TestObserverWriteBackEvents(t *testing.T) {
	c := New(smallCfg("l2"), &flatMemory{readLat: 10, writeLat: 12})
	log := &eventLog{}
	c.SetObserver(log)
	c.Write(0x100, 4) // WB store miss: allocates
	c.Write(0x104, 4) // WB store hit
	want := []event{
		{true, 16, false},
		{true, 16, true},
	}
	if !reflect.DeepEqual(log.evs, want) {
		t.Fatalf("events = %+v; want %+v", log.evs, want)
	}
}

// Maintenance operations (flush, invalidate, writeback-range) are not
// victim accesses and must stay invisible to the observer.
func TestObserverSilentOnMaintenance(t *testing.T) {
	c := New(smallCfg("t"), &flatMemory{readLat: 10, writeLat: 12})
	c.Write(0x100, 4)
	c.Read(0x200, 4)
	log := &eventLog{}
	c.SetObserver(log)
	c.WritebackRange(0x100, 0x10)
	c.InvalidateRange(0x200, 0x10)
	c.FlushAll()
	if len(log.evs) != 0 {
		t.Fatalf("maintenance generated %d observer events: %+v", len(log.evs), log.evs)
	}
}

func TestObserverOccupancies(t *testing.T) {
	c := New(smallCfg("t"), &flatMemory{readLat: 10})
	c.Read(0x000, 4)
	c.Read(0x200, 4) // second way of set 0
	c.Read(0x010, 4) // set 1
	occ := c.Occupancies()
	if occ[0] != 2 || occ[1] != 1 {
		t.Fatalf("occupancies = %v; want set0=2 set1=1", occ[:4])
	}
	if c.SetOccupancy(0) != 2 {
		t.Fatalf("SetOccupancy(0) = %d; want 2", c.SetOccupancy(0))
	}
	total := 0
	for _, n := range occ {
		total += n
	}
	if total != 3 {
		t.Fatalf("total occupancy = %d; want 3", total)
	}
	c.FlushAll()
	if c.SetOccupancy(0) != 0 {
		t.Fatal("flush left occupancy behind")
	}
}

// TestObserverDisabledZeroAlloc pins the telemetry-style contract the
// hook comment in cache.go promises: with no observer attached, the
// access paths allocate nothing.
func TestObserverDisabledZeroAlloc(t *testing.T) {
	c := New(smallCfg("t"), &flatMemory{readLat: 10, writeLat: 12})
	c.Read(0, 4)
	if n := testing.AllocsPerRun(1000, func() {
		c.Read(0, 4)
		c.Write(4, 4)
	}); n != 0 {
		t.Fatalf("observer-off access path allocates %.1f per op; want 0", n)
	}
	// And with an observer attached, the recorder-side contract is the
	// observer's business — but the cache itself still must not allocate.
	c.SetObserver(noopObserver{})
	if n := testing.AllocsPerRun(1000, func() {
		c.Read(0, 4)
		c.Write(4, 4)
	}); n != 0 {
		t.Fatalf("observer-on access path allocates %.1f per op; want 0", n)
	}
}

type noopObserver struct{}

func (noopObserver) OnAccess(bool, int, bool) {}

// BenchmarkReadHitObserverOff proves the disabled hook is one
// predictable branch: compare against BenchmarkReadHit (no hook epoch)
// and BenchmarkReadHitObserverOn.
func BenchmarkReadHitObserverOff(b *testing.B) {
	c := New(smallCfg("b"), &flatMemory{readLat: 10})
	c.Read(0, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(0, 4)
	}
}

func BenchmarkReadHitObserverOn(b *testing.B) {
	c := New(smallCfg("b"), &flatMemory{readLat: 10})
	c.SetObserver(noopObserver{})
	c.Read(0, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(0, 4)
	}
}
