package tlb

import (
	"testing"

	"dsr/internal/mem"
)

type countingMem struct {
	reads int
	lat   mem.Cycles
}

func (c *countingMem) Read(a mem.Addr, size int) mem.Cycles  { c.reads++; return c.lat }
func (c *countingMem) Write(a mem.Addr, size int) mem.Cycles { return c.lat }

func newTestTLB(entries int) (*TLB, *countingMem) {
	m := &countingMem{lat: 10}
	t := New(Config{Name: "itlb", Entries: entries}, m, 0x8000_0000)
	return t, m
}

func TestHitAfterMiss(t *testing.T) {
	tl, m := newTestTLB(4)
	lat := tl.Translate(0x1000)
	if lat != 30 {
		t.Errorf("miss latency=%d, want 30 (3 walk reads x 10)", lat)
	}
	if m.reads != 3 {
		t.Errorf("walk reads=%d, want 3", m.reads)
	}
	if lat := tl.Translate(0x1FFC); lat != 0 {
		t.Errorf("same-page hit latency=%d, want 0", lat)
	}
	ctr := tl.Counters()
	if ctr.Accesses != 2 || ctr.Hits != 1 || ctr.Misses != 1 {
		t.Errorf("counters=%+v", ctr)
	}
}

func TestLRUEviction(t *testing.T) {
	tl, _ := newTestTLB(2)
	tl.Translate(0 * mem.PageSize)
	tl.Translate(1 * mem.PageSize)
	tl.Translate(0 * mem.PageSize) // refresh page 0
	tl.Translate(2 * mem.PageSize) // evicts page 1
	tl.ResetCounters()
	tl.Translate(0 * mem.PageSize)
	if tl.Counters().Misses != 0 {
		t.Error("recently used page was evicted")
	}
	tl.Translate(1 * mem.PageSize)
	if tl.Counters().Misses != 1 {
		t.Error("LRU page should have been evicted")
	}
}

func TestCapacity(t *testing.T) {
	tl, _ := newTestTLB(64)
	for p := 0; p < 64; p++ {
		tl.Translate(mem.Addr(p) * mem.PageSize)
	}
	if tl.ValidEntries() != 64 {
		t.Errorf("valid entries=%d, want 64", tl.ValidEntries())
	}
	tl.ResetCounters()
	for p := 0; p < 64; p++ {
		tl.Translate(mem.Addr(p) * mem.PageSize)
	}
	if tl.Counters().Misses != 0 {
		t.Errorf("64 resident pages should all hit, got %d misses", tl.Counters().Misses)
	}
	// One more distinct page evicts exactly one entry.
	tl.Translate(64 * mem.PageSize)
	if tl.ValidEntries() != 64 {
		t.Errorf("valid entries after overflow=%d, want 64", tl.ValidEntries())
	}
}

func TestFlush(t *testing.T) {
	tl, _ := newTestTLB(8)
	tl.Translate(0x1000)
	tl.Flush()
	if tl.ValidEntries() != 0 {
		t.Error("flush left valid entries")
	}
	tl.ResetCounters()
	tl.Translate(0x1000)
	if tl.Counters().Misses != 1 {
		t.Error("post-flush translation should miss")
	}
}

func TestValidateAndPanic(t *testing.T) {
	bad := Config{Name: "bad", Entries: 0}
	if err := bad.Validate(); err == nil {
		t.Error("zero entries accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New with bad config did not panic")
		}
	}()
	New(bad, &countingMem{}, 0)
}
