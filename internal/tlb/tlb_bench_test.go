package tlb

import (
	"testing"

	"dsr/internal/mem"
)

// TLB microbenchmarks: Translate runs once per instruction fetch and
// once per data access, so its hit path is as hot as the L1s'. The
// dominant pattern is a long run of translations of the same page
// (straight-line code, sweeps within a page), which the inlined compare
// against the most recent page serves without touching the rest of the
// recency order.

var tlbSink mem.Cycles

// BenchmarkTranslateSamePage is the dominant pattern: repeated
// translations of one page (front-of-list hit).
func BenchmarkTranslateSamePage(b *testing.B) {
	tl, _ := newTestTLB(64)
	tl.Translate(0x4000_0000)
	b.ReportAllocs()
	b.ResetTimer()
	var lat mem.Cycles
	for i := 0; i < b.N; i++ {
		lat += tl.Translate(0x4000_0010)
	}
	tlbSink = lat
}

// BenchmarkTranslateTwoPages alternates two resident pages: each
// translation misses the front compare and finds its page one slot
// back.
func BenchmarkTranslateTwoPages(b *testing.B) {
	tl, _ := newTestTLB(64)
	tl.Translate(0x4000_0000)
	tl.Translate(0x4002_0000)
	b.ReportAllocs()
	b.ResetTimer()
	var lat mem.Cycles
	for i := 0; i < b.N; i++ {
		lat += tl.Translate(0x4000_0000)
		lat += tl.Translate(0x4002_0000)
	}
	tlbSink = lat
}

// BenchmarkTranslateResidentSweep cycles through 48 resident pages in
// round-robin order: the worst case for a recency list, as every hit
// finds its page 47 slots back. Real traffic, DSR included, finds most
// pages within a few slots of the front.
func BenchmarkTranslateResidentSweep(b *testing.B) {
	tl, _ := newTestTLB(64)
	const pages = 48
	for p := 0; p < pages; p++ {
		tl.Translate(mem.Addr(p) * mem.PageSize)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var lat mem.Cycles
	p := 0
	for i := 0; i < b.N; i++ {
		lat += tl.Translate(mem.Addr(p) * mem.PageSize)
		p++
		if p == pages {
			p = 0
		}
	}
	tlbSink = lat
}

// BenchmarkTranslateMiss always misses: eviction + 3-level walk.
func BenchmarkTranslateMiss(b *testing.B) {
	tl, _ := newTestTLB(64)
	b.ReportAllocs()
	b.ResetTimer()
	var lat mem.Cycles
	a := mem.Addr(0)
	for i := 0; i < b.N; i++ {
		lat += tl.Translate(a)
		a += mem.PageSize
	}
	tlbSink = lat
}

// TestTranslateAllocFree asserts the hit path never allocates.
func TestTranslateAllocFree(t *testing.T) {
	tl, _ := newTestTLB(64)
	tl.Translate(0x4000_0000)
	tl.Translate(0x4002_0000)
	if n := testing.AllocsPerRun(1000, func() { tlbSink = tl.Translate(0x4000_0000) }); n != 0 {
		t.Errorf("front-hit translate allocates %v times", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tlbSink = tl.Translate(0x4000_0000)
		tlbSink = tl.Translate(0x4002_0000)
	}); n != 0 {
		t.Errorf("recency-pass translate allocates %v times", n)
	}
}
