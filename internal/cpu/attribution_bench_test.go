package cpu_test

import (
	"testing"

	"dsr/internal/cpu"
	"dsr/internal/platform"
)

// BenchmarkFetchLoopAttribution is BenchmarkFetchLoop on the full
// ProximaLEON3 hierarchy with cycle attribution enabled: the
// per-instruction cost of observing a run, gated next to the
// unobserved loop.
func BenchmarkFetchLoopAttribution(b *testing.B) {
	plat := platform.New(platform.ProximaLEON3())
	plat.EnableAttribution()
	plat.LoadImage(cpu.BenchLoopProgram(b))
	b.ReportAllocs()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := plat.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Attribution.Total() != res.Cycles {
			b.Fatalf("booked %d cycles, charged %d", res.Attribution.Total(), res.Cycles)
		}
		instrs += res.PMCs.Instr
	}
	b.StopTimer()
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}
