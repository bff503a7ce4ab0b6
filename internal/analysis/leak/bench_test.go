package leak

import (
	"testing"

	"dsr/internal/analysis/wcet"
	"dsr/internal/spaceapp"
)

// BenchmarkLeakAnalyze measures a full leakage analysis of the control
// application in the most expensive mode (DSR eager: multiset counting
// plus the entropy table). Tracked by the benchmark gate.
func BenchmarkLeakAnalyze(b *testing.B) {
	p, err := spaceapp.BuildControl()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := AnalyzeMode(p, wcet.ModeDSREager)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Bounded {
			b.Fatal("control app not bounded")
		}
	}
}
