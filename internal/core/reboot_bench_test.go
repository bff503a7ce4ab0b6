package core

import (
	"testing"

	"dsr/internal/platform"
	"dsr/internal/telemetry"
)

// BenchmarkReboot measures one unobserved DSR partition reboot — cache
// flush, layout draw, in-place image rebuild, journalled memory clear
// and metadata writes — without the run that follows. This is the
// per-run overhead the DSR series pays on top of execution; the
// benchgate baseline pins it so the reboot path cannot quietly regress
// back to per-run image construction or page-table churn.
func BenchmarkReboot(b *testing.B) {
	benchReboot(b, nil)
}

// BenchmarkRebootObserved is BenchmarkReboot with an event log
// attached, so the boot-time relocation model (the word-copy loop and
// cache-consistency routine costed through DL1 and L2) runs and its
// dsr.reloc and dsr.reboot events are emitted.
func BenchmarkRebootObserved(b *testing.B) {
	benchReboot(b, telemetry.NewCaptureLog())
}

func benchReboot(b *testing.B, log *telemetry.EventLog) {
	p := benchProgram(b)
	plat := platform.New(platform.ProximaLEON3())
	rt, err := NewRuntime(p, plat, Options{})
	if err != nil {
		b.Fatal(err)
	}
	rt.SetEventLog(log)
	if _, err := rt.Reboot(1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Reboot(uint64(i) + 2); err != nil {
			b.Fatal(err)
		}
		log.Take()
	}
}
