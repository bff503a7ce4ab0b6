package cpu_test

import (
	"strings"
	"testing"

	"dsr/internal/cpu"
	"dsr/internal/isa"
	"dsr/internal/loader"
	"dsr/internal/mem"
	"dsr/internal/platform"
	"dsr/internal/prog"
)

type zeroMem struct{}

func (zeroMem) Read(mem.Addr, int) mem.Cycles  { return 0 }
func (zeroMem) Write(mem.Addr, int) mem.Cycles { return 0 }

// TestNewRefusesInexactHierarchies: New takes the fronts of every
// shipped platform configuration (and the most register windows the
// engine can address), runs a program on them, and refuses at
// construction each configuration the threaded-code engine cannot run
// cycle-exactly.
func TestNewRefusesInexactHierarchies(t *testing.T) {
	fb := prog.NewFunc("main", prog.MinFrame).Prologue().MovI(isa.L0, 7).Halt()
	p := &prog.Program{Name: "tiny", Entry: "main"}
	if err := p.AddFunction(fb.MustBuild()); err != nil {
		t.Fatal(err)
	}
	img, err := loader.Load(p, loader.DefaultSequentialConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		base   func() platform.Config
		edit   func(*platform.Config)
		refuse bool
	}{
		{"ProximaLEON3", platform.ProximaLEON3, func(*platform.Config) {}, false},
		{"HWRandLEON3", platform.HWRandLEON3, func(*platform.Config) {}, false},
		{"15 windows", platform.ProximaLEON3, func(c *platform.Config) { c.CPU.NumWindows = 15 }, false},
		{"IL1 hit latency 1", platform.ProximaLEON3, func(c *platform.Config) { c.IL1.HitLatency = 1 }, true},
		{"2-byte DL1 line", platform.ProximaLEON3, func(c *platform.Config) { c.DL1.LineSize = 2 }, true},
		{"8192-byte IL1 line", platform.ProximaLEON3, func(c *platform.Config) { c.IL1.LineSize, c.IL1.Ways = 8192, 2 }, true},
		{"16 windows", platform.ProximaLEON3, func(c *platform.Config) { c.CPU.NumWindows = 16 }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.base()
			tc.edit(&cfg)
			il1, dl1, it, dt := cfg.Fronts(zeroMem{})
			defer func() {
				r := recover()
				if msg, _ := r.(string); (r != nil) != tc.refuse || r != nil && !strings.HasPrefix(msg, "cpu: ") {
					t.Fatalf("New panicked with %v, want a refusal: %v", r, tc.refuse)
				}
			}()
			c := cpu.New(cfg.CPU, img, il1, dl1, it, dt, cpu.NewMemory())
			c.Reset(cfg.StackTop)
			if _, err := c.Run(); err != nil || !c.Halted() || c.Reg(isa.L0) != 7 {
				t.Fatalf("run: err %v, halted %v, %%l0 = %d", err, c.Halted(), c.Reg(isa.L0))
			}
		})
	}
}
