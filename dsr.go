// Package dsr is the public face of the PROXIMA dynamic software
// randomisation (DSR) reproduction: a LEON3-like timing-simulation
// platform, a toolchain for small SPARC-flavoured programs, the DSR
// compiler pass and runtime, and the MBPTA analysis pipeline (i.i.d.
// gate, EVT fit, pWCET estimation), after Cros, Kosmidis et al.,
// "Dynamic Software Randomisation: Lessons Learned From an Aerospace
// Case Study", DATE 2017.
//
// Typical workflow (see examples/quickstart):
//
//	p := ...                              // build a Program
//	plat := dsr.NewPlatform()             // the PROXIMA LEON3 target
//	rt, _ := dsr.NewRuntime(p, plat, dsr.Options{})
//	times := []float64{}
//	for i := 0; i < 1000; i++ {           // measurement protocol, §IV-V
//		rt.Reboot(uint64(i))              // fresh random layout
//		res, _ := rt.Run()
//		times = append(times, float64(res.Cycles))
//	}
//	rep, _ := dsr.Analyse(times)          // MBPTA
//	fmt.Println(rep.PWCET)                // pWCET @ 1e-15
package dsr

import (
	"dsr/internal/analysis"
	"dsr/internal/core"
	"dsr/internal/isa"
	"dsr/internal/loader"
	"dsr/internal/mbpta"
	"dsr/internal/mem"
	"dsr/internal/platform"
	"dsr/internal/prog"
	"dsr/internal/rvs"
	"dsr/internal/spaceapp"
)

// Program construction (the IR the toolchain consumes).
type (
	// Program is a linkable unit: functions, data objects, entry point.
	Program = prog.Program
	// Function is one routine in the IR.
	Function = prog.Function
	// DataObject is one global data region.
	DataObject = prog.DataObject
	// Builder assembles a function with symbolic labels.
	Builder = prog.Builder
)

// Re-exported builder entry points.
var (
	// NewFunc starts a non-leaf function with a frame.
	NewFunc = prog.NewFunc
	// NewLeaf starts a leaf function.
	NewLeaf = prog.NewLeaf
)

// MinFrame is the smallest legal stack frame (SPARC v8 ABI).
const MinFrame = prog.MinFrame

// Platform and execution.
type (
	// Platform is the assembled LEON3-like machine.
	Platform = platform.Platform
	// PlatformConfig describes a platform variant.
	PlatformConfig = platform.Config
	// RunResult is one measured run: cycles, counters, trace.
	RunResult = platform.RunResult
	// PMCs are the performance-monitoring counters of Table I.
	PMCs = platform.PMCs
	// Image is a loaded executable.
	Image = loader.Image
)

// NewPlatform builds the paper's target: the PROXIMA LEON3 with COTS
// (modulo-placement, LRU) caches — the platform DSR makes analysable.
func NewPlatform() *Platform { return platform.New(platform.ProximaLEON3()) }

// NewHWRandPlatform builds the hardware time-randomised variant used for
// comparison: random placement and replacement in every cache.
func NewHWRandPlatform() *Platform { return platform.New(platform.HWRandLEON3()) }

// LoadSequential lays a program out the way a conventional linker does
// (the non-randomised baseline) and returns the image.
func LoadSequential(p *Program) (*Image, error) {
	return loader.Load(p, loader.DefaultSequentialConfig())
}

// The DSR core.
type (
	// Runtime is the DSR runtime bound to a platform: Reboot draws a
	// fresh random layout, Run performs one measured execution.
	Runtime = core.Runtime
	// Options configures the DSR runtime (offset bound, relocation
	// mode, PRNG).
	Options = core.Options
	// BootStats reports what one re-randomisation did.
	BootStats = core.BootStats
	// PassStats reports the compiler pass's code growth.
	PassStats = core.PassStats
)

// Relocation modes (§III.B.1).
const (
	// Eager relocates all functions at boot (the paper's choice).
	Eager = core.Eager
	// Lazy relocates at first call — inside the measured window.
	Lazy = core.Lazy
)

// NewRuntime runs the DSR compiler pass on p and binds the runtime to
// plat. Call Reboot before every measured run.
func NewRuntime(p *Program, plat *Platform, opts Options) (*Runtime, error) {
	return core.NewRuntime(p, plat, opts)
}

// StaticBuild produces one statically randomised binary (the TASA-like
// variant): link-time layout randomisation with zero runtime overhead.
func StaticBuild(p *Program, offsetBound int, seed uint64) (*Image, error) {
	return core.StaticBuild(p, loader.DefaultSequentialConfig(), offsetBound, seed)
}

// MBPTA analysis.
type (
	// Report is a complete MBPTA analysis result.
	Report = mbpta.Report
	// AnalysisOptions configures the MBPTA pipeline.
	AnalysisOptions = mbpta.Options
	// IIDReport is the i.i.d. gate outcome.
	IIDReport = mbpta.IIDReport
	// MarginComparison compares a pWCET against MOET + margin.
	MarginComparison = mbpta.MarginComparison
)

// Analyse runs MBPTA with the paper's defaults (5% significance, block
// size 50, target exceedance 1e-15) on a series of execution times.
func Analyse(times []float64) (*Report, error) {
	return mbpta.Analyse(times, mbpta.DefaultOptions())
}

// AnalyseWith runs MBPTA with explicit options.
func AnalyseWith(times []float64, opts AnalysisOptions) (*Report, error) {
	return mbpta.Analyse(times, opts)
}

// DefaultAnalysisOptions returns the paper's analysis configuration.
func DefaultAnalysisOptions() AnalysisOptions { return mbpta.DefaultOptions() }

// CompareWithMargin compares a report's pWCET against the industrial
// practice of MOET + margin on the reference (non-randomised) binary.
func CompareWithMargin(rep *Report, moetRef, margin float64) MarginComparison {
	return mbpta.CompareWithMargin(rep, moetRef, margin)
}

// RenderCurve draws the pWCET plot (Fig. 3) as text.
func RenderCurve(rep *Report, times []float64) string {
	return rvs.RenderCurve(rep, times, 72, 18)
}

// Static analysis and verification (internal/analysis).
type (
	// Diagnostic is one static-analysis finding.
	Diagnostic = analysis.Diagnostic
	// Severity ranks a diagnostic (Info, Warning, Error).
	Severity = analysis.Severity
)

// Diagnostic severities.
const (
	Info    = analysis.Info
	Warning = analysis.Warning
	Error   = analysis.Error
)

// Lint runs the standard static-analysis passes (reserved registers,
// return shapes, alignment, frame conventions, unreachable code, dead
// stores) over a program.
func Lint(p *Program) []Diagnostic {
	return analysis.Run(p, analysis.DefaultPasses(), nil)
}

// Verify checks every invariant of the DSR transformation a runtime is
// about to execute: all direct calls indirected through the function
// table, all prologues carrying the stack-offset load, tables complete
// and index-consistent, branch displacements remapped. Run it before a
// measurement campaign — a malformed rewrite breaks the i.i.d. premise
// without breaking the program visibly.
func Verify(orig *Program, rt *Runtime) []Diagnostic {
	return analysis.VerifyTransform(orig, rt.Program(), rt.Metadata().TransformInfo())
}

// HasErrors reports whether any diagnostic is Error-level.
func HasErrors(ds []Diagnostic) bool { return analysis.HasErrors(ds) }

// The space case study (§IV).

// BuildControlTask constructs the high-criticality active-optics control
// task, the paper's unit of analysis.
func BuildControlTask() (*Program, error) { return spaceapp.BuildControl() }

// BuildProcessingTask constructs the low-criticality image-processing
// task (12×12 lenses of 34×34 pixels, ~70% lit).
func BuildProcessingTask() (*Program, error) { return spaceapp.BuildProcessing() }

// Addr is a simulated physical address; DataObject sizes and bases use it.
type Addr = mem.Addr

// Cycles counts simulated processor cycles.
type Cycles = mem.Cycles

// Reg is an integer register name for builder code.
type Reg = isa.Reg

// FReg is a floating-point register name for builder code.
type FReg = isa.FReg
