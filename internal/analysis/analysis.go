// Package analysis is the static-analysis and lint layer of the
// toolchain. The paper's argument — that measurement-based timing
// analysis (MBPTA) can stand in for static timing analysis — holds only
// if the DSR transformation itself is provably well-formed: a
// miscompiled indirection or an unpaired stack offset silently breaks
// the i.i.d. premise without breaking the program visibly. Following
// Doychev & Köpf's position that static analysis is the right tool to
// certify a countermeasure's memory behaviour, this package provides:
//
//   - CFG construction over isa.Instr sequences with dominators, loop
//     detection, reachability and a register liveness analysis
//     (unreachable-code and dead-store reporting);
//
//   - an interprocedural call-graph analysis computing worst-case call
//     depth, maximum stack depth and a static register-window spill
//     bound (feeding internal/sched partition stack budgets);
//
//   - a pluggable lint-pass framework (Pass + Diagnostic with severity
//     and instruction/source location) with passes for reserved-register
//     misuse (%g6/%g7, which the DSR dispatch clobbers), return-shape
//     violations, misaligned memory operands and stack-frame convention
//     violations;
//
//   - a differential verifier for the DSR compiler pass (verify.go)
//     checking every core.Transform output invariant; and
//
//   - a static L2 conflict lint (l2lint.go) that reuses
//     internal/layout.Conflicts to flag deterministic layouts with
//     pathological direct-mapped overlap — the paper's "bad and rare
//     cache layout", surfaced at compile time.
package analysis

import (
	"fmt"
	"sort"

	"dsr/internal/prog"
)

// Severity ranks a diagnostic.
type Severity int

// Severity levels. Error-level diagnostics make dsrlint exit non-zero
// and make the DSR verifier reject a transformation.
const (
	Info Severity = iota
	Warning
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// Diagnostic is one finding, located at an instruction of a function.
type Diagnostic struct {
	Pass string
	Sev  Severity
	// Fn is the function (or data object) the finding is about; may be
	// empty for whole-program findings.
	Fn string
	// Index is the instruction index inside Fn, or -1 when the finding
	// is not tied to one instruction.
	Index int
	// Line is the source line when the program came from the assembler
	// (0 when unknown).
	Line int
	Msg  string
}

func (d Diagnostic) String() string {
	loc := ""
	switch {
	case d.Fn != "" && d.Index >= 0 && d.Line > 0:
		loc = fmt.Sprintf(" %s+%d (line %d)", d.Fn, d.Index, d.Line)
	case d.Fn != "" && d.Index >= 0:
		loc = fmt.Sprintf(" %s+%d", d.Fn, d.Index)
	case d.Fn != "":
		loc = " " + d.Fn
	}
	return fmt.Sprintf("%s: [%s]%s: %s", d.Sev, d.Pass, loc, d.Msg)
}

// LineResolver maps (function, instruction index) to a source line.
// asm.SourceInfo.InstrLine satisfies it; a nil resolver is allowed.
type LineResolver func(fn string, index int) (line int, ok bool)

// HasErrors reports whether any diagnostic is Error-level.
func HasErrors(ds []Diagnostic) bool { return len(Errors(ds)) > 0 }

// Errors filters the Error-level diagnostics.
func Errors(ds []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range ds {
		if d.Sev == Error {
			out = append(out, d)
		}
	}
	return out
}

// Context is the state shared by passes during one Run.
type Context struct {
	Prog  *prog.Program
	Lines LineResolver // may be nil
	diags []Diagnostic
	pass  string
}

// Diagf records a finding at (fn, index) for the running pass.
func (c *Context) Diagf(sev Severity, fn string, index int, format string, args ...interface{}) {
	d := Diagnostic{Pass: c.pass, Sev: sev, Fn: fn, Index: index, Msg: fmt.Sprintf(format, args...)}
	if c.Lines != nil && fn != "" && index >= 0 {
		if line, ok := c.Lines(fn, index); ok {
			d.Line = line
		}
	}
	c.diags = append(c.diags, d)
}

// Pass is one lint pass. Run inspects ctx.Prog and records findings
// through ctx.Diagf.
type Pass struct {
	Name string
	Doc  string
	Run  func(ctx *Context)
}

// DefaultPasses returns the standard lint pipeline in execution order.
func DefaultPasses() []*Pass {
	return []*Pass{
		SymbolsPass(),
		ReservedRegPass(),
		RetShapePass(),
		AlignmentPass(),
		FramePass(),
		UnreachablePass(),
		DeadStorePass(),
	}
}

// Run executes the passes over p. The program does not need to pass
// prog.Validate first — passes must tolerate malformed input — but
// callers typically validate first and lint second. Diagnostics are
// returned sorted by (function, index, pass).
func Run(p *prog.Program, passes []*Pass, lines LineResolver) []Diagnostic {
	ctx := &Context{Prog: p, Lines: lines}
	for _, ps := range passes {
		ctx.pass = ps.Name
		ps.Run(ctx)
	}
	sort.SliceStable(ctx.diags, func(i, j int) bool {
		a, b := ctx.diags[i], ctx.diags[j]
		if a.Fn != b.Fn {
			return a.Fn < b.Fn
		}
		if a.Index != b.Index {
			return a.Index < b.Index
		}
		return a.Pass < b.Pass
	})
	return ctx.diags
}
