// Package prog is the intermediate representation consumed by the
// toolchain: a program is a set of functions (isa instruction sequences),
// global data objects, and an entry point. The deterministic loader lays
// a Program out sequentially; the DSR compiler pass (internal/core)
// transforms a Program by inserting indirection and stack-offset code,
// and the DSR runtime re-places its objects randomly each run.
//
// The stack frame convention mirrors SPARC v8: the first 64 bytes above
// %sp are the register-window save area (16 words spilled there on window
// overflow); function locals live at [%sp+64] and up. MinFrame is the
// smallest legal frame.
package prog

import (
	"fmt"

	"dsr/internal/isa"
	"dsr/internal/mem"
)

// MinFrame is the smallest legal stack frame: the 64-byte window save
// area plus the 32-byte argument/spare area of the SPARC v8 ABI.
const MinFrame = 96

// SaveAreaBytes is the size of the register-window spill area at %sp.
const SaveAreaBytes = 64

// LocalBase is the %sp offset of the first function-local slot.
const LocalBase = SaveAreaBytes + 32

// Function is one routine. Leaf functions have no Save/Restore and may
// not call; they return with RetL.
type Function struct {
	Name string
	// FrameSize is the stack frame in bytes; must be a multiple of 8 and
	// at least MinFrame for non-leaf functions, 0 for leaf functions.
	FrameSize int32
	Leaf      bool
	Code      []isa.Instr

	// LoopBounds carries `dsr:loop-bound N` annotations: instruction
	// index -> maximum iteration count of the innermost natural loop
	// containing that instruction. The static WCET analyzer
	// (internal/analysis/wcet) consumes these when it cannot infer a
	// bound from the loop's induction pattern. nil when unannotated.
	LoopBounds map[int]int
}

// SizeBytes returns the function's code size.
func (f *Function) SizeBytes() mem.Addr {
	return mem.Addr(len(f.Code)) * isa.InstrBytes
}

// DataObject is one global data region with optional word initialisers.
type DataObject struct {
	Name  string
	Size  mem.Addr
	Align mem.Addr
	// Init holds initial words written at load time, at most Size/4.
	Init []uint32
}

// Program is a complete linkable unit.
type Program struct {
	Name      string
	Functions []*Function
	Data      []*DataObject
	Entry     string
}

// Function returns the named function, or nil.
func (p *Program) Function(name string) *Function {
	for _, f := range p.Functions {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// DataObject returns the named data object, or nil.
func (p *Program) DataObject(name string) *DataObject {
	for _, d := range p.Data {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// AddFunction appends f, rejecting duplicate names.
func (p *Program) AddFunction(f *Function) error {
	if p.Function(f.Name) != nil {
		return fmt.Errorf("prog: duplicate function %q", f.Name)
	}
	p.Functions = append(p.Functions, f)
	return nil
}

// AddData appends d, rejecting duplicate names.
func (p *Program) AddData(d *DataObject) error {
	if p.DataObject(d.Name) != nil || p.Function(d.Name) != nil {
		return fmt.Errorf("prog: duplicate symbol %q", d.Name)
	}
	p.Data = append(p.Data, d)
	return nil
}

// Validate checks structural invariants: the entry point exists and is
// not a leaf, every Call/Set symbol resolves, branch displacements stay
// inside their function, frames are legal, and leaf functions neither
// save nor call.
func (p *Program) Validate() error {
	syms := map[string]bool{}
	for _, f := range p.Functions {
		if syms[f.Name] {
			return fmt.Errorf("prog %s: duplicate symbol %q", p.Name, f.Name)
		}
		syms[f.Name] = true
	}
	for _, d := range p.Data {
		if syms[d.Name] {
			return fmt.Errorf("prog %s: duplicate symbol %q", p.Name, d.Name)
		}
		syms[d.Name] = true
		if d.Size == 0 {
			return fmt.Errorf("prog %s: data %q has zero size", p.Name, d.Name)
		}
		if d.Align != 0 && (d.Align&(d.Align-1)) != 0 {
			return fmt.Errorf("prog %s: data %q alignment %d not a power of two", p.Name, d.Name, d.Align)
		}
		if mem.Addr(len(d.Init))*mem.WordSize > d.Size {
			return fmt.Errorf("prog %s: data %q initialiser exceeds size", p.Name, d.Name)
		}
	}
	if p.Entry == "" {
		return fmt.Errorf("prog %s: no entry point", p.Name)
	}
	entry := p.Function(p.Entry)
	if entry == nil {
		return fmt.Errorf("prog %s: entry %q not defined", p.Name, p.Entry)
	}
	for _, f := range p.Functions {
		if err := p.validateFunction(f); err != nil {
			return err
		}
	}
	return nil
}

func (p *Program) validateFunction(f *Function) error {
	if len(f.Code) == 0 {
		return fmt.Errorf("prog %s: function %q is empty", p.Name, f.Name)
	}
	if f.Leaf {
		if f.FrameSize != 0 {
			return fmt.Errorf("prog %s: leaf %q has a frame", p.Name, f.Name)
		}
	} else {
		if f.FrameSize < MinFrame {
			return fmt.Errorf("prog %s: function %q frame %d below minimum %d",
				p.Name, f.Name, f.FrameSize, MinFrame)
		}
		if f.FrameSize%mem.DoubleWord != 0 {
			return fmt.Errorf("prog %s: function %q frame %d not double-word aligned",
				p.Name, f.Name, f.FrameSize)
		}
	}
	for i := range f.Code {
		in := &f.Code[i]
		switch in.Op {
		case isa.Call:
			if f.Leaf {
				return fmt.Errorf("prog %s: leaf %q calls %q", p.Name, f.Name, in.Sym)
			}
			if p.Function(in.Sym) == nil {
				return fmt.Errorf("prog %s: %q calls undefined %q", p.Name, f.Name, in.Sym)
			}
		case isa.CallR:
			if f.Leaf {
				return fmt.Errorf("prog %s: leaf %q makes an indirect call", p.Name, f.Name)
			}
		case isa.Set:
			if in.Sym != "" && !p.symbolDefined(in.Sym) {
				return fmt.Errorf("prog %s: %q references undefined symbol %q", p.Name, f.Name, in.Sym)
			}
		case isa.Save, isa.SaveX:
			if f.Leaf {
				return fmt.Errorf("prog %s: leaf %q executes save", p.Name, f.Name)
			}
		case isa.Ret:
			if f.Leaf {
				return fmt.Errorf("prog %s: leaf %q uses ret (want retl)", p.Name, f.Name)
			}
		case isa.RetL:
			if !f.Leaf {
				return fmt.Errorf("prog %s: non-leaf %q uses retl", p.Name, f.Name)
			}
		}
		if in.Op.IsBranch() {
			tgt := i + int(in.Disp)
			if tgt < 0 || tgt >= len(f.Code) {
				return fmt.Errorf("prog %s: %q branch at %d jumps to %d, outside [0,%d)",
					p.Name, f.Name, i, tgt, len(f.Code))
			}
		}
	}
	for i, n := range f.LoopBounds {
		if i < 0 || i >= len(f.Code) {
			return fmt.Errorf("prog %s: %q loop-bound annotation at instruction %d, outside [0,%d)",
				p.Name, f.Name, i, len(f.Code))
		}
		if n < 1 {
			return fmt.Errorf("prog %s: %q loop bound %d at instruction %d must be >= 1",
				p.Name, f.Name, n, i)
		}
	}
	return nil
}

func (p *Program) symbolDefined(name string) bool {
	return p.Function(name) != nil || p.DataObject(name) != nil
}

// SymbolDefined reports whether name is a defined function or data
// object — the resolution check the lint layer (internal/analysis)
// reuses to report *all* unresolved references with positions, where
// Validate stops at the first.
func (p *Program) SymbolDefined(name string) bool { return p.symbolDefined(name) }

// Clone deep-copies the program so a transformation pass (the DSR
// compiler) can rewrite it without mutating the original.
func (p *Program) Clone() *Program {
	q := &Program{Name: p.Name, Entry: p.Entry}
	for _, f := range p.Functions {
		nf := &Function{Name: f.Name, FrameSize: f.FrameSize, Leaf: f.Leaf}
		nf.Code = append([]isa.Instr(nil), f.Code...)
		if f.LoopBounds != nil {
			nf.LoopBounds = make(map[int]int, len(f.LoopBounds))
			for i, n := range f.LoopBounds {
				nf.LoopBounds[i] = n
			}
		}
		q.Functions = append(q.Functions, nf)
	}
	for _, d := range p.Data {
		nd := &DataObject{Name: d.Name, Size: d.Size, Align: d.Align}
		nd.Init = append([]uint32(nil), d.Init...)
		q.Data = append(q.Data, nd)
	}
	return q
}
