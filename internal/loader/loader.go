// Package loader turns a prog.Program plus a placement (symbol → base
// address) into an executable Image: patched instruction copies, a symbol
// table, and the list of initialising data writes. Two clients share it:
//
//   - the deterministic toolchain (LayoutSequential), which places
//     functions and data objects back to back the way a conventional
//     linker does — this is the paper's non-randomised "COTS" build; and
//   - the DSR runtime (internal/core), which computes a fresh random
//     placement each run from its memory pools and rebuilds the image,
//     modelling the eager relocation of §III.B.1.
package loader

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"dsr/internal/isa"
	"dsr/internal/mem"
	"dsr/internal/prog"
)

// Placement maps every symbol (function or data object) to its base.
type Placement map[string]mem.Addr

// PlacedFunc is a function with its load address and patched code.
type PlacedFunc struct {
	Fn   *prog.Function
	Base mem.Addr
	// Code is a patched copy of Fn.Code: Set/Call symbol references are
	// resolved to absolute addresses in Imm.
	Code []isa.Instr
}

// End returns the first address past the function's code.
func (pf *PlacedFunc) End() mem.Addr { return pf.Base + pf.Fn.SizeBytes() }

// InitWrite is one word written to memory at load time.
type InitWrite struct {
	Addr mem.Addr
	Val  uint32
}

// Image is an executable: placed functions (sorted by base address), a
// symbol table, and data initialisation writes. Images are rebuilt by the
// DSR runtime on every run, so construction must stay cheap: Rebuild
// re-places an existing image in place, reusing the symbol table, the
// placed-function objects and their patched code buffers, so a reboot's
// image work allocates nothing in steady state.
type Image struct {
	Name    string
	Entry   mem.Addr
	Funcs   []*PlacedFunc
	Symbols map[string]mem.Addr
	Inits   []InitWrite

	// cached lookup state: Funcs sorted by Base

	// src is the program the image was built from; Rebuild reuses the
	// buffers only while rebuilding for the same program.
	src *prog.Program
}

// BuildImage patches p against pl and assembles an Image. Every function
// and data object must be placed; function placements must be word-aligned
// and non-overlapping.
func BuildImage(p *prog.Program, pl Placement) (*Image, error) {
	img := &Image{Name: p.Name}
	if err := img.Rebuild(p, pl); err != nil {
		return nil, err
	}
	return img, nil
}

// Rebuild re-places and re-patches the image for pl, producing a result
// byte-identical to BuildImage(p, pl). When the image was previously
// built from the same program, every buffer is reused: only Set/Call
// immediates carry placement, so re-patching exactly those instructions
// over the previous run's code is equivalent to a fresh copy-and-patch.
// On error the image state is undefined; callers abort the run.
func (img *Image) Rebuild(p *prog.Program, pl Placement) error {
	if img.src != p {
		img.src = p
		img.Name = p.Name
		img.Symbols = make(map[string]mem.Addr, len(p.Functions)+len(p.Data))
		img.Funcs = make([]*PlacedFunc, 0, len(p.Functions))
		img.Inits = nil
		for _, f := range p.Functions {
			pf := &PlacedFunc{Fn: f}
			pf.Code = append([]isa.Instr(nil), f.Code...)
			img.Funcs = append(img.Funcs, pf)
		}
	}
	for _, f := range p.Functions {
		base, ok := pl[f.Name]
		if !ok {
			return fmt.Errorf("loader: function %q not placed", f.Name)
		}
		if !mem.IsAligned(base, isa.InstrBytes) {
			return fmt.Errorf("loader: function %q at %#x not word-aligned", f.Name, base)
		}
		img.Symbols[f.Name] = base
	}
	img.Inits = img.Inits[:0]
	for _, d := range p.Data {
		base, ok := pl[d.Name]
		if !ok {
			return fmt.Errorf("loader: data %q not placed", d.Name)
		}
		align := d.Align
		if align == 0 {
			align = mem.WordSize
		}
		if !mem.IsAligned(base, align) {
			return fmt.Errorf("loader: data %q at %#x not %d-aligned", d.Name, base, align)
		}
		img.Symbols[d.Name] = base
		for i, w := range d.Init {
			img.Inits = append(img.Inits, InitWrite{Addr: base + mem.Addr(i)*mem.WordSize, Val: w})
		}
	}

	for _, pf := range img.Funcs {
		f := pf.Fn
		pf.Base = img.Symbols[f.Name]
		for i := range f.Code {
			sym := f.Code[i].Sym
			if sym == "" {
				continue
			}
			addr, ok := img.Symbols[sym]
			if !ok {
				return fmt.Errorf("loader: %q references unplaced symbol %q", f.Name, sym)
			}
			switch f.Code[i].Op {
			case isa.Set, isa.Call:
				pf.Code[i].Imm = int32(addr)
			default:
				return fmt.Errorf("loader: %q: op %s cannot carry symbol %q", f.Name, f.Code[i].Op, sym)
			}
		}
	}
	slices.SortFunc(img.Funcs, func(a, b *PlacedFunc) int { return cmp.Compare(a.Base, b.Base) })
	for i := 1; i < len(img.Funcs); i++ {
		if img.Funcs[i].Base < img.Funcs[i-1].End() {
			return fmt.Errorf("loader: functions %q and %q overlap",
				img.Funcs[i-1].Fn.Name, img.Funcs[i].Fn.Name)
		}
	}
	entry, ok := img.Symbols[p.Entry]
	if !ok {
		return fmt.Errorf("loader: entry %q not placed", p.Entry)
	}
	img.Entry = entry
	return nil
}

// FuncAt returns the placed function containing pc, or nil. Uses binary
// search over the sorted function list; the CPU additionally caches the
// current function so sequential fetch avoids the search.
func (img *Image) FuncAt(pc mem.Addr) *PlacedFunc {
	i := sort.Search(len(img.Funcs), func(i int) bool { return img.Funcs[i].End() > pc })
	if i < len(img.Funcs) && pc >= img.Funcs[i].Base {
		return img.Funcs[i]
	}
	return nil
}

// InstrAt returns the instruction at pc, or nil if pc is not inside any
// function or is misaligned.
func (img *Image) InstrAt(pc mem.Addr) *isa.Instr {
	pf := img.FuncAt(pc)
	if pf == nil || (pc-pf.Base)%isa.InstrBytes != 0 {
		return nil
	}
	return &pf.Code[(pc-pf.Base)/isa.InstrBytes]
}

// SequentialLayout is the output of the deterministic toolchain: a
// placement plus the objects recorded in their address spaces.
type SequentialLayout struct {
	Placement Placement
	CodeSpace *mem.Space
	DataSpace *mem.Space
}

// SequentialConfig configures the deterministic layout.
type SequentialConfig struct {
	CodeBase mem.Addr
	CodeSize mem.Addr
	DataBase mem.Addr
	DataSize mem.Addr
	// FuncAlign pads every function start (conventional linkers align to
	// 4 or 8; cache-line-aligning is the Mezzetti-Vardanega positioning
	// optimisation the paper cites as an alternative to randomisation).
	FuncAlign mem.Addr
}

// DefaultSequentialConfig places code at 0x4000_0000 and data at
// 0x5000_0000, matching the LEON3 RAM map, with 8-byte function padding.
func DefaultSequentialConfig() SequentialConfig {
	return SequentialConfig{
		CodeBase: 0x4000_0000, CodeSize: 4 << 20,
		DataBase: 0x5000_0000, DataSize: 4 << 20,
		FuncAlign: 8,
	}
}

// LayoutSequential places functions in definition order back to back,
// then data objects likewise: the fixed layout a conventional build
// produces, whose cache behaviour is frozen at link time (§II: the cache
// offset of software units changes only across integrations).
func LayoutSequential(p *prog.Program, cfg SequentialConfig) (*SequentialLayout, error) {
	if cfg.FuncAlign == 0 {
		cfg.FuncAlign = isa.InstrBytes
	}
	l := &SequentialLayout{
		Placement: Placement{},
		CodeSpace: mem.NewSpace(cfg.CodeBase, cfg.CodeSize),
		DataSpace: mem.NewSpace(cfg.DataBase, cfg.DataSize),
	}
	for _, f := range p.Functions {
		obj := &mem.Object{Name: f.Name, Kind: mem.KindCode, Size: f.SizeBytes(), Align: cfg.FuncAlign}
		if err := l.CodeSpace.Place(obj); err != nil {
			return nil, err
		}
		l.Placement[f.Name] = obj.Base
	}
	for _, d := range p.Data {
		align := d.Align
		if align == 0 {
			align = mem.DoubleWord
		}
		obj := &mem.Object{Name: d.Name, Kind: mem.KindData, Size: d.Size, Align: align}
		if err := l.DataSpace.Place(obj); err != nil {
			return nil, err
		}
		l.Placement[d.Name] = obj.Base
	}
	return l, nil
}

// Load is the convenience path used throughout the tests and examples:
// validate, lay out sequentially with cfg, and build the image.
func Load(p *prog.Program, cfg SequentialConfig) (*Image, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	l, err := LayoutSequential(p, cfg)
	if err != nil {
		return nil, err
	}
	return BuildImage(p, l.Placement)
}
