package prog

import (
	"strings"
	"testing"

	"dsr/internal/isa"
)

// minimalProgram builds a valid two-function program for reuse in tests.
func minimalProgram(t *testing.T) *Program {
	t.Helper()
	leaf := NewLeaf("double").
		Add(isa.O0, isa.O0, isa.O0).
		RetLeaf().
		MustBuild()
	main := NewFunc("main", MinFrame).
		Prologue().
		MovI(isa.O0, 21).
		Call("double").
		Halt().
		MustBuild()
	p := &Program{Name: "t", Entry: "main"}
	if err := p.AddFunction(main); err != nil {
		t.Fatal(err)
	}
	if err := p.AddFunction(leaf); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMinimalProgramValid(t *testing.T) {
	minimalProgram(t)
}

func TestBuilderLabelResolution(t *testing.T) {
	f := NewLeaf("count").
		MovI(isa.O1, 0).
		Label("loop").
		AddI(isa.O1, isa.O1, 1).
		CmpI(isa.O1, 10).
		Bl("loop").
		RetLeaf().
		MustBuild()
	// The Bl is instruction 3, the label is instruction 1 → disp -2.
	if f.Code[3].Disp != -2 {
		t.Errorf("backward branch disp=%d, want -2", f.Code[3].Disp)
	}
}

func TestBuilderForwardLabel(t *testing.T) {
	f := NewLeaf("skip").
		CmpI(isa.O0, 0).
		Be("out").
		AddI(isa.O0, isa.O0, 1).
		Label("out").
		RetLeaf().
		MustBuild()
	if f.Code[1].Disp != 2 {
		t.Errorf("forward branch disp=%d, want 2", f.Code[1].Disp)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	_, err := NewLeaf("bad").Ba("nowhere").RetLeaf().Build()
	if err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Errorf("undefined label error=%v", err)
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	_, err := NewLeaf("bad").Label("x").Nop().Label("x").RetLeaf().Build()
	if err == nil || !strings.Contains(err.Error(), "duplicate label") {
		t.Errorf("duplicate label error=%v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	mkProg := func(fns ...*Function) *Program {
		p := &Program{Name: "t", Entry: fns[0].Name}
		for _, f := range fns {
			p.Functions = append(p.Functions, f)
		}
		return p
	}
	valid := func() *Function {
		return NewFunc("main", MinFrame).Prologue().Halt().MustBuild()
	}

	t.Run("missing entry", func(t *testing.T) {
		p := &Program{Name: "t", Functions: []*Function{valid()}}
		if p.Validate() == nil {
			t.Error("empty entry accepted")
		}
	})
	t.Run("undefined entry", func(t *testing.T) {
		p := &Program{Name: "t", Entry: "ghost", Functions: []*Function{valid()}}
		if p.Validate() == nil {
			t.Error("undefined entry accepted")
		}
	})
	t.Run("undefined call target", func(t *testing.T) {
		f := NewFunc("main", MinFrame).Prologue().Call("ghost").Halt().MustBuild()
		if mkProg(f).Validate() == nil {
			t.Error("undefined call target accepted")
		}
	})
	t.Run("undefined set symbol", func(t *testing.T) {
		f := NewFunc("main", MinFrame).Prologue().Set(isa.O0, "ghost").Halt().MustBuild()
		if mkProg(f).Validate() == nil {
			t.Error("undefined set symbol accepted")
		}
	})
	t.Run("small frame", func(t *testing.T) {
		f := NewFunc("main", 64).Prologue().Halt().MustBuild()
		if mkProg(f).Validate() == nil {
			t.Error("frame below MinFrame accepted")
		}
	})
	t.Run("misaligned frame", func(t *testing.T) {
		f := NewFunc("main", MinFrame+4).Prologue().Halt().MustBuild()
		if mkProg(f).Validate() == nil {
			t.Error("non-8-aligned frame accepted")
		}
	})
	t.Run("leaf with frame", func(t *testing.T) {
		f := &Function{Name: "main", Leaf: true, FrameSize: 96,
			Code: []isa.Instr{{Op: isa.RetL}}}
		if mkProg(f).Validate() == nil {
			t.Error("leaf with frame accepted")
		}
	})
	t.Run("leaf that calls", func(t *testing.T) {
		callee := valid()
		f := &Function{Name: "leafy", Leaf: true,
			Code: []isa.Instr{{Op: isa.Call, Sym: "main"}, {Op: isa.RetL}}}
		p := &Program{Name: "t", Entry: "main", Functions: []*Function{callee, f}}
		if p.Validate() == nil {
			t.Error("calling leaf accepted")
		}
	})
	t.Run("leaf that saves", func(t *testing.T) {
		f := &Function{Name: "main", Leaf: true,
			Code: []isa.Instr{{Op: isa.Save, Imm: 96}, {Op: isa.RetL}}}
		if mkProg(f).Validate() == nil {
			t.Error("saving leaf accepted")
		}
	})
	t.Run("non-leaf retl", func(t *testing.T) {
		f := &Function{Name: "main", FrameSize: MinFrame,
			Code: []isa.Instr{{Op: isa.Save, Imm: MinFrame}, {Op: isa.RetL}}}
		if mkProg(f).Validate() == nil {
			t.Error("retl in non-leaf accepted")
		}
	})
	t.Run("branch out of range", func(t *testing.T) {
		f := &Function{Name: "main", FrameSize: MinFrame,
			Code: []isa.Instr{{Op: isa.Ba, Disp: 10}, {Op: isa.Halt}}}
		if mkProg(f).Validate() == nil {
			t.Error("out-of-range branch accepted")
		}
	})
	t.Run("empty function", func(t *testing.T) {
		f := &Function{Name: "main", FrameSize: MinFrame}
		if mkProg(f).Validate() == nil {
			t.Error("empty function accepted")
		}
	})
	t.Run("zero-size data", func(t *testing.T) {
		p := mkProg(valid())
		p.Data = append(p.Data, &DataObject{Name: "d", Size: 0})
		if p.Validate() == nil {
			t.Error("zero-size data accepted")
		}
	})
	t.Run("oversized initialiser", func(t *testing.T) {
		p := mkProg(valid())
		p.Data = append(p.Data, &DataObject{Name: "d", Size: 4, Init: []uint32{1, 2}})
		if p.Validate() == nil {
			t.Error("oversized initialiser accepted")
		}
	})
	t.Run("duplicate symbol across kinds", func(t *testing.T) {
		p := mkProg(valid())
		p.Data = append(p.Data, &DataObject{Name: "main", Size: 4})
		if p.Validate() == nil {
			t.Error("function/data name collision accepted")
		}
	})
}

func TestAddDuplicates(t *testing.T) {
	p := &Program{Name: "t"}
	f := NewLeaf("f").RetLeaf().MustBuild()
	if err := p.AddFunction(f); err != nil {
		t.Fatal(err)
	}
	if err := p.AddFunction(NewLeaf("f").RetLeaf().MustBuild()); err == nil {
		t.Error("duplicate function accepted")
	}
	if err := p.AddData(&DataObject{Name: "d", Size: 8}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddData(&DataObject{Name: "d", Size: 8}); err == nil {
		t.Error("duplicate data accepted")
	}
	if err := p.AddData(&DataObject{Name: "f", Size: 8}); err == nil {
		t.Error("data shadowing function accepted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := minimalProgram(t)
	p.Data = append(p.Data, &DataObject{Name: "tbl", Size: 16, Init: []uint32{1, 2}})
	q := p.Clone()
	q.Functions[0].Code[0].Op = isa.Nop
	q.Data[0].Init[0] = 99
	if p.Functions[0].Code[0].Op == isa.Nop {
		t.Error("Clone shares code slices")
	}
	if p.Data[0].Init[0] == 99 {
		t.Error("Clone shares init slices")
	}
}

func TestLookups(t *testing.T) {
	p := minimalProgram(t)
	if p.Function("main") == nil || p.Function("ghost") != nil {
		t.Error("Function lookup wrong")
	}
	p.Data = append(p.Data, &DataObject{Name: "tbl", Size: 8})
	if p.DataObject("tbl") == nil || p.DataObject("ghost") != nil {
		t.Error("DataObject lookup wrong")
	}
}
