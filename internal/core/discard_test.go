package core

import (
	"reflect"
	"sort"
	"testing"

	"fmsa/internal/ir"
	"fmsa/internal/passes"
	"fmsa/internal/workload"
)

// discardPairIR holds a pair whose merge needs every piece of scaffolding
// code generation can emit: %g is defined only in @d1 and read by a matched
// column (demotion, plus an operand select), the constants differ (more
// selects), the matched conditional branches diverge in their targets
// (dispatch blocks), and both bodies reference shared callees and a global
// whose use lists the merge attempt grows and must shrink back.
const discardPairIR = `
@G = global i32 zeroinitializer

declare void @sink(i32)
declare i32 @src(i32)

define internal i32 @d1(i32 %x) {
entry:
  %a = call i32 @src(i32 %x)
  %g = mul i32 %a, 7
  %c = icmp sgt i32 %g, 3
  br i1 %c, label %t, label %e
t:
  store i32 %g, i32* @G
  call void @sink(i32 %a)
  ret i32 %a
e:
  %q = add i32 %a, 11
  call void @sink(i32 %q)
  ret i32 %q
}

define internal i32 @d2(i32 %x) {
entry:
  %a = call i32 @src(i32 %x)
  %c = icmp sgt i32 %a, 5
  br i1 %c, label %e, label %e
e:
  %q = add i32 %a, 13
  call void @sink(i32 %q)
  store i32 %q, i32* @G
  ret i32 %q
}

define i32 @caller(i32 %x) {
entry:
  %r1 = call i32 @d1(i32 %x)
  %r2 = call i32 @d2(i32 %r1)
  ret i32 %r2
}
`

func sharedUseLists(m *ir.Module) map[string][]ir.Use {
	out := map[string][]ir.Use{}
	for _, f := range m.Funcs {
		out["@"+f.Name()] = f.Uses()
	}
	for _, g := range m.Globals {
		out["@"+g.Name()] = g.Uses()
	}
	return out
}

// TestMergeDiscardLeavesNoTrace merges a pair whose merged body needs
// demotion, dispatch blocks and selects, discards it, and requires the
// module text and every shared use list to be byte-identical to before —
// the property that lets speculative attempts run and be thrown away.
func TestMergeDiscardLeavesNoTrace(t *testing.T) {
	m := ir.MustParseModule("discard", discardPairIR)
	if err := ir.VerifyModule(m); err != nil {
		t.Fatal(err)
	}
	text, uses := ir.FormatModule(m), sharedUseLists(m)

	res, err := Merge(m.FuncByName("d1"), m.FuncByName("d2"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Selects == 0 || res.Stats.DispatchBlocks == 0 {
		t.Fatalf("pair does not exercise selects and dispatch blocks: %+v", res.Stats)
	}
	demoted := false
	res.Merged.Insts(func(in *ir.Inst) { demoted = demoted || in.Op == ir.OpAlloca })
	if !demoted {
		t.Fatalf("pair does not exercise demotion:\n%s", ir.FormatFunc(res.Merged))
	}
	if reflect.DeepEqual(sharedUseLists(m), uses) {
		t.Fatal("merged body added no shared uses; the check below would be vacuous")
	}
	res.Discard()

	if got := ir.FormatModule(m); got != text {
		t.Errorf("module text changed by a discarded merge:\n%s\nwant:\n%s", got, text)
	}
	if got := sharedUseLists(m); !reflect.DeepEqual(got, uses) {
		for name, want := range uses {
			if !reflect.DeepEqual(got[name], want) {
				t.Errorf("%s: uses %v after discard, want %v", name, got[name], want)
			}
		}
	}
}

// BenchmarkMergeDiscard measures one rejected speculative attempt end to
// end — linearize, align, generate, discard, with bounding off so every
// iteration materializes — on the scaffolding-heavy pair above and on the
// two largest mergeable functions of a paper-scale workload corpus, where
// teardown of a big body shows.
func BenchmarkMergeDiscard(b *testing.B) {
	small := ir.MustParseModule("discard", discardPairIR)
	large := workload.Build(workload.UnscaledSmall()[0])
	passes.DemotePhisModule(large)
	f1, f2 := largestMergeablePair(b, large)
	for _, bc := range []struct {
		name   string
		f1, f2 *ir.Func
	}{
		{"scaffolding", small.FuncByName("d1"), small.FuncByName("d2")},
		{"workload", f1, f2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			opts := DefaultOptions()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Merge(bc.f1, bc.f2, opts)
				if err != nil {
					b.Fatal(err)
				}
				res.Discard()
			}
		})
	}
}

// largestMergeablePair returns the two largest definitions of m that Merge
// accepts together.
func largestMergeablePair(b *testing.B, m *ir.Module) (*ir.Func, *ir.Func) {
	defs := m.Definitions()
	sort.SliceStable(defs, func(i, j int) bool { return defs[i].NumInsts() > defs[j].NumInsts() })
	for i := range defs {
		for j := i + 1; j < len(defs); j++ {
			if res, err := Merge(defs[i], defs[j], DefaultOptions()); err == nil {
				res.Discard()
				return defs[i], defs[j]
			}
		}
	}
	b.Fatal("no mergeable pair")
	return nil, nil
}
