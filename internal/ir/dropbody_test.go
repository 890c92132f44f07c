package ir

import (
	"reflect"
	"testing"
)

const dropBodyModule = `
@G = global i64 zeroinitializer

declare i64 @ext(i64)

define i64 @g(i64 %x) {
entry:
  %a = call i64 @ext(i64 %x)
  store i64 %a, i64* @G
  ret i64 %a
}

define i64 @h(i64 %x) {
entry:
  %a = call i64 @g(i64 %x)
  %b = call i64 @ext(i64 %a)
  ret i64 %b
}
`

// buildDetachedBody attaches to f (a detached function) a body that uses
// every kind of value: shared callees and a global, including one address
// escape, plus its own parameters, instructions and blocks across a loop.
func buildDetachedBody(f *Func, g, ext *Func, glob *Global) {
	entry := f.NewBlockIn("entry")
	loop := f.NewBlockIn("loop")
	exit := f.NewBlockIn("exit")
	bd := NewBuilder(entry)
	a := bd.Call(g, f.Params[0])
	bd.Store(a, glob)
	bd.Br(loop)
	bd.SetBlock(loop)
	l := bd.Load(glob)
	s := bd.Add(l, a)
	c := bd.Call(ext, s)
	bd.Store(c, glob)
	p := bd.Cast(OpPtrToInt, g, I64())
	bd.Call(f, p) // self-recursion: f is a shared value too
	cmp := bd.ICmp(PredSLT, c, f.Params[0])
	bd.CondBr(cmp, loop, exit)
	bd.SetBlock(exit)
	bd.Ret(bd.Add(c, s))
}

type useSnapshot map[string][]Use

func snapshotShared(m *Module) useSnapshot {
	snap := useSnapshot{}
	for _, f := range m.Funcs {
		snap["@"+f.Name()] = f.Uses()
	}
	for _, g := range m.Globals {
		snap["@"+g.Name()] = g.Uses()
	}
	return snap
}

// TestDropBodyRestoresSharedUseLists pins DropBody's contract for discarded
// bodies: every function and global use list is exactly what it was before
// the body was built — order included, even when a later body's uses sit
// behind the dropped ones — and every value local to the body ends with
// zero uses.
func TestDropBodyRestoresSharedUseLists(t *testing.T) {
	m := MustParseModule("drop", dropBodyModule)
	g, h, ext := m.FuncByName("g"), m.FuncByName("h"), m.FuncByName("ext")
	glob := m.GlobalByName("G")
	before := snapshotShared(m)

	sig := FuncOf(I64(), I64())
	first := NewFunc("first", sig)
	buildDetachedBody(first, g, ext, glob)
	second := NewFunc("second", sig)
	buildDetachedBody(second, h, ext, glob)
	afterSecond := NewFunc("probe", sig)
	buildDetachedBody(afterSecond, g, ext, glob)
	afterSecond.DropBody()

	var locals []interface {
		Ident() string
		NumUses() int
	}
	for _, p := range first.Params {
		locals = append(locals, p)
	}
	for _, b := range first.Blocks {
		locals = append(locals, b)
		for _, in := range b.Insts {
			locals = append(locals, in)
		}
	}
	withBoth := snapshotShared(m)
	first.DropBody()
	for _, v := range locals {
		if n := v.NumUses(); n != 0 {
			t.Errorf("local %s keeps %d uses after DropBody", v.Ident(), n)
		}
	}
	if n := first.NumUses(); n != 0 {
		t.Errorf("dropped function keeps %d self-uses", n)
	}

	// Dropping the first body must remove exactly its uses from the middle
	// of the shared lists, leaving the second body's uses in order.
	second.DropBody()
	if got := snapshotShared(m); !reflect.DeepEqual(got, before) {
		for name, uses := range before {
			if !reflect.DeepEqual(got[name], uses) {
				t.Errorf("%s: uses %v after dropping both bodies, want %v", name, got[name], uses)
			}
		}
	}
	for name, uses := range withBoth {
		if len(uses) < len(before[name]) {
			t.Errorf("%s: building bodies removed uses", name)
		}
	}
	if err := VerifyModule(m); err != nil {
		t.Fatal(err)
	}
}

// TestDropBodyUnlinksForeignValueUses covers a body operand that belongs to
// another function (not valid IR, but DropBody must still unlink it rather
// than leave a dangling use behind).
func TestDropBodyUnlinksForeignValueUses(t *testing.T) {
	m := MustParseModule("drop", dropBodyModule)
	g := m.FuncByName("g")
	foreign := g.Params[0]
	keep := foreign.NumUses()
	f := NewFunc("f", FuncOf(I64(), I64()))
	bd := NewBuilder(f.NewBlockIn("entry"))
	bd.Ret(bd.Add(foreign, f.Params[0]))
	if foreign.NumUses() != keep+1 {
		t.Fatalf("foreign param uses = %d, want %d", foreign.NumUses(), keep+1)
	}
	f.DropBody()
	if foreign.NumUses() != keep {
		t.Fatalf("foreign param uses = %d after DropBody, want %d", foreign.NumUses(), keep)
	}
}
