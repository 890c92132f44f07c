package core

import (
	"testing"

	"fmsa/internal/ir"
	"fmsa/internal/passes"
	"fmsa/internal/tti"
	"fmsa/internal/workload"
)

// boundTargets are the cost models the admissibility property is checked
// against; the bound takes per-instruction floors from the target, so both
// must hold independently.
var boundTargets = []tti.Target{tti.X86{}, tti.Thumb{}}

// auditAllPairs merges every function pair of m (up to cap functions) with
// BoundAudit enabled and asserts the admissibility property — the bound must
// never be below the exact cost-model profit of the materialized merge.
// Returns how many pairs were audited and how many usable-bound-less merges
// (bail pairs) it saw.
func auditAllPairs(t *testing.T, m *ir.Module, target tti.Target, cap int) (audited, bailed int) {
	t.Helper()
	passes.DemotePhisModule(m)
	var funcs []*ir.Func
	for _, f := range m.Funcs {
		if !f.IsDecl() && !f.Sig().Variadic {
			funcs = append(funcs, f)
		}
	}
	if cap > 0 && len(funcs) > cap {
		funcs = funcs[:cap]
	}
	costs := tti.NewCostMemo()
	for i := 0; i < len(funcs); i++ {
		for j := i + 1; j < len(funcs); j++ {
			f1, f2 := funcs[i], funcs[j]
			called := false
			opts := DefaultOptions()
			opts.Prune = &PruneSpec{
				Target: target,
				S1:     SnapshotCallerStats(f1),
				S2:     SnapshotCallerStats(f2),
				Costs:  costs,
			}
			opts.BoundAudit = func(a, b *ir.Func, bound, exact int) {
				called = true
				if exact > bound {
					t.Errorf("inadmissible bound for %s + %s on %s: bound %d < exact profit %d",
						a.Name(), b.Name(), target.Name(), bound, exact)
				}
			}
			res, err := Merge(f1, f2, opts)
			if err != nil {
				continue
			}
			if called {
				audited++
			} else {
				bailed++
			}
			res.Discard()
		}
	}
	return audited, bailed
}

// TestBoundAdmissibilityWorkload sweeps every pair of two workload corpora
// under both cost-model targets: the profitability upper bound must dominate
// the exact profit on every pair the merger can materialize. This is the
// property that makes pre-codegen pruning decision-invisible.
func TestBoundAdmissibilityWorkload(t *testing.T) {
	profiles := workload.UnscaledSmall()
	for _, spec := range []struct {
		name string
		cap  int
	}{
		{"429.mcf", 0},   // 24 functions, full pairwise sweep
		{"433.milc", 40}, // capped: keeps the quadratic sweep fast
	} {
		var prof workload.Profile
		for _, p := range profiles {
			if p.Name == spec.name {
				prof = p
			}
		}
		if prof.Name == "" {
			t.Fatalf("profile %s missing from UnscaledSmall", spec.name)
		}
		for _, target := range boundTargets {
			t.Run(spec.name+"/"+target.Name(), func(t *testing.T) {
				m := workload.Build(prof)
				audited, _ := auditAllPairs(t, m, target, spec.cap)
				if audited == 0 {
					t.Fatal("no pairs audited; the sweep is vacuous")
				}
			})
		}
	}
}

// adversarialIR packs the shapes that historically endanger an admissible
// bound: external linkage (thunk term), an address-taken function (thunk
// despite internal linkage), exception handling (landingpad hoisting and
// gap-demoted pads), return-type disagreement (conversion thunks), and
// heavy branch scaffolding that SimplifyCFG later deletes.
const adversarialIR = `
declare void @throw()
declare void @sink(i64)

define i32 @ext1(i32 %x) {
entry:
  %c = icmp sgt i32 %x, 0
  br i1 %c, label %a, label %b
a:
  %r = add i32 %x, 7
  ret i32 %r
b:
  %s = mul i32 %x, 3
  ret i32 %s
}

define i32 @ext2(i32 %x) {
entry:
  %c = icmp sgt i32 %x, 1
  br i1 %c, label %a, label %b
a:
  %r = add i32 %x, 9
  ret i32 %r
b:
  %s = mul i32 %x, 5
  ret i32 %s
}

define internal f64 @retf(f64 %x) {
entry:
  %r = fadd f64 %x, 2.0
  ret f64 %r
}

define internal i32 @reti(i32 %x) {
entry:
  %r = add i32 %x, 2
  ret i32 %r
}

define internal void @taken(i64 %x) {
entry:
  call void @sink(i64 %x)
  ret void
}

define internal void @taken2(i64 %x) {
entry:
  %y = add i64 %x, 4
  call void @sink(i64 %y)
  ret void
}

define internal i32 @eh1(i32 %x) {
entry:
  %r = invoke i32 @ext1(i32 %x) to label %ok unwind label %lpad
ok:
  ret i32 %r
lpad:
  %lp = landingpad cleanup
  ret i32 -1
}

define internal i32 @eh2(i32 %x) {
entry:
  %r = invoke i32 @ext2(i32 %x) to label %ok unwind label %lpad
ok:
  %r2 = add i32 %r, 1
  ret i32 %r2
lpad:
  %lp = landingpad cleanup
  ret i32 -2
}

define void @use(i64 %x) {
entry:
  call void @taken(i64 %x)
  %p = ptrtoint void (i64)* @taken to i64
  call void @sink(i64 %p)
  ret void
}
` + demotionIR

// demotionIR adds the shapes the demotion and branch floors reason about:
// gap-defined values read by matched columns (demoted: a store plus a load
// per read), including across a reconvergence and by an invoke whose store
// lands on a split normal edge; a reading block that exists only in
// unreachable code of the other function; a landingpad pair demoted to
// gaps; and func_id diamonds whose sides are empty or end in a terminator,
// where no reconvergence branch provably survives cleanup.
const demotionIR = `
declare i64 @wide(i64)

define internal i32 @cross1(i32 %x) {
entry:
  %a = add i32 %x, 1
  %g = mul i32 %a, 9
  %b = sub i32 %a, 2
  %c = xor i32 %b, 5
  %h = add i32 %g, %c
  %z = or i32 %g, %h
  ret i32 %z
}

define internal i32 @cross2(i32 %x) {
entry:
  %a = add i32 %x, 1
  %b = sub i32 %a, 2
  %c = xor i32 %b, 5
  %k = shl i32 %c, 1
  %h = add i32 %k, %c
  ret i32 %h
}

define internal i32 @unr1(i32 %x) {
entry:
  %a = add i32 %x, 3
  %g = mul i32 %a, 5
  %r = add i32 %g, %a
  ret i32 %r
}

define internal i32 @unr2(i32 %x) {
entry:
  %a = add i32 %x, 3
  %r = sdiv i32 %a, 7
  ret i32 %r
dead:
  %g = mul i32 %a, 5
  %d = add i32 %g, %a
  ret i32 %d
}

define internal i32 @inv1(i32 %x) {
entry:
  %a = add i32 %x, 1
  %r = invoke i32 @ext1(i32 %a) to label %ok unwind label %lpad
ok:
  %s = add i32 %r, %a
  ret i32 %s
lpad:
  %lp = landingpad cleanup
  ret i32 -1
}

define internal i32 @inv2(i32 %x) {
entry:
  %a = add i32 %x, 1
  %w = sext i32 %a to i64
  %r = invoke i64 @wide(i64 %w) to label %ok unwind label %lpad
ok:
  %n = trunc i64 %r to i32
  %s = add i32 %n, %a
  ret i32 %s
lpad:
  %lp = landingpad cleanup
  ret i32 -1
}

define internal i64 @pad1(i64 %x) {
entry:
  invoke void @throw() to label %ok unwind label %lpad
ok:
  %r = add i64 %x, 1
  ret i64 %r
lpad:
  %lp = landingpad cleanup
  call void @sink(i64 %x)
  call void @sink(i64 %x)
  call void @sink(i64 %x)
  ret i64 -1
}

define internal i64 @pad2(i64 %x) {
entry:
  invoke void @throw() to label %ok unwind label %lpad
ok:
  %r = add i64 %x, 1
  ret i64 %r
lpad:
  %lp = landingpad cleanup
  %y = mul i64 %x, 3
  ret i64 %y
}

define internal i32 @dia1(i32 %x) {
entry:
  %a = add i32 %x, 1
  %b = mul i32 %a, 3
  %c = sub i32 %b, 4
  ret i32 %c
}

define internal i32 @dia2(i32 %x) {
entry:
  %a = add i32 %x, 1
  %e = ashr i32 %a, 2
  %b = mul i32 %a, 3
  %c = sub i32 %b, 4
  %d = icmp eq i32 %c, 0
  br i1 %d, label %t, label %f
t:
  ret i32 %e
f:
  ret i32 %c
}
`

// TestBoundAdmissibilityAdversarial runs the pairwise audit over IR chosen
// to stress every term of the bound: thunk costs, caller growth, EH
// scaffolding and return-type conversions, under both targets.
func TestBoundAdmissibilityAdversarial(t *testing.T) {
	for _, target := range boundTargets {
		t.Run(target.Name(), func(t *testing.T) {
			m := ir.MustParseModule("adversarial", adversarialIR)
			if err := ir.VerifyModule(m); err != nil {
				t.Fatal(err)
			}
			audited, _ := auditAllPairs(t, m, target, 0)
			if audited == 0 {
				t.Fatal("no pairs audited; the sweep is vacuous")
			}
		})
	}
}

// constBranchIR holds a pair whose bodies branch on integer constants —
// SimplifyCFG folds such branches and can cascade-delete arbitrary cloned
// blocks, so no sound per-column floor exists and bounding must bail
// (no prune, no audit report) rather than guess.
const constBranchIR = `
define internal i32 @cb1(i32 %x) {
entry:
  br i1 1, label %a, label %b
a:
  %r = add i32 %x, 1
  ret i32 %r
b:
  %s = add i32 %x, 2
  ret i32 %s
}

define internal i32 @cb2(i32 %x) {
entry:
  br i1 1, label %a, label %b
a:
  %r = mul i32 %x, 3
  ret i32 %r
b:
  %s = mul i32 %x, 4
  ret i32 %s
}
`

// TestBoundBailsOnConstantBranches pins the bail path: a constant-condition
// branch makes the pair unboundable, so with BoundAudit set the merge still
// materializes but the hook must not fire, and with pruning live the pair
// must never be skipped (CodegenSkips stays zero).
func TestBoundBailsOnConstantBranches(t *testing.T) {
	m := ir.MustParseModule("constbr", constBranchIR)
	if err := ir.VerifyModule(m); err != nil {
		t.Fatal(err)
	}
	audited, bailed := auditAllPairs(t, m, tti.X86{}, 0)
	if audited != 0 || bailed != 1 {
		t.Fatalf("constant-branch pair: audited %d, bailed %d; want 0 audited, 1 bailed", audited, bailed)
	}

	// Pruning live (no audit hook): the bail must translate into "never
	// pruned", not "pruned with a made-up bound".
	m2 := ir.MustParseModule("constbr2", constBranchIR)
	f1, f2 := m2.FuncByName("cb1"), m2.FuncByName("cb2")
	tm := &Timings{}
	opts := DefaultOptions()
	opts.Timings = tm
	opts.Prune = &PruneSpec{
		Target: tti.X86{},
		S1:     SnapshotCallerStats(f1),
		S2:     SnapshotCallerStats(f2),
		Costs:  tti.NewCostMemo(),
		// Even an absurd threshold must not prune an unboundable pair.
		MinProfit: 1 << 20,
	}
	res, err := Merge(f1, f2, opts)
	if err != nil {
		t.Fatalf("unboundable pair must not be pruned: %v", err)
	}
	res.Discard()
	if tm.CodegenSkips != 0 {
		t.Fatalf("CodegenSkips = %d on a bail pair, want 0", tm.CodegenSkips)
	}
}

// TestPruneSkipsHopelessPair pins the skip path end to end: with an
// unreachable MinProfit every boundable pair must return ErrHopeless and
// count a CodegenSkip, without materializing a merged function.
func TestPruneSkipsHopelessPair(t *testing.T) {
	m := ir.MustParseModule("adversarial", adversarialIR)
	f1, f2 := m.FuncByName("ext1"), m.FuncByName("ext2")
	before := len(m.Funcs)
	tm := &Timings{}
	opts := DefaultOptions()
	opts.Timings = tm
	opts.Prune = &PruneSpec{
		Target:    tti.X86{},
		S1:        SnapshotCallerStats(f1),
		S2:        SnapshotCallerStats(f2),
		Costs:     tti.NewCostMemo(),
		MinProfit: 1 << 20,
	}
	res, err := Merge(f1, f2, opts)
	if err != ErrHopeless {
		if err == nil {
			res.Discard()
		}
		t.Fatalf("err = %v, want ErrHopeless", err)
	}
	if tm.BoundEvals != 1 || tm.CodegenSkips != 1 {
		t.Fatalf("counters = %d evals / %d skips, want 1/1", tm.BoundEvals, tm.CodegenSkips)
	}
	if len(m.Funcs) != before {
		t.Fatalf("pruned merge mutated the module: %d funcs, want %d", len(m.Funcs), before)
	}
}
