package workload

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fmsa/internal/interp"
	"fmsa/internal/ir"
)

func baseSpec(name string, seed int64) FuncSpec {
	return FuncSpec{
		Name:        name,
		Seed:        seed,
		Scalar:      ir.F32(),
		NumParams:   3,
		Regions:     4,
		OpsPerBlock: 6,
	}
}

func TestGenerateProducesValidIR(t *testing.T) {
	m := ir.NewModule("g")
	for seed := int64(0); seed < 30; seed++ {
		Generate(m, baseSpec("", seed*31+1))
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("generated module invalid: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	m1 := ir.NewModule("a")
	m2 := ir.NewModule("b")
	f1 := Generate(m1, baseSpec("f", 42))
	f2 := Generate(m2, baseSpec("f", 42))
	if ir.FormatFunc(f1) != ir.FormatFunc(f2) {
		t.Error("same spec must generate identical functions")
	}
}

func TestIdenticalClonesAreIdentical(t *testing.T) {
	m := ir.NewModule("c")
	s := baseSpec("a", 7)
	f1 := Generate(m, s)
	s.Name = "b"
	f2 := Generate(m, s)
	body1 := ir.FormatFunc(f1)[len("define i64 @a"):]
	body2 := ir.FormatFunc(f2)[len("define i64 @b"):]
	if body1 != body2 {
		t.Error("identical-clone bodies differ")
	}
}

func TestVariantsDiffer(t *testing.T) {
	m := ir.NewModule("v")
	base := baseSpec("base", 9)
	orig := Generate(m, base)

	typ := base
	typ.Name = "typ"
	typ.Scalar = ir.F64()
	tv := Generate(m, typ)

	cfg := base
	cfg.Name = "cfg"
	cfg.Guard = true
	cv := Generate(m, cfg)

	if ir.FormatFunc(orig)[13:] == ir.FormatFunc(tv)[12:] {
		t.Error("type variant should differ from original")
	}
	if len(cv.Blocks) <= len(orig.Blocks) {
		t.Error("guard variant should add blocks")
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("variants invalid: %v", err)
	}
}

func TestDropVariantSmaller(t *testing.T) {
	m := ir.NewModule("d")
	base := baseSpec("full", 11)
	base.OpsPerBlock = 10
	full := Generate(m, base)
	drop := base
	drop.Name = "dropped"
	drop.DropMod = 5
	dv := Generate(m, drop)
	if dv.NumInsts() >= full.NumInsts() {
		t.Errorf("drop variant should be smaller: %d vs %d", dv.NumInsts(), full.NumInsts())
	}
}

func TestGeneratedFunctionsExecutable(t *testing.T) {
	m := ir.NewModule("e")
	var funcs []*ir.Func
	for seed := int64(1); seed <= 10; seed++ {
		s := baseSpec("", seed*17)
		s.VoidRet = seed%5 == 0
		funcs = append(funcs, Generate(m, s))
	}
	buildDriver(m, funcs, 1)
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	mc := interp.NewMachine(m)
	registerWorkloadIntrinsics(mc)
	if _, err := mc.Run("main"); err != nil {
		t.Fatalf("driver run: %v", err)
	}
}

func registerWorkloadIntrinsics(mc *interp.Machine) {
	mc.Register("ext_i64", func(_ *interp.Machine, args []interp.Word) (interp.Word, error) {
		return args[0]*2 + 1, nil
	})
	mc.Register("ext_f64", func(_ *interp.Machine, args []interp.Word) (interp.Word, error) {
		return interp.F64(interp.ToF64(args[0]) * 1.5), nil
	})
}

func TestBuildProfileDeterministic(t *testing.T) {
	p := Profile{
		Name: "demo", NumFuncs: 25, AvgSize: 30, MaxSize: 120,
		Identical: 0.1, TypeVar: 0.1, CFGVar: 0.1, Partial: 0.1,
		InternalFrac: 0.5, Seed: 33,
	}
	m1 := Build(p)
	m2 := Build(p)
	if ir.FormatModule(m1) != ir.FormatModule(m2) {
		t.Error("Build must be deterministic")
	}
	if err := ir.VerifyModule(m1); err != nil {
		t.Fatalf("built module invalid: %v", err)
	}
	if len(m1.Definitions()) != 26 { // 25 functions + driver
		t.Errorf("definitions = %d, want 26", len(m1.Definitions()))
	}
}

func TestBuildRunnable(t *testing.T) {
	p := Profile{
		Name: "run", NumFuncs: 15, AvgSize: 25, MaxSize: 80,
		Identical: 0.2, TypeVar: 0.1, CFGVar: 0.1, Partial: 0.1,
		InternalFrac: 0.6, Seed: 77,
	}
	m := Build(p)
	mc := interp.NewMachine(m)
	registerWorkloadIntrinsics(mc)
	v1, err := mc.Run("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	mc2 := interp.NewMachine(Build(p))
	registerWorkloadIntrinsics(mc2)
	v2, err := mc2.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Errorf("driver output not deterministic: %d vs %d", v1, v2)
	}
}

func TestSuiteProfilesComplete(t *testing.T) {
	spec := SPECLike()
	if len(spec) != 19 {
		t.Errorf("SPEC-like suite has %d profiles, want 19 (Table I)", len(spec))
	}
	mi := MiBenchLike()
	if len(mi) != 23 {
		t.Errorf("MiBench-like suite has %d profiles, want 23 (Table II)", len(mi))
	}
	names := map[string]bool{}
	for _, p := range append(spec, mi...) {
		if names[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		names[p.Name] = true
		if p.NumFuncs < 2 || p.AvgSize < 1 {
			t.Errorf("%s: degenerate profile %+v", p.Name, p)
		}
	}
	// lbm must have no mergeable similarity (Table I row with 0 merges).
	for _, p := range spec {
		if p.Name == "470.lbm" && p.Identical+p.TypeVar+p.CFGVar+p.Partial > 0 {
			t.Error("470.lbm must have an empty clone mix")
		}
	}
}

func TestGenerateQuickProperty(t *testing.T) {
	// Property: any seed/shape combination yields verifiable IR.
	f := func(seed int64, regions, ops uint8, scalarPick uint8, guard, reorder bool) bool {
		scalars := []*ir.Type{ir.I32(), ir.I64(), ir.F32(), ir.F64()}
		m := ir.NewModule("q")
		Generate(m, FuncSpec{
			Name:          "f",
			Seed:          seed,
			Scalar:        scalars[int(scalarPick)%4],
			NumParams:     int(ops%4) + 1,
			Regions:       int(regions%6) + 1,
			OpsPerBlock:   int(ops%8) + 2,
			Guard:         guard,
			ReorderParams: reorder,
			DropMod:       int(seed % 7),
		})
		return ir.VerifyModule(m) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(47))}); err != nil {
		t.Error(err)
	}
}
