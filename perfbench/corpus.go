package main

import (
	"fmt"

	"fmsa/internal/interp"
	"fmsa/internal/ir"
	"fmsa/internal/tti"
	"fmsa/internal/wire"
	"fmsa/internal/workload"
)

// seedStride spreads a draw's seed over the profiles' own seeds.
const seedStride = 1_000_003

// draw returns n independent draws of the profiles for a run seed: draw j
// shifts every profile's Seed by (seed·n + j)·seedStride and tags its name
// with "#j". Seed 0's first draw is the paper-calibrated profiles exactly.
// A workload whose metrics swing with the corpus draws several, so that
// one run's figures average over corpora instead of resting on one.
func draw(ps []workload.Profile, seed int64, n int) []workload.Profile {
	out := make([]workload.Profile, 0, len(ps)*n)
	for j := 0; j < n; j++ {
		for _, p := range ps {
			p.Seed += (seed*int64(n) + int64(j)) * seedStride
			if n > 1 {
				p.Name = fmt.Sprintf("%s#%d", p.Name, j)
			}
			out = append(out, p)
		}
	}
	return out
}

// shrink cuts profiles down to small modules for the self-test.
func shrink(ps []workload.Profile) []workload.Profile {
	out := append([]workload.Profile(nil), ps...)
	for i := range out {
		out[i].NumFuncs = min(out[i].NumFuncs, 48)
		out[i].AvgSize = min(out[i].AvgSize, 40)
		out[i].MaxSize = min(out[i].MaxSize, 120)
		out[i].TwinSize = 0
	}
	return out
}

// corpus is one generated module as the program receives it: fmir bytes.
type corpus struct {
	name string
	in   []byte
}

// genCorpora builds and fmir-encodes every profile. It runs before any
// timed region; the pipeline only ever sees the bytes.
func genCorpora(ps []workload.Profile) ([]corpus, error) {
	out := make([]corpus, len(ps))
	for i, p := range ps {
		b, err := wire.Encode(workload.Build(p))
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", p.Name, err)
		}
		out[i] = corpus{name: p.Name, in: b}
	}
	return out, nil
}

// editor applies the serve-delta edit stream to a module in place. Edit i
// bumps one integer constant in each of 1% of the definitions, a different
// slice of them each time; the seed offsets the rotation.
type editor struct {
	defs []*ir.Func
	rot  int
}

func newEditor(m *ir.Module, seed int64) *editor {
	return &editor{defs: m.Definitions(), rot: int(seed % 997)}
}

// edit applies edit i and returns how many functions changed.
func (e *editor) edit(i int) int {
	want := max(len(e.defs)/100, 1)
	edited := 0
	for off := 0; off < len(e.defs) && edited < want; off++ {
		if bumpConst(e.defs[(off+(i+e.rot)*want)%len(e.defs)]) {
			edited++
		}
	}
	return edited
}

// bumpConst adds one to the first integer constant operand of an add, sub,
// mul, and, or or xor in f. Those opcodes only change the values a program
// computes: a bumped GEP index, shift amount or compare bound could take
// the input itself out of bounds or into a longer loop.
func bumpConst(f *ir.Func) bool {
	done := false
	f.Insts(func(in *ir.Inst) {
		switch in.Op {
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor:
		default:
			return
		}
		for i := 0; i < in.NumOperands() && !done; i++ {
			if ci, ok := in.Operand(i).(*ir.ConstInt); ok {
				in.SetOperand(i, ir.NewConstInt(ci.Type(), ci.V+1))
				done = true
			}
		}
	})
	return done
}

// runMain interprets @main and returns its result and the interpreter's
// latency-weighted dynamic instruction count (the Fig. 14 runtime proxy).
// The interpreter shares no code with the merger, so it is an independent
// reference for what a module computes.
func runMain(m *ir.Module) (interp.Word, uint64, error) {
	mc := interp.NewMachine(m)
	workload.RegisterIntrinsics(mc)
	v, err := mc.Run("main")
	return v, mc.Stats().Weighted, err
}

// checkOutput compares an optimized module against the input it was
// compiled from. It returns the weighted dynamic-cost ratio (optimized
// over original) and every problem found: the output must decode, pass
// the full verifier, have the size the report claims, and compute the
// same @main result as the input.
func checkOutput(in, out []byte, sizeAfter int) (float64, []string) {
	orig, err := wire.Decode(in, wire.Options{Workers: 1})
	if err != nil {
		return 0, []string{"decode input: " + err.Error()}
	}
	opt, err := wire.Decode(out, wire.Options{Workers: 1})
	if err != nil {
		return 0, []string{"decode output: " + err.Error()}
	}
	var problems []string
	if diags := ir.VerifyModuleLevel(opt, ir.VerifyFull); len(diags) > 0 {
		problems = append(problems, fmt.Sprintf("output verifier: %d findings, first: %v", len(diags), diags[0]))
	}
	if got := tti.ModuleSize(tti.X86{}, opt); got != sizeAfter {
		problems = append(problems, fmt.Sprintf("output size %d, report says %d", got, sizeAfter))
	}
	want, wBase, err := runMain(orig)
	if err != nil {
		return 0, append(problems, "interp input: "+err.Error())
	}
	got, wOpt, err := runMain(opt)
	if err != nil {
		return 0, append(problems, "interp output: "+err.Error())
	}
	if got != want {
		problems = append(problems, fmt.Sprintf("@main returned %d, input returns %d", got, want))
	}
	return float64(wOpt) / float64(max(wBase, 1)), problems
}
