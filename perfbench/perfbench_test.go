package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"fmsa/internal/ir"
	"fmsa/internal/wire"
	"fmsa/internal/workload"
)

// spec is the part of BENCHMARK.json the benchmark's output must match.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsPrintDeclaredMetrics runs every workload at self-test scale,
// untraced and traced, and checks that the result line carries exactly the
// metrics BENCHMARK.json declares, with the same units, and no failures.
func TestWorkloadsPrintDeclaredMetrics(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		run := workloads[w.Name]
		if run == nil {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			res, err := run(config{workload: w.Name, seconds: 0.01, trace: trace, state: t.TempDir(), tiny: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			var out bytes.Buffer
			if err := res.print(&out); err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var got struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w.Name, trace, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d failed:\n%s", w.Name, trace, got.Correct, got.Failed, got.Attempted, out.String())
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.Name, trace, len(got.Metrics), len(want))
			}
			for _, m := range want {
				g, ok := got.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case g.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w.Name, trace, m.Name, g.Unit, m.Unit)
				case !strings.Contains(out.String(), m.Name+" "):
					t.Errorf("%s trace=%v: metric %s not printed by name", w.Name, trace, m.Name)
				}
			}
		}
	}
}

// TestCorruptedOutputFails retargets one call in an optimized module and
// checks that the output check reports it and the operation counts as
// failed.
func TestCorruptedOutputFails(t *testing.T) {
	corp, err := genCorpora(shrink(workload.SPECLike()[:1]))
	if err != nil {
		t.Fatal(err)
	}
	in := corp[0].in
	c := compile(in, exploreOptions(1, nil), true, nil)
	if len(c.problems) > 0 {
		t.Fatalf("clean compile has problems: %v", c.problems)
	}
	if _, problems := checkOutput(in, c.out, c.sizeAfter); len(problems) > 0 {
		t.Fatalf("clean output fails the check: %v", problems)
	}

	m, err := wire.Decode(c.out, wire.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !retargetCall(m) {
		t.Fatal("no call in @main could be retargeted")
	}
	bad, err := wire.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	_, problems := checkOutput(in, bad, c.sizeAfter)
	if len(problems) == 0 {
		t.Fatal("corrupted output passed the check")
	}
	var r result
	r.op(problems)
	if r.failed != 1 {
		t.Fatalf("corrupted output counted %d failures", r.failed)
	}
	t.Logf("corruption caught: %v", problems)
}

// retargetCall points the first call in @main whose result feeds @main's
// return value (an i64 call: @main sums them) and whose callee has a
// same-typed sibling definition at that sibling instead.
func retargetCall(m *ir.Module) bool {
	main := m.FuncByName("main")
	defs := m.Definitions()
	done := false
	main.Insts(func(in *ir.Inst) {
		if done || in.Op != ir.OpCall {
			return
		}
		callee, ok := in.Callee().(*ir.Func)
		if !ok || callee.ReturnType() != ir.I64() {
			return
		}
		for _, other := range defs {
			if other == callee || other == main || other.Sig() != callee.Sig() {
				continue
			}
			for i := 0; i < in.NumOperands(); i++ {
				if in.Operand(i) == ir.Value(callee) {
					in.SetOperand(i, other)
					done = true
					return
				}
			}
		}
	})
	return done
}
