package main

import (
	"fmt"
	"time"

	"fmsa/internal/baseline"
	"fmsa/internal/core"
	"fmsa/internal/explore"
	"fmsa/internal/ir"
	"fmsa/internal/passes"
	"fmsa/internal/serve"
	"fmsa/internal/tti"
	"fmsa/internal/wire"
)

// threshold is the exploration threshold t of every workload: the deepest
// setting of the paper's Fig. 10.
const threshold = 10

// exploreOptions is the fmsa CLI's default configuration at t=10: exact
// ranking, coded kernel, caches and bounding on, full in-exploration
// verification. A non-nil tracer installs its align shim.
func exploreOptions(workers int, tr *tracer) explore.Options {
	o := explore.DefaultOptions()
	o.Threshold = threshold
	o.Target = tti.X86{}
	o.Workers = workers
	o.Verify = ir.VerifyFull
	if tr != nil {
		o.Merge.AlignCoded = tr.alignShim()
	}
	return o
}

// compiled is the outcome of one module through the pipeline.
type compiled struct {
	out                   []byte
	digest                uint64
	sizeBefore, sizeAfter int
	folds                 *explore.Report // nil when the pipeline does not fold
	rep                   *explore.Report
	wall                  time.Duration
	problems              []string
}

// compile runs one module through the batch pipeline:
//
//  1. wire.Decode
//  2. ir.VerifyModuleLevel(full)
//  3. baseline.RunIdentical (when fold is set)
//  4. explore.Run
//  5. ir.VerifyModuleLevel(full)
//  6. wire.Encode
//
// Every step is a span when tr is non-nil. A returned error, a verifier
// finding or a panic lands in problems: the operation failed.
func compile(in []byte, opts explore.Options, fold bool, tr *tracer) (c compiled) {
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			c.problems = append(c.problems, fmt.Sprintf("panic: %v", p))
		}
		c.wall = time.Since(start)
	}()
	top := tr.begin("pipeline")
	defer tr.end(top)

	id := tr.begin("wire.decode")
	m, err := wire.Decode(in, wire.Options{Workers: opts.Workers})
	tr.end(id)
	if err != nil {
		c.problems = append(c.problems, "decode: "+err.Error())
		return c
	}
	c.problems = append(c.problems, verify(m, "input", tr)...)
	var recs []explore.MergeRecord
	if fold {
		id = tr.begin("baseline.identical")
		c.folds = baseline.RunIdentical(m, opts.Target)
		tr.end(id)
		recs = append(recs, c.folds.Records...)
	}
	id = tr.begin("explore.run")
	c.rep = explore.Run(m, opts)
	tr.end(id)
	recs = append(recs, c.rep.Records...)
	if n := len(c.rep.VerifyDiags); n > 0 {
		c.problems = append(c.problems, fmt.Sprintf("exploration verifier: %d findings, first: %v", n, c.rep.VerifyDiags[0]))
	}
	c.problems = append(c.problems, verify(m, "output", tr)...)
	id = tr.begin("wire.encode")
	c.out, err = wire.Encode(m)
	tr.end(id)
	if err != nil {
		c.problems = append(c.problems, "encode: "+err.Error())
	}
	c.sizeBefore, c.sizeAfter = c.rep.SizeBefore, c.rep.SizeAfter
	if c.folds != nil {
		c.sizeBefore = c.folds.SizeBefore
	}
	c.digest = serve.RecordsDigest(recs)
	return c
}

func verify(m *ir.Module, stage string, tr *tracer) []string {
	id := tr.begin("ir.verify")
	diags := ir.VerifyModuleLevel(m, ir.VerifyFull)
	tr.end(id)
	if len(diags) == 0 {
		return nil
	}
	return []string{fmt.Sprintf("%s verifier: %d findings, first: %v", stage, len(diags), diags[0])}
}

// sameDecisions reports how b's merge decisions differ from a's, or "".
func sameDecisions(a, b compiled) string {
	if a.digest != b.digest || a.sizeAfter != b.sizeAfter {
		return fmt.Sprintf("decisions differ: digest %x/%x, size after %d/%d", a.digest, b.digest, a.sizeAfter, b.sizeAfter)
	}
	return ""
}

// replay re-applies c's committed merges from the input bytes, one public
// call at a time: decode, fold identical functions (when the pipeline
// folds), demote φs, then core.Merge → Profit → Commit per record in commit
// order, each a span. The replay must reproduce every merged name and
// profit and the report's final size, with a clean verifier.
func replay(in []byte, c compiled, fold bool, tr *tracer) []string {
	if c.rep == nil {
		return []string{"replay: nothing to replay, the compile failed"}
	}
	m, err := wire.Decode(in, wire.Options{Workers: 1})
	if err != nil {
		return []string{"replay decode: " + err.Error()}
	}
	target := tti.X86{}
	if fold {
		baseline.RunIdentical(m, target)
	}
	passes.DemotePhisModule(m)
	for i, rec := range c.rep.Records {
		f1, f2 := m.FuncByName(rec.F1), m.FuncByName(rec.F2)
		if f1 == nil || f2 == nil {
			return []string{fmt.Sprintf("replay record %d: %s or %s missing", i, rec.F1, rec.F2)}
		}
		id := tr.begin("core.merge")
		res, err := core.Merge(f1, f2, core.DefaultOptions())
		tr.end(id)
		if err != nil {
			return []string{fmt.Sprintf("replay record %d: merge %s+%s: %v", i, rec.F1, rec.F2, err)}
		}
		id = tr.begin("core.profit")
		profit := res.Profit(target)
		tr.end(id)
		id = tr.begin("core.commit")
		res.Commit()
		tr.end(id)
		if profit != rec.Profit || res.Merged.Name() != rec.Merged {
			return []string{fmt.Sprintf("replay record %d: got %s profit %d, report has %s profit %d",
				i, res.Merged.Name(), profit, rec.Merged, rec.Profit)}
		}
	}
	var problems []string
	if got := tti.ModuleSize(target, m); got != c.rep.SizeAfter {
		problems = append(problems, fmt.Sprintf("replay size %d, report says %d", got, c.rep.SizeAfter))
	}
	if diags := ir.VerifyModuleLevel(m, ir.VerifyFull); len(diags) > 0 {
		problems = append(problems, fmt.Sprintf("replay verifier: %d findings", len(diags)))
	}
	return problems
}
