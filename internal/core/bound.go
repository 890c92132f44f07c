package core

// Pre-codegen profitability bounding (the estimate-before-materialize
// discipline): an admissible upper bound on the §IV-A merge profit computed
// directly from the alignment and the two linearizations, before any merged
// code exists. When the best case cannot clear the profit threshold, Merge
// skips code generation entirely — the dominant cost of exploration, since
// only a small fraction of aligned pairs turn out profitable.
//
// Admissibility argument. Exact profit is
//
//	Δ = c(f1) + c(f2) − c(merged) − ε
//
// so an upper bound on Δ needs exact c(f1)+c(f2) (memoized, see
// tti.CostMemo) and provable lower bounds on c(merged) and ε. Two facts
// carry the whole argument. Linearization lists reachable blocks only, so
// every column's instruction is reachable in its own function. And the
// merged function, entered with func_id fixed to one side, runs exactly
// that side's instruction sequence: its control flow reaches every clone
// of a reachable instruction of that side while passing only through
// shared blocks (matched labels, reconvergence blocks) and blocks of its
// own side, never through a block holding only the other side's code.
//
//   - Column floors. Every aligned column materializes in the merged
//     body: a matched instruction column is emitted once (a shallow clone
//     of one side, same opcode/type/operand count, so its InstSize equals
//     the sources'; min of the two sides is taken defensively), a gap
//     instruction column is emitted once at its source's size, and label
//     columns cost nothing. The cleanup pass (SimplifyCFG) can delete
//     instructions, so every form it can remove floors at zero
//     (instFloor): unconditional branches (branch forwarding and
//     straight-line merging delete exactly those) and landingpads
//     (dispatch-block hoisting replaces two pad clones with one; a matched
//     pad in diverged blocks is demoted to two gap pads and the hoist then
//     removes both). Conditional branches and switches count in full —
//     SimplifyCFG only folds them over a constant condition, and
//     constant-condition pairs are the one cascade hazard (folding a
//     cloned br/switch on a ConstInt makes whole cloned blocks unreachable
//     and deletable), so any such instruction in either sequence disables
//     bounding for the pair entirely. Reachable blocks stay reachable
//     otherwise, so no other instruction of theirs is ever deleted.
//   - Scaffolding floors, each something code generation is forced to
//     emit and cleanup cannot remove:
//     - func_id diamonds and dispatch. Replaying passOne's shared/diverged
//       block state machine (a pure function of the step sequence), each
//       entry into a gap run from a shared block costs one conditional
//       branch on func_id, which is never constant; so does each distinct
//       diverging branch-target pair (one memoized dispatch block; the
//       value maps are injective on blocks), and the entry dispatch unless
//       the two entry labels were matched with each other.
//     - Operand selects. Matched columns whose operands provably resolve
//       to different merged values — instructions not matched with each
//       other, parameters in different plan slots, unequal fixed values
//       (constants, globals, function references the value maps never
//       remap) — force one select each, taking the cheaper pairing for
//       two-operand commutative instructions (forcedSelects mirrors
//       fillMatched's reordering).
//     - Branch floor. A matched instruction after a gap run reconverges
//       both sides into a fresh block with an unconditional branch from
//       each side's current block. Both of those blocks are unterminated
//       (a matched instruction never follows a terminator of its own
//       block) and reachable (each lies on its side's path), so the fresh
//       block keeps two incoming edges through every cleanup step:
//       forwarding an empty side moves its edge to that side's
//       predecessors rather than removing it, and forwarding the fresh
//       block itself moves both edges to its successor. Straight-line
//       merging therefore never deletes a reconvergence branch, and
//       forwarding never deletes one whose block holds code. Each side
//       that placed a non-landingpad gap instruction in its current block
//       since the last split (live1, live2) thus keeps one unconditional
//       branch. An empty side, or a side whose gap run ends in a
//       terminator (it then never reconverges), contributes nothing.
//     - Demotion floor. demoteNonDominated demotes a value-producing
//       definition as soon as one reachable use is not dominated by it,
//       giving it one store and every use its own load; none of those are
//       deleted afterwards. A gap instruction d lies in a block holding
//       only its side's code. If some linearized read u of d is reachable
//       from the entry without passing d, d is demoted: that holds when a
//       shared column lies on d's side's path from d to u — after d and
//       up to u within one block, or after d in d's block, or before u in
//       u's block (crossesShared). The other side's path reaches that
//       shared column without entering d's block, and d's side's path
//       continues from it to u: straight through the rest of a block
//       (merged blocks never span two original blocks), and between
//       blocks along a shortest path, which leaves d's block once and
//       never re-enters it. A matched read is the simplest case: its
//       select sits in a shared block. The floor charges one store plus
//       one load per linearized read of d (demotionFloor).
//   - ε ≥ Σ per-side floors. The merged function keeps every f1 parameter
//     and appends each f2 parameter it cannot reuse an equal-typed slot
//     for, so its arity is at least the per-type multiset maximum of the
//     two lists (mergedParamFloor mirrors buildParamPlan), plus the
//     func_id slot whenever any gap column or guaranteed select keeps the
//     func_id parameter referenced. Call size is monotone in argument
//     count on both targets, so a synthetic call with that floor arity
//     lower-bounds the rewritten call size; per-site growth is clamped at
//     zero exactly like the exact model. The thunk floor applies under the
//     same linkage/address-taken condition as the exact model and omits
//     only the non-negative return-cast term.
//
// Every floor is ≤ its exact counterpart, so Bound ≥ Δ: a pruned pair
// (Bound ≤ MinProfit) is a pair the exact model would also reject. The
// differential `fmsa-bench -exp bound` sweep and the admissibility property
// tests assert exactly that, pair by pair. Evaluation stays cheap: sizes of
// synthetic instructions are probed once per target (sizeProbes), and the
// per-column tables are indexed by sequence position in pooled storage.

import (
	"errors"
	"sync"

	"fmsa/internal/align"
	"fmsa/internal/ir"
	"fmsa/internal/linearize"
	"fmsa/internal/tti"
)

// ErrHopeless reports that the pre-codegen profitability bound proved the
// merge cannot clear the configured profit threshold; code generation was
// skipped and no Result exists. It is a rejection, not a failure: the exact
// cost model would have rejected the pair too.
var ErrHopeless = errors.New("core: profitability bound rules out this merge")

// PruneSpec enables pre-codegen profitability bounding in Merge. The caller
// supplies the same cost-model inputs the exact profit evaluation will use
// (target and caller snapshots), so the bound and the exact model agree on
// every shared term.
type PruneSpec struct {
	// Target is the code-size cost model.
	Target tti.Target
	// S1 and S2 are the caller snapshots of f1 and f2 (see CallerStats).
	S1, S2 CallerStats
	// MinProfit is the pruning threshold: Merge returns ErrHopeless when
	// the bound proves profit ≤ MinProfit. The exploration pipeline uses 0,
	// matching its `profit <= 0 → discard` rejection.
	MinProfit int
	// Costs optionally memoizes the FuncSize terms (nil computes directly).
	Costs *tti.CostMemo
}

// sizeProbes holds one target's sizes for the instructions the bound
// charges without an original to measure: synthetic probes built once per
// target (and, for loads and calls, once per type or arity) rather than on
// every pair.
type sizeProbes struct {
	condBr, uncondBr, sel, store, ret int
	loads                             sync.Map // *ir.Type -> load size
	calls                             sync.Map // arity -> call size
}

var probeTable sync.Map // tti.Target -> *sizeProbes

func probesFor(t tti.Target) *sizeProbes {
	if p, ok := probeTable.Load(t); ok {
		return p.(*sizeProbes)
	}
	p := &sizeProbes{
		condBr:   t.InstSize(ir.NewInst(ir.OpBr, ir.Void(), nil, nil, nil)),
		uncondBr: t.InstSize(ir.NewInst(ir.OpBr, ir.Void(), nil)),
		sel:      t.InstSize(ir.NewInst(ir.OpSelect, ir.Bool(), nil, nil, nil)),
		store:    t.InstSize(ir.NewInst(ir.OpStore, ir.Void(), nil, nil)),
		ret:      t.InstSize(ir.NewInst(ir.OpRet, ir.Void())),
	}
	got, _ := probeTable.LoadOrStore(t, p)
	return got.(*sizeProbes)
}

// load is the size of a load producing a value of type ty.
func (p *sizeProbes) load(t tti.Target, ty *ir.Type) int {
	if n, ok := p.loads.Load(ty); ok {
		return n.(int)
	}
	n := t.InstSize(ir.NewInst(ir.OpLoad, ty, nil))
	p.loads.Store(ty, n)
	return n
}

// call is the size of a direct call passing arity arguments (nil callee and
// arguments: only the operand count is sized, exactly as syntheticCall's).
func (p *sizeProbes) call(t tti.Target, arity int) int {
	if n, ok := p.calls.Load(arity); ok {
		return n.(int)
	}
	n := t.InstSize(ir.NewInst(ir.OpCall, ir.Void(), make([]ir.Value, arity+1)...))
	p.calls.Store(arity, n)
	return n
}

// boundCtx carries the alignment correspondence needed to decide operand
// divergence and demotion exactly: two original values resolve to the same
// merged value iff they were aligned with each other (matched instruction
// columns, and labels to the same merged block) or assigned the same
// parameter slot. Per-column facts are indexed by sequence position, and
// every table is pooled (boundPool), so a bound evaluation allocates
// nothing once warm.
type boundCtx struct {
	// pos1 and pos2 map each linearized instruction to its sequence
	// position; instructions of unreachable blocks are absent.
	pos1, pos2   map[*ir.Inst]int32
	cols1, cols2 []colFacts              // indexed by sequence position
	matchedB     map[*ir.Block]*ir.Block // f1 block -> f2 block whose labels matched
	dispatch     map[[2]*ir.Block]struct{}
	plan         *paramPlan
	f1, f2       *ir.Func
}

// colFacts describes one sequence position's column.
type colFacts struct {
	// partner is the other sequence's position aligned with this one, or
	// -1 for a gap column.
	partner int32
	// start is the position of the label opening this entry's block.
	start int32
	// shared is the last position at or before this one whose column is
	// emitted into a block both functions' control flow reaches — a
	// matched label or matched non-landingpad instruction — or -1.
	shared int32
	// tail reports a shared column later in the same block.
	tail bool
}

var boundPool = sync.Pool{
	New: func() any {
		return &boundCtx{
			pos1:     map[*ir.Inst]int32{},
			pos2:     map[*ir.Inst]int32{},
			matchedB: map[*ir.Block]*ir.Block{},
			dispatch: map[[2]*ir.Block]struct{}{},
		}
	},
}

func getBoundCtx() *boundCtx {
	c := boundPool.Get().(*boundCtx)
	return c
}

// putBoundCtx clears c and returns it to the pool. Oversized tables are
// dropped for the same reason as the merger's (see scratchMapMax).
func putBoundCtx(c *boundCtx) {
	c.pos1 = recycleMap(c.pos1)
	c.pos2 = recycleMap(c.pos2)
	c.matchedB = recycleMap(c.matchedB)
	c.dispatch = recycleMap(c.dispatch)
	c.plan, c.f1, c.f2 = nil, nil, nil
	boundPool.Put(c)
}

// index records the alignment: positions, partners and matched labels,
// then the per-block shared-column facts of each side.
func (c *boundCtx) index(seq1, seq2 []linearize.Entry, steps []align.Step) {
	c.cols1 = resetCols(c.cols1, len(seq1))
	c.cols2 = resetCols(c.cols2, len(seq2))
	for _, s := range steps {
		if s.Op != align.OpMatch {
			continue
		}
		c.cols1[s.I].partner, c.cols2[s.J].partner = int32(s.J), int32(s.I)
		if e1 := seq1[s.I]; e1.IsLabel() {
			c.matchedB[e1.Block] = seq2[s.J].Block
		}
	}
	indexSide(seq1, c.cols1, c.pos1)
	indexSide(seq2, c.cols2, c.pos2)
}

func resetCols(cols []colFacts, n int) []colFacts {
	if cap(cols) < n {
		cols = make([]colFacts, n)
	}
	cols = cols[:n]
	for i := range cols {
		cols[i] = colFacts{partner: -1}
	}
	return cols
}

func indexSide(seq []linearize.Entry, cols []colFacts, pos map[*ir.Inst]int32) {
	start, shared := int32(0), int32(-1)
	for p, e := range seq {
		c := &cols[p]
		if e.IsLabel() {
			start = int32(p)
		} else {
			pos[e.Inst] = int32(p)
		}
		if c.partner >= 0 && (e.IsLabel() || e.Inst.Op != ir.OpLandingPad) {
			shared = int32(p)
		}
		c.start, c.shared = start, shared
	}
	for p := len(seq) - 2; p >= 0; p-- {
		if n := &cols[p+1]; n.start == cols[p].start {
			cols[p].tail = n.tail || n.shared == int32(p+1)
		}
	}
}

// profitUpperBound computes the admissible profit bound for merging f1 and
// f2 under the given alignment and parameter plan. ok is false when
// bounding is disabled for the pair (constant-condition branch hazard); the
// caller must then proceed to code generation.
func profitUpperBound(f1, f2 *ir.Func, seq1, seq2 []linearize.Entry,
	steps []align.Step, plan *paramPlan, spec *PruneSpec) (bound int, ok bool) {

	if hasConstBranch(seq1) || hasConstBranch(seq2) {
		return 0, false
	}
	t := spec.Target
	pr := probesFor(t)
	before := spec.Costs.FuncSize(t, f1) + spec.Costs.FuncSize(t, f2)

	// First pass: record which columns were aligned with each other, so
	// operand divergence (select and dispatch-block floors) and demotion
	// are decided the same way the merger's value maps will decide them.
	ctx := getBoundCtx()
	defer putBoundCtx(ctx)
	ctx.plan, ctx.f1, ctx.f2 = plan, f1, f2
	ctx.index(seq1, seq2, steps)

	// Lower bound on c(merged): per-column floors over the alignment, plus
	// floors on the scaffolding code generation is forced to emit — operand
	// selects, dispatch blocks for diverging branch targets, func_id
	// diamond branches, reconvergence branches and demotion memory traffic.
	// The block bookkeeping replays passOne's shared/diverged state
	// machine, which is a pure function of the step sequence: entering a
	// gap run from a shared block splits it with a conditional branch on
	// func_id (conditional branches survive cleanup: func_id is never
	// constant), and a matched instruction after a gap run reconverges both
	// sides into a fresh block whose unconditional branches survive on
	// every side that holds code (live1, live2; see the file comment).
	mergedLB := t.FuncOverhead()
	gapSteps, selects, joins := 0, 0, 0
	cur1, cur2, next := 0, 0, 0 // block ids; equal ⇔ sides share a block
	live1, live2 := false, false
	for _, s := range steps {
		switch s.Op {
		case align.OpMatch:
			e1 := seq1[s.I]
			if e1.IsLabel() {
				next++
				cur1, cur2 = next, next
				live1, live2 = false, false
				continue
			}
			e2 := seq2[s.J]
			mergedLB += min(instFloor(t, e1.Inst), instFloor(t, e2.Inst))
			selects += ctx.forcedSelects(e1.Inst, e2.Inst)
			ctx.divergingTargets(e1.Inst, e2.Inst)
			if e1.Inst.Op == ir.OpLandingPad && cur1 != cur2 {
				continue // demoted to a gap pair; both sides stay diverged
			}
			if cur1 != cur2 {
				if live1 {
					joins++
				}
				if live2 {
					joins++
				}
				next++
				cur1, cur2 = next, next
				live1, live2 = false, false
			}
		case align.OpGapA:
			gapSteps++
			if e := seq1[s.I]; e.IsLabel() {
				next++
				cur1, live1 = next, false
			} else {
				mergedLB += instFloor(t, e.Inst)
				if cur1 == cur2 {
					mergedLB += pr.condBr // func_id diamond split
					cur1, cur2 = next+1, next+2
					next += 2
					live2 = false
				}
				live1 = e.Inst.Op != ir.OpLandingPad
			}
		case align.OpGapB:
			gapSteps++
			if e := seq2[s.J]; e.IsLabel() {
				next++
				cur2, live2 = next, false
			} else {
				mergedLB += instFloor(t, e.Inst)
				if cur1 == cur2 {
					mergedLB += pr.condBr // func_id diamond split
					cur1, cur2 = next+1, next+2
					next += 2
					live1 = false
				}
				live2 = e.Inst.Op != ir.OpLandingPad
			}
		}
	}
	mergedLB += selects*pr.sel + joins*pr.uncondBr
	// Each distinct diverging target pair materializes one memoized
	// dispatch block holding a conditional branch on func_id.
	mergedLB += len(ctx.dispatch) * pr.condBr
	// The entry block's dispatch branch is conditional unless the two
	// original entry labels were matched with each other.
	if ctx.matchedB[f1.Entry()] != f2.Entry() {
		mergedLB += pr.condBr
	}
	mergedLB += ctx.demotionFloor(t, pr, seq1, ctx.cols1, ctx.pos1) +
		ctx.demotionFloor(t, pr, seq2, ctx.cols2, ctx.pos2)

	// Lower bound on ε: the merged arity floor gives a floor on the
	// rewritten call size (call size is monotone in argument count). The
	// parameter plan is exact for the non-func_id slots; the func_id slot
	// counts whenever any gap column, operand select or dispatch block
	// keeps it referenced.
	lbArity := len(plan.types) - 1
	if gapSteps > 0 || selects > 0 || len(ctx.dispatch) > 0 {
		lbArity++
	}
	callLB := pr.call(t, lbArity)
	epsLB := deltaLowerBound(t, pr, f1, spec.S1, callLB) +
		deltaLowerBound(t, pr, f2, spec.S2, callLB)

	return before - mergedLB - epsLB, true
}

// demotionFloor charges the memory traffic demoteNonDominated provably
// emits for one side's gap definitions: a value-producing gap instruction
// with a linearized read that some path reaches without passing the
// definition (crossesShared) is demoted to an entry-block slot, costing
// one store plus one load per linearized read — every use gets its own
// load. See the file comment for the path argument.
func (c *boundCtx) demotionFloor(t tti.Target, pr *sizeProbes, seq []linearize.Entry,
	cols []colFacts, pos map[*ir.Inst]int32) int {

	lb := 0
	for pd, e := range seq {
		if e.IsLabel() || cols[pd].partner >= 0 {
			continue
		}
		def := e.Inst
		if ty := def.Type(); ty.IsVoid() || ty == ir.Token() {
			continue // demoteNonDominated never demotes these
		}
		reads, demoted := 0, false
		for _, u := range def.Uses() {
			pu, linearized := pos[u.User]
			if !linearized {
				continue // unreachable user: never cloned
			}
			reads++
			demoted = demoted || crossesShared(cols, int32(pd), pu)
		}
		if demoted {
			lb += pr.store + reads*pr.load(t, def.Type())
		}
	}
	return lb
}

// crossesShared reports whether the read at position pu of the gap
// definition at position pd is reachable from the merged entry without
// passing the definition: some shared column — one the other function's
// control flow also reaches — lies on the original path from pd to pu.
// Within one block that is a shared column after pd and up to pu; across
// blocks, one after pd in the definition's block or one before pu in the
// reader's block.
func crossesShared(cols []colFacts, pd, pu int32) bool {
	r := &cols[pu]
	if r.start == cols[pd].start {
		return pu > pd && r.shared > pd
	}
	return cols[pd].tail || r.shared >= r.start
}

// instFloor is the size an aligned instruction column provably contributes
// to the merged body. Unconditional branches floor at zero — block
// forwarding and straight-line merging delete exactly those — and so do
// landingpads (dispatch-block hoisting replaces two pad clones with one; a
// matched pad in diverged blocks is demoted to two gap pads and the hoist
// then removes both). Conditional branches and switches survive cleanup in
// full: SimplifyCFG only folds them over a constant condition, and
// constant-condition pairs bail out of bounding before any floor is taken.
func instFloor(t tti.Target, in *ir.Inst) int {
	switch in.Op {
	case ir.OpLandingPad:
		return 0
	case ir.OpBr:
		if in.NumOperands() == 1 {
			return 0
		}
	}
	return t.InstSize(in)
}

// diverges reports whether a (a side-1 operand) and b (a side-2 operand)
// provably resolve to different merged values, forcing fillMatched to emit
// an operand select. It mirrors the merger's resolve: instructions map to
// their clones (shared iff matched with each other), parameters to their
// plan slots, and constants, globals and function references to
// themselves. Undecidable pairs return false — the floor stays admissible.
func (c *boundCtx) diverges(a, b ir.Value) bool {
	if a == nil || b == nil {
		return false
	}
	switch x := a.(type) {
	case *ir.Block:
		return false // label operands go through dispatch blocks, not selects
	case *ir.Inst:
		y, ok := b.(*ir.Inst)
		if !ok {
			return true
		}
		p, ok1 := c.pos1[x]
		q, ok2 := c.pos2[y]
		return !ok1 || !ok2 || c.cols1[p].partner != q
	case *ir.Param:
		if x.Parent() != c.f1 {
			return false // foreign param: out of resolve's model
		}
		switch y := b.(type) {
		case *ir.Block:
			return false
		case *ir.Param:
			if y.Parent() != c.f2 {
				return false
			}
			return c.plan.map1[x.Index] != c.plan.map2[y.Index]
		default:
			return true // a parameter slot never equals a clone or constant
		}
	default:
		// Fixed values: constants, globals and function references.
		switch b.(type) {
		case *ir.Block:
			return false
		case *ir.Inst, *ir.Param:
			return true
		default:
			return a != b && !ir.ConstantsEqual(a, b)
		}
	}
}

// forcedSelects counts the operand selects code generation must emit for a
// matched instruction column: operand positions whose sides provably
// diverge. For two-operand commutative instructions the merger may swap
// one side to minimise divergence, so the floor takes the cheaper pairing.
func (c *boundCtx) forcedSelects(i1, i2 *ir.Inst) int {
	ops1, ops2 := i1.Operands(), i2.Operands()
	if i1.Op.IsCommutative() && len(ops1) == 2 && len(ops2) == 2 {
		direct, swapped := 0, 0
		if c.diverges(ops1[0], ops2[0]) {
			direct++
		}
		if c.diverges(ops1[1], ops2[1]) {
			direct++
		}
		if c.diverges(ops1[0], ops2[1]) {
			swapped++
		}
		if c.diverges(ops1[1], ops2[0]) {
			swapped++
		}
		return min(direct, swapped)
	}
	n := 0
	for k := range ops1 {
		if k < len(ops2) && c.diverges(ops1[k], ops2[k]) {
			n++
		}
	}
	return n
}

// divergingTargets collects the distinct diverging label-operand pairs of a
// matched column into c.dispatch. Each pair the merger cannot share becomes
// one memoized dispatch block (dispatchBlock); the value maps are injective
// on blocks, so distinct original pairs stay distinct merged pairs.
func (c *boundCtx) divergingTargets(i1, i2 *ir.Inst) {
	ops1, ops2 := i1.Operands(), i2.Operands()
	for k := range ops1 {
		if k >= len(ops2) {
			break
		}
		b1, ok1 := ops1[k].(*ir.Block)
		b2, ok2 := ops2[k].(*ir.Block)
		if !ok1 || !ok2 || c.matchedB[b1] == b2 {
			continue
		}
		c.dispatch[[2]*ir.Block{b1, b2}] = struct{}{}
	}
}

// hasConstBranch reports whether the sequence contains a conditional branch
// or switch on an integer constant — the trigger of SimplifyCFG's
// constant-branch folding, whose unreachable-block cascade can delete
// arbitrarily many cloned instructions.
func hasConstBranch(seq []linearize.Entry) bool {
	for _, e := range seq {
		if e.IsLabel() {
			continue
		}
		switch e.Inst.Op {
		case ir.OpBr:
			if e.Inst.NumOperands() == 3 {
				if _, ok := e.Inst.Operand(0).(*ir.ConstInt); ok {
					return true
				}
			}
		case ir.OpSwitch:
			if _, ok := e.Inst.Operand(0).(*ir.ConstInt); ok {
				return true
			}
		}
	}
	return false
}

// deltaLowerBound is the floor of delta(f, merged): per-call-site growth
// against the arity-floor call size, plus the thunk floor (without the
// non-negative return-cast term) when f cannot be deleted outright. Mirrors
// Result.delta term for term.
func deltaLowerBound(t tti.Target, pr *sizeProbes, f *ir.Func, s CallerStats, callLB int) int {
	lb := 0
	if s.Callers > 0 {
		if growth := callLB - pr.call(t, len(f.Params)); growth > 0 {
			lb += growth * s.Callers
		}
	}
	if f.Linkage == ir.InternalLinkage && !s.AddressTaken {
		return lb
	}
	return lb + t.FuncOverhead() + callLB + pr.ret
}
