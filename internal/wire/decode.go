package wire

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sync"

	"fmsa/internal/ir"
	"fmsa/internal/par"
)

// Options configure ReadModule.
type Options struct {
	// Workers bounds the goroutines decoding function bodies concurrently.
	// Zero or negative means GOMAXPROCS. The resulting module — including
	// use-list order, which downstream passes observe through Preds and
	// Callers — is identical for every worker count.
	Workers int
}

// decoder holds the serially-built module state shared (read-only) by the
// body workers: the interned tables and the function/global shells.
type decoder struct {
	m       *ir.Module
	strs    []string // index 0 is ""
	types   []*ir.Type
	consts  []ir.Constant
	hasBody []bool // per function: shell expects a body section
	gotBody []bool // per function: body section seen (dispatcher-only)
}

func (d *decoder) str(r *reader, what string) string {
	idx := r.uvarint()
	if idx == 0 {
		return ""
	}
	if idx >= uint64(len(d.strs)) {
		r.fail("%s string index %d out of range", what, idx)
		return ""
	}
	return d.strs[idx]
}

func (d *decoder) typeAt(r *reader) *ir.Type {
	idx := r.uvarint()
	if idx >= uint64(len(d.types)) {
		r.fail("type index %d out of range", idx)
		return nil
	}
	return d.types[idx]
}

func (d *decoder) decodeStrings(r *reader) {
	if d.strs != nil {
		r.fail("duplicate strings section")
		return
	}
	n := r.count(1)
	if r.err != nil {
		return
	}
	d.strs = make([]string, n+1)
	for i := 1; i <= n; i++ {
		l := r.uvarint()
		d.strs[i] = string(r.bytes(int(l)))
	}
}

func (d *decoder) decodeTypes(r *reader) {
	if d.types != nil {
		r.fail("duplicate types section")
		return
	}
	n := r.count(1)
	if r.err != nil {
		return
	}
	d.types = make([]*ir.Type, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		kind := ir.TypeKind(r.byte())
		var t *ir.Type
		switch kind {
		case ir.VoidKind:
			t = ir.Void()
		case ir.LabelKind:
			t = ir.Label()
		case ir.TokenKind:
			t = ir.Token()
		case ir.IntKind:
			bits := r.uvarint()
			if r.err != nil {
				return
			}
			if bits < 1 || bits > 64 {
				r.fail("integer type with %d bits", bits)
				return
			}
			t = ir.Int(int(bits))
		case ir.FloatKind:
			bits := r.uvarint()
			if r.err != nil {
				return
			}
			if bits != 32 && bits != 64 {
				r.fail("float type with %d bits", bits)
				return
			}
			t = ir.Float(int(bits))
		case ir.PointerKind:
			elem := d.typeAt(r)
			if r.err != nil {
				return
			}
			t = ir.PointerTo(elem)
		case ir.ArrayKind:
			ln := r.uvarint()
			elem := d.typeAt(r)
			if r.err != nil {
				return
			}
			if ln > math.MaxInt32 {
				r.fail("array type with %d elements", ln)
				return
			}
			t = ir.ArrayOf(int(ln), elem)
		case ir.StructKind:
			nf := r.count(1)
			if r.err != nil {
				return
			}
			fields := make([]*ir.Type, nf)
			for j := range fields {
				fields[j] = d.typeAt(r)
			}
			if r.err != nil {
				return
			}
			t = ir.StructOf(fields...)
		case ir.FuncKind:
			variadic := r.byte()
			ret := d.typeAt(r)
			np := r.count(1)
			if r.err != nil {
				return
			}
			params := make([]*ir.Type, np)
			for j := range params {
				params[j] = d.typeAt(r)
			}
			if r.err != nil {
				return
			}
			if variadic != 0 {
				t = ir.VarFuncOf(ret, params...)
			} else {
				t = ir.FuncOf(ret, params...)
			}
		default:
			r.fail("unknown type kind %d", kind)
			return
		}
		d.types = append(d.types, t)
	}
}

func (d *decoder) decodeConsts(r *reader) {
	if d.consts != nil {
		r.fail("duplicate consts section")
		return
	}
	n := r.count(2)
	if r.err != nil {
		return
	}
	d.consts = make([]ir.Constant, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		kind := r.byte()
		t := d.typeAt(r)
		if r.err != nil {
			return
		}
		var c ir.Constant
		switch kind {
		case constInt:
			v := r.svarint()
			if !t.IsInt() {
				r.fail("integer constant with non-integer type %s", t)
				return
			}
			c = ir.NewConstInt(t, v)
		case constFloat:
			bits := r.uvarint()
			if !t.IsFloat() {
				r.fail("float constant with non-float type %s", t)
				return
			}
			c = ir.NewConstFloat(t, math.Float64frombits(bits))
		case constUndef:
			c = ir.NewUndef(t)
		case constNull:
			if !t.IsPointer() {
				r.fail("null constant with non-pointer type %s", t)
				return
			}
			c = ir.NewConstNull(t)
		default:
			r.fail("unknown constant kind %d", kind)
			return
		}
		d.consts = append(d.consts, c)
	}
}

func (d *decoder) decodeGlobals(r *reader) {
	if len(d.m.Globals) > 0 {
		r.fail("duplicate globals section")
		return
	}
	n := r.count(4)
	for i := 0; i < n && r.err == nil; i++ {
		name := d.str(r, "global name")
		t := d.typeAt(r)
		linkage := r.uvarint()
		flag := r.byte()
		var init []byte
		if flag == 1 {
			l := r.uvarint()
			init = append([]byte{}, r.bytes(int(l))...)
		} else if flag != 0 {
			r.fail("unknown global init flag %d", flag)
		}
		if r.err != nil {
			return
		}
		if !ir.ValidSymbolName(name) {
			r.fail("invalid global name %q", name)
			return
		}
		if d.m.GlobalByName(name) != nil {
			r.fail("duplicate global @%s", name)
			return
		}
		g := ir.NewGlobal(name, t)
		g.Linkage = ir.Linkage(linkage)
		g.Init = init
		d.m.AddGlobal(g)
	}
}

func (d *decoder) decodeFuncs(r *reader) {
	if d.hasBody != nil {
		r.fail("duplicate funcs section")
		return
	}
	n := r.count(5)
	if r.err != nil {
		return
	}
	d.hasBody = make([]bool, n)
	d.gotBody = make([]bool, n)
	for i := 0; i < n && r.err == nil; i++ {
		name := d.str(r, "function name")
		sig := d.typeAt(r)
		linkage := r.uvarint()
		hotness := r.uvarint()
		flag := r.byte()
		if r.err != nil {
			return
		}
		if sig.Kind != ir.FuncKind {
			r.fail("function @%s with non-function type %s", name, sig)
			return
		}
		if !ir.ValidSymbolName(name) {
			r.fail("invalid function name %q", name)
			return
		}
		if d.m.FuncByName(name) != nil {
			r.fail("duplicate function @%s", name)
			return
		}
		f := ir.NewFunc(name, sig)
		f.Linkage = ir.Linkage(linkage)
		f.Hotness = hotness
		d.m.AddFunc(f)
		d.hasBody[i] = flag == 1
	}
}

// localFix is a forward reference to a not-yet-decoded local value; applied
// after the body's instruction stream, in record order, exactly like the
// text parser's fixups — so use-list order matches text ingest bit for bit.
type localFix struct {
	in   *ir.Inst
	slot int
	def  int
}

// sharedFix defers a function/global operand attachment. Workers never
// touch the module-shared use lists; ReadModule applies these serially in
// (function, instruction, operand) order after all workers finish, which is
// the order the text parser produces and is worker-count invariant.
type sharedFix struct {
	in   *ir.Inst
	slot int
	v    ir.Value
}

// bodyResult is one body section's outcome, indexed by function.
type bodyResult struct {
	shared []sharedFix
	err    error
}

// decodeBody decodes one body payload into the function shell fi. Only
// this goroutine touches f, its params, blocks and instructions.
func (d *decoder) decodeBody(fi int, r *reader) ([]sharedFix, error) {
	f := d.m.Funcs[fi]
	fail := func(format string, args ...any) ([]sharedFix, error) {
		return nil, fmt.Errorf("wire: "+format+" (in @%s)", append(args, f.Name())...)
	}
	for _, prm := range f.Params {
		if nm := d.str(r, "parameter name"); nm != "" {
			if !ir.ValidLocalName(nm) {
				return fail("invalid parameter name %q", nm)
			}
			prm.SetName(nm)
		}
	}
	nb := r.count(2)
	if r.err != nil {
		return nil, r.err
	}
	if nb == 0 {
		return fail("body with no blocks")
	}
	blocks := make([]*ir.Block, nb)
	counts := make([]int, nb)
	f.Blocks = make([]*ir.Block, 0, nb)
	var total uint64
	for i := 0; i < nb; i++ {
		nm := d.str(r, "block name")
		cnt := r.uvarint()
		if r.err != nil {
			return nil, r.err
		}
		if nm != "" && !ir.ValidSymbolName(nm) {
			return fail("invalid block name %q", nm)
		}
		total += cnt
		// Each instruction needs at least 4 bytes (op, type, name, operand
		// count), so a count beyond that is corrupt — reject before sizing.
		if total > uint64(r.remaining())/4 {
			return fail("instruction count %d exceeds payload", total)
		}
		counts[i] = int(cnt)
		b := ir.NewBlock(nm)
		if cnt > 0 {
			b.Insts = make([]*ir.Inst, 0, cnt)
		}
		blocks[i] = b
		f.AppendBlock(b)
	}
	totalLocals := len(f.Params) + int(total)
	defs := make([]ir.Value, len(f.Params), totalLocals)
	for i, prm := range f.Params {
		defs[i] = prm
	}
	// Pass one decodes and fully validates the structure — instructions,
	// their shapes, and every operand reference flattened into refs — without
	// attaching operands.
	slab := ir.NewInstSlab(int(total))
	refs := make([]uint64, 0, 2*total)
	for bi, b := range blocks {
		for k := 0; k < counts[bi]; k++ {
			in, err := d.decodeInst(r, slab, nb, totalLocals, &refs)
			if err != nil {
				return nil, fmt.Errorf("%w (in @%s)", err, f.Name())
			}
			b.Append(in)
			defs = append(defs, in)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return fail("%d trailing bytes after body", r.remaining())
	}
	// Count uses per definition from the flat reference array so every use
	// list in the body comes out of one slab with exact capacity, instead of
	// growing each list by doubling.
	localUses := make([]int, totalLocals)
	blockUses := make([]int, nb)
	useTotal := 0
	for _, ref := range refs {
		switch ref & 7 {
		case tagLocal:
			localUses[ref>>3]++
			useTotal++
		case tagBlock:
			blockUses[ref>>3]++
			useTotal++
		}
	}
	useSlab := make([]ir.Use, useTotal)
	for i, prm := range f.Params {
		useSlab = ir.PresizeUses(prm, localUses[i], useSlab)
	}
	for i, b := range blocks {
		useSlab = ir.PresizeUses(b, blockUses[i], useSlab)
	}
	for di := len(f.Params); di < len(defs); di++ {
		useSlab = ir.PresizeUses(defs[di], localUses[di], useSlab)
	}
	// Pass two attaches operands in exactly the order the text parser does:
	// walking instructions in layout order, backward local references, block
	// and constant operands attach immediately; forward local references are
	// recorded and applied after the walk, in record order. Function and
	// global references are deferred to the caller (see sharedFix).
	var fixups []localFix
	var shared []sharedFix
	cursor, defPos := 0, len(f.Params)
	for _, b := range blocks {
		for _, in := range b.Insts {
			n := in.NumOperands()
			for i := 0; i < n; i++ {
				ref := refs[cursor]
				cursor++
				idx := int(ref >> 3)
				switch ref & 7 {
				case tagLocal:
					if idx < defPos {
						in.SetOperand(i, defs[idx])
					} else {
						fixups = append(fixups, localFix{in, i, idx})
					}
				case tagBlock:
					in.SetOperand(i, blocks[idx])
				case tagFunc:
					shared = append(shared, sharedFix{in, i, d.m.Funcs[idx]})
				case tagGlobal:
					shared = append(shared, sharedFix{in, i, d.m.Globals[idx]})
				case tagConst:
					in.SetOperand(i, d.consts[idx])
				}
			}
			defPos++
		}
	}
	for _, fx := range fixups {
		fx.in.SetOperand(fx.slot, defs[fx.def])
	}
	return shared, nil
}

// operandArityOK reports whether n operands is a well-formed count for op.
// These are the shapes the textual grammar guarantees; enforcing them at
// decode time keeps corrupt input from reaching accessors (Successors,
// PhiIncoming, the printer) that index by layout.
func operandArityOK(op ir.Opcode, n int) bool {
	switch op {
	case ir.OpRet:
		return n <= 1
	case ir.OpBr:
		return n == 1 || n == 3
	case ir.OpSwitch:
		return n >= 2 && n%2 == 0
	case ir.OpUnreachable, ir.OpAlloca, ir.OpLandingPad:
		return n == 0
	case ir.OpInvoke:
		return n >= 3
	case ir.OpResume, ir.OpLoad:
		return n == 1
	case ir.OpStore:
		return n == 2
	case ir.OpGEP, ir.OpCall:
		return n >= 1
	case ir.OpICmp, ir.OpFCmp:
		return n == 2
	case ir.OpPhi:
		return n >= 2 && n%2 == 0
	case ir.OpSelect:
		return n == 3
	default:
		if op.IsBinary() {
			return n == 2
		}
		return op.IsCast() && n == 1
	}
}

// mustBeBlock reports whether operand slot i of an op with n operands is a
// basic-block slot. Accessors type-assert these positions, so the decoder
// requires block references exactly there and nowhere else.
func mustBeBlock(op ir.Opcode, n, i int) bool {
	switch op {
	case ir.OpBr:
		return n == 1 || i >= 1
	case ir.OpSwitch, ir.OpPhi:
		return i%2 == 1
	case ir.OpInvoke:
		return i >= n-2
	default:
		return false
	}
}

// decodeInst decodes one instruction: the slab-allocated *ir.Inst with its
// extras and empty operand slots, plus its operand references — validated
// (tag, range, block-slot shape) and appended raw to refs for the caller's
// attach pass.
func (d *decoder) decodeInst(r *reader, slab *ir.InstSlab, nBlocks, totalLocals int, refs *[]uint64) (*ir.Inst, error) {
	op := ir.Opcode(r.uvarint())
	if r.err == nil && (op <= ir.OpInvalid || op >= ir.NumOpcodes) {
		r.fail("unknown opcode %d", op)
	}
	typ := d.typeAt(r)
	name := d.str(r, "instruction name")
	if r.err != nil {
		return nil, r.err
	}
	if !ir.ValidLocalName(name) {
		r.fail("invalid instruction name %q", name)
		return nil, r.err
	}
	// Opcode-specific extras precede the operand count in the stream; stage
	// them in locals so the instruction can be slab-allocated with its final
	// operand slot count in one step.
	var pred ir.CmpPred
	var alloc *ir.Type
	var clauses []string
	switch op {
	case ir.OpICmp, ir.OpFCmp:
		p := r.uvarint()
		if r.err == nil && (p == 0 || p > uint64(ir.PredOLE)) {
			r.fail("unknown comparison predicate %d", p)
		}
		pred = ir.CmpPred(p)
	case ir.OpAlloca:
		alloc = d.typeAt(r)
	case ir.OpLandingPad:
		nc := r.count(1)
		if nc > 0 {
			clauses = make([]string, nc)
			for i := range clauses {
				c := d.str(r, "landingpad clause")
				if r.err == nil && c != "cleanup" && !ir.ValidSymbolName(c) {
					r.fail("invalid landingpad clause %q", c)
				}
				clauses[i] = c
			}
		}
	}
	nops := r.count(1)
	if r.err != nil {
		return nil, r.err
	}
	if !operandArityOK(op, nops) {
		r.fail("%s with %d operands", op, nops)
		return nil, r.err
	}
	in := slab.NewInst(op, typ, nops)
	if name != "" {
		in.SetName(name)
	}
	in.Pred, in.Alloc, in.Clauses = pred, alloc, clauses
	for i := 0; i < nops; i++ {
		ref := r.uvarint()
		if r.err != nil {
			return nil, r.err
		}
		if isBlock := ref&7 == tagBlock; isBlock != mustBeBlock(op, nops, i) {
			r.fail("%s operand %d: block reference in a value slot or vice versa", op, i)
			return nil, r.err
		}
		idx := int(ref >> 3)
		switch ref & 7 {
		case tagLocal:
			if idx >= totalLocals {
				r.fail("local operand %d out of range", idx)
			}
		case tagBlock:
			if idx >= nBlocks {
				r.fail("block operand %d out of range", idx)
			}
		case tagFunc:
			if idx >= len(d.m.Funcs) {
				r.fail("function operand %d out of range", idx)
			}
		case tagGlobal:
			if idx >= len(d.m.Globals) {
				r.fail("global operand %d out of range", idx)
			}
		case tagConst:
			if idx >= len(d.consts) {
				r.fail("constant operand %d out of range", idx)
			}
		default:
			r.fail("unknown operand tag %d", ref&7)
		}
		*refs = append(*refs, ref)
	}
	if r.err != nil {
		return nil, r.err
	}
	return in, nil
}

// ReadModule decodes an fmir module from rd. The format is sectioned
// precisely so the input can be buffered once and then decoded without
// further copying; ReadModule slurps the stream and delegates to Decode.
func ReadModule(rd io.Reader, opts Options) (*ir.Module, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("wire: reading module: %w", err)
	}
	return Decode(data, opts)
}

// Decode decodes an fmir module from an in-memory buffer, zero-copy: the
// header and tables decode serially, then body sections — independently
// decodable, length-prefixed — fan out across opts.Workers goroutines as
// read-only subslices of data. The buffer must not be mutated until Decode
// returns; afterwards nothing in the module aliases it (strings and global
// initializers are copied out).
func Decode(data []byte, opts Options) (*ir.Module, error) {
	if !IsFMIR(data) {
		return nil, ErrBadMagic
	}
	hdr := &reader{buf: data, pos: len(Magic)}
	version := hdr.uvarint()
	if hdr.err == nil && version != Version {
		return nil, fmt.Errorf("wire: unsupported fmir version %d (have %d)", version, Version)
	}
	name := hdr.bytes(int(hdr.uvarint()))
	if hdr.err != nil {
		return nil, hdr.err
	}
	if bytes.ContainsAny(name, "\n\r") {
		return nil, fmt.Errorf("wire: module name %q contains line breaks", name)
	}
	d := &decoder{m: ir.NewModule(string(name))}

	workers := par.Workers(opts.Workers)

	type bodyJob struct {
		fi   int
		off  int // payload offset past the function-index varint
		data []byte
	}
	var (
		results []bodyResult
		jobs    chan bodyJob
		wg      sync.WaitGroup
	)
	startPool := func() {
		results = make([]bodyResult, len(d.m.Funcs))
		if workers == 1 {
			return
		}
		jobs = make(chan bodyJob, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for jb := range jobs {
					r := &reader{buf: jb.data, pos: jb.off}
					shared, err := d.decodeBody(jb.fi, r)
					results[jb.fi] = bodyResult{shared: shared, err: err}
				}
			}()
		}
	}
	drain := func() {
		if jobs != nil {
			close(jobs)
			wg.Wait()
			jobs = nil
		}
	}

	for {
		id := hdr.byte()
		length := hdr.uvarint()
		if hdr.err != nil {
			drain()
			return nil, hdr.err
		}
		if id == secEnd {
			if length != 0 {
				drain()
				return nil, fmt.Errorf("wire: end section with nonzero length %d", length)
			}
			break
		}
		payload := hdr.bytes(int(length))
		if hdr.err != nil {
			drain()
			return nil, hdr.err
		}
		if id == secBody {
			if d.hasBody == nil {
				drain()
				return nil, fmt.Errorf("wire: body section before funcs section")
			}
			if results == nil {
				startPool()
			}
			pr := &reader{buf: payload}
			fiv := pr.uvarint()
			if pr.err != nil || fiv >= uint64(len(d.m.Funcs)) {
				drain()
				return nil, fmt.Errorf("wire: body section with bad function index")
			}
			jb := bodyJob{fi: int(fiv), off: pr.pos, data: payload}
			if !d.hasBody[jb.fi] {
				drain()
				return nil, fmt.Errorf("wire: body for declaration @%s", d.m.Funcs[jb.fi].Name())
			}
			if d.gotBody[jb.fi] {
				drain()
				return nil, fmt.Errorf("wire: duplicate body for @%s", d.m.Funcs[jb.fi].Name())
			}
			d.gotBody[jb.fi] = true
			if jobs != nil {
				jobs <- jb
			} else {
				r := &reader{buf: jb.data, pos: jb.off}
				shared, err := d.decodeBody(jb.fi, r)
				results[jb.fi] = bodyResult{shared: shared, err: err}
			}
			continue
		}
		// Table sections decode serially and must precede every body:
		// workers read the tables lock-free, so mutating them after body
		// decode has started would race.
		if results != nil {
			drain()
			return nil, fmt.Errorf("wire: section %d after body sections", id)
		}
		r := &reader{buf: payload}
		switch id {
		case secStrings:
			d.decodeStrings(r)
		case secTypes:
			d.decodeTypes(r)
		case secConsts:
			d.decodeConsts(r)
		case secGlobals:
			d.decodeGlobals(r)
		case secFuncs:
			d.decodeFuncs(r)
		default:
			r.fail("unknown section id %d", id)
		}
		if r.err == nil && r.remaining() != 0 {
			r.fail("%d trailing bytes in section %d", r.remaining(), id)
		}
		if r.err != nil {
			drain()
			return nil, r.err
		}
	}
	drain()
	if hdr.remaining() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after end section", hdr.remaining())
	}

	// Surface worker errors and missing bodies in function order so the
	// reported error is deterministic.
	for fi := range results {
		if results[fi].err != nil {
			return nil, results[fi].err
		}
	}
	for fi, want := range d.hasBody {
		if want && !d.gotBody[fi] {
			return nil, fmt.Errorf("wire: missing body for @%s", d.m.Funcs[fi].Name())
		}
	}
	// Attach function/global operands serially in (function, instruction,
	// operand) order — the order a serial text parse produces — so shared
	// use lists are identical regardless of worker count or scheduling.
	for fi := range results {
		for _, sf := range results[fi].shared {
			sf.in.SetOperand(sf.slot, sf.v)
		}
	}
	return d.m, nil
}
