package core

import (
	"sync"

	"fmsa/internal/ir"
)

// mergerScratch pools the merger's side tables and clone storage across
// merge attempts: the two value maps, the dispatch-block memo, the operand
// second-pass column records and the instruction arena backing every shallow
// clone. Most speculative attempts are discarded (unprofitable), so reusing
// this state removes the bulk of code generation's allocation pressure.
//
// Ownership walks with the merge outcome: generate attaches the scratch to
// the Result it returns, Result.Discard releases it (arena slabs included —
// a discarded body is dead, so slab reuse is safe), and Result.Commit drops
// it after abandoning the arena slabs, because a committed body's
// instructions live in them. Error and panic paths inside generate release
// the scratch themselves.
type mergerScratch struct {
	vmap1, vmap2 map[ir.Value]ir.Value
	dispatch     map[[2]*ir.Block]*ir.Block
	cols         []colRec
	arena        ir.InstArena
}

var scratchPool = sync.Pool{
	New: func() any {
		return &mergerScratch{
			vmap1:    map[ir.Value]ir.Value{},
			vmap2:    map[ir.Value]ir.Value{},
			dispatch: map[[2]*ir.Block]*ir.Block{},
		}
	},
}

// scratchMapMax bounds the size of a map returned to the pool. Go's map
// clear walks the whole bucket table, which never shrinks, so one giant
// merge would tax every later putScratch with an O(high-water) sweep;
// past this size the map is dropped and reallocated small instead.
const scratchMapMax = 1 << 10

// recycleMap clears m for reuse, or replaces it with a fresh small map
// once it outgrew scratchMapMax.
func recycleMap[K comparable, V any](m map[K]V) map[K]V {
	if len(m) > scratchMapMax {
		return make(map[K]V)
	}
	clear(m)
	return m
}

// getScratch obtains a cleared scratch from the pool. The caller (or the
// Result it hands the scratch to) must release it with putScratch, or drop
// it permanently via dropScratchCommitted when the clones stay live.
func getScratch() *mergerScratch {
	s := scratchPool.Get().(*mergerScratch)
	return s
}

// putScratch clears the scratch and returns it to the pool, recycling the
// arena slabs. Only call when every instruction the arena handed out is
// dead (the discarded-merge path).
func putScratch(s *mergerScratch) {
	s.vmap1 = recycleMap(s.vmap1)
	s.vmap2 = recycleMap(s.vmap2)
	s.dispatch = recycleMap(s.dispatch)
	clear(s.cols) // drop Inst references before pooling
	s.cols = s.cols[:0]
	s.arena.Reset()
	scratchPool.Put(s)
}

// dropScratchCommitted releases a committed merge's scratch: the maps and
// column records recycle, but the arena slabs are abandoned because the
// committed body's instructions live in them.
func dropScratchCommitted(s *mergerScratch) {
	s.arena.Release()
	putScratch(s)
}
