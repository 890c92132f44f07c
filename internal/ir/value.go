package ir

import "fmt"

// Value is anything that can appear as an instruction operand: parameters,
// instructions, basic blocks (as labels), functions, globals and constants.
type Value interface {
	// Type returns the type of the value.
	Type() *Type
	// Ident returns the reference form of the value as it appears in
	// operand position, e.g. "%x", "@f", "42", "label %bb1".
	Ident() string
}

// Named is implemented by values that carry an assignable name.
type Named interface {
	Value
	Name() string
	SetName(string)
}

// Use records a single use of a value: the using instruction and the operand
// index within it.
type Use struct {
	User  *Inst
	Index int
}

// usable is embedded by definitions that track their uses (parameters,
// instructions, blocks, functions, globals). Constants are interned/shared
// and do not track uses.
type usable struct {
	uses []Use
}

func (u *usable) addUse(use Use) { u.uses = append(u.uses, use) }

func (u *usable) removeUse(use Use) {
	// A (user, index) pair occurs at most once per list, so scanning from
	// the back finds the same entry as from the front — and the newest
	// uses, which a discarded merge attempt removes, sit at the back.
	for i := len(u.uses) - 1; i >= 0; i-- {
		if u.uses[i] == use {
			// Removal preserves the order of the remaining uses: passes
			// (caller rewriting, thunk elision) iterate use lists, and the
			// exploration framework requires identical iteration order no
			// matter how many speculative merges were attempted and
			// discarded in between.
			u.uses = append(u.uses[:i], u.uses[i+1:]...)
			return
		}
	}
}

// Uses returns the active uses of the value. The returned slice is owned by
// the value and must not be mutated.
func (u *usable) Uses() []Use { return u.uses }

// NumUses returns the number of recorded uses.
func (u *usable) NumUses() int { return len(u.uses) }

func (u *usable) presizeUses(s []Use) {
	if u.uses == nil {
		u.uses = s
	}
}

// PresizeUses carves exact-capacity use-list storage for v out of buf and
// returns the remainder. Callers that can count (or estimate) how many uses
// a fresh definition will receive — the wire decoder pre-scans a body's
// operand references — batch every use list of a body into one allocation
// instead of growing each list by doubling. The count may be low: the
// three-index slice caps capacity, so an overflowing append reallocates
// rather than clobbering the next definition's storage. No-op for values
// that do not track uses or already have uses recorded.
func PresizeUses(v Value, n int, buf []Use) []Use {
	if n <= 0 || n > len(buf) {
		return buf
	}
	if t, ok := v.(interface{ presizeUses([]Use) }); ok {
		t.presizeUses(buf[0:0:n])
		return buf[n:]
	}
	return buf
}

// userTracked is the internal interface for definitions with use lists.
type userTracked interface {
	Value
	addUse(Use)
	removeUse(Use)
	Uses() []Use
}

// trackUse registers u as a use of v if v tracks uses.
func trackUse(v Value, u Use) {
	if t, ok := v.(userTracked); ok {
		t.addUse(u)
	}
}

// untrackUse removes u from v's use list if v tracks uses.
func untrackUse(v Value, u Use) {
	if t, ok := v.(userTracked); ok {
		t.removeUse(u)
	}
}

// ReplaceAllUsesWith rewrites every use of old to refer to new instead.
// old and new must have the same type unless new is a constant of a
// bitcast-compatible type.
func ReplaceAllUsesWith(old userTracked, newV Value) {
	uses := append([]Use(nil), old.Uses()...)
	for _, u := range uses {
		u.User.SetOperand(u.Index, newV)
	}
}

// Param is a formal parameter of a function.
type Param struct {
	usable
	name   string
	typ    *Type
	parent *Func
	// Index is the position of the parameter in the function signature.
	Index int
}

// Type returns the parameter type.
func (p *Param) Type() *Type { return p.typ }

// Name returns the parameter name (may be empty before printing).
func (p *Param) Name() string { return p.name }

// SetName sets the parameter name.
func (p *Param) SetName(s string) { p.name = s }

// Parent returns the function owning the parameter.
func (p *Param) Parent() *Func { return p.parent }

// Ident returns the reference form "%name".
func (p *Param) Ident() string {
	if p.name == "" {
		return fmt.Sprintf("%%arg%d", p.Index)
	}
	return "%" + p.name
}
