// Package dataflow provides the shared machinery of the paper's analyses:
// the constant-propagation lattice (Kildall's ⊥ / constant / ⊤) and the
// operation counters used by the complexity experiments to measure
// algorithmic work independently of wall-clock noise. The word-parallel
// gen/kill solver behind the bit-vector problems is its subpackage bitvec.
package dataflow

import (
	"dfg/internal/dataflow/bitvec"
	"dfg/internal/interp"
)

// ConstKind discriminates constant-lattice values.
type ConstKind int

// Lattice levels. Bot ⊑ Const ⊑ Top, with distinct constants joining to
// Top.
const (
	Bot   ConstKind = iota // never executed / no information (dead)
	Const                  // known constant value in all executions
	Top                    // may vary between executions
)

// ConstVal is a value of Kildall's constant propagation lattice.
type ConstVal struct {
	Kind ConstKind
	Val  interp.Value // meaningful iff Kind == Const
}

// Bottom, TopVal are the lattice extremes.
var (
	Bottom = ConstVal{Kind: Bot}
	TopVal = ConstVal{Kind: Top}
)

// ConstOf wraps a runtime value as a lattice constant.
func ConstOf(v interp.Value) ConstVal { return ConstVal{Kind: Const, Val: v} }

// Join computes the least upper bound of two lattice values.
func (a ConstVal) Join(b ConstVal) ConstVal {
	switch {
	case a.Kind == Bot:
		return b
	case b.Kind == Bot:
		return a
	case a.Kind == Top || b.Kind == Top:
		return TopVal
	case a.Val == b.Val:
		return a
	default:
		return TopVal
	}
}

// Leq reports a ⊑ b in the lattice order.
func (a ConstVal) Leq(b ConstVal) bool {
	switch {
	case a.Kind == Bot:
		return true
	case b.Kind == Top:
		return true
	case a.Kind == Const && b.Kind == Const:
		return a.Val == b.Val
	default:
		return false
	}
}

// String renders the value: ⊥, ⊤, or the constant.
func (a ConstVal) String() string {
	switch a.Kind {
	case Bot:
		return "⊥"
	case Top:
		return "⊤"
	default:
		return a.Val.String()
	}
}

// IsTrue reports whether the value is the boolean constant true; IsFalse
// symmetric.
func (a ConstVal) IsTrue() bool  { return a.Kind == Const && a.Val.B && a.Val.Bool }
func (a ConstVal) IsFalse() bool { return a.Kind == Const && a.Val.B && !a.Val.Bool }

// Counter tallies the abstract operations of an analysis. It is the bit-vector
// solver's counter, so every analysis reports work in the same units.
type Counter = bitvec.Counter
