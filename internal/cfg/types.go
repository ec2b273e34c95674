package cfg

import (
	"dfg/internal/bitset"
	"dfg/internal/dataflow/bitvec"
	"dfg/internal/lang/ast"
	"dfg/internal/lang/token"
)

// Static value typing. The language is dynamically typed: a variable holds
// whatever its last definition produced, and operators trap at runtime when
// an operand has the wrong type (! applied to an integer, + applied to a
// boolean). Any transformation that deletes or hoists an evaluation must
// therefore know whether the evaluation could trap — divisions can (by
// zero), and so can every operator whose operand types are not statically
// guaranteed. VarTypes computes a conservative whole-program type for each
// variable; TypeSafe then judges a single expression against those types.

// ValueType is a conservative static type for a variable: the join of the
// types of every definition that could reach any use.
type ValueType int8

// Value types, ordered as a lattice: TypeNone (no definition seen) below
// TypeInt and TypeBool, TypeMixed above both.
const (
	TypeNone  ValueType = iota // never defined: reads as integer 0
	TypeInt                    // every definition produces an integer
	TypeBool                   // every definition produces a boolean
	TypeMixed                  // definitions of both types exist
)

// String names the type.
func (t ValueType) String() string {
	switch t {
	case TypeInt:
		return "int"
	case TypeBool:
		return "bool"
	case TypeMixed:
		return "mixed"
	}
	return "none"
}

func joinType(a, b ValueType) ValueType {
	switch {
	case a == b || b == TypeNone:
		return a
	case a == TypeNone:
		return b
	default:
		return TypeMixed
	}
}

// resultType is the type an expression produces when it evaluates without
// trapping. Operators fully determine their result type; only variable
// references (copies) depend on the environment, so the VarTypes fixpoint
// converges quickly.
func resultType(e ast.Expr, vars map[string]ValueType) ValueType {
	switch e := e.(type) {
	case *ast.IntLit:
		return TypeInt
	case *ast.BoolLit:
		return TypeBool
	case *ast.VarRef:
		return vars[e.Name] // TypeNone until a definition is seen
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			return TypeBool
		}
		return TypeInt
	case *ast.BinaryExpr:
		switch e.Op {
		case token.PLUS, token.MINUS, token.STAR, token.SLASH, token.PERCENT:
			return TypeInt
		}
		return TypeBool
	}
	return TypeMixed
}

// VarTypes computes the conservative type of every variable in g: the join
// over all of the variable's definitions (reads produce integers,
// assignments the result type of their right-hand side), widened by TypeInt
// for every variable that is not definitely assigned before some use. The
// widening is what keeps the flow-insensitive join sound: an uninitialized
// variable reads as integer 0, so a variable whose definitions are all
// boolean still holds an integer at any use some path reaches before the
// first definition — without the widening, TypeSafe would prove boolean
// operators on it trap-free at exactly the sites where they trap. The
// fixpoint only matters for copy chains; everything else resolves in one
// pass. Dead nodes are included, which can only widen a type — safe for
// every consumer.
func VarTypes(g *Graph) map[string]ValueType {
	types := map[string]ValueType{}
	for changed := true; changed; {
		changed = false
		for _, nd := range g.Nodes {
			var t ValueType
			switch nd.Kind {
			case KindRead:
				t = TypeInt
			case KindAssign:
				t = resultType(nd.Expr, types)
			default:
				continue
			}
			if j := joinType(types[nd.Var], t); j != types[nd.Var] {
				types[nd.Var] = j
				changed = true
			}
		}
	}
	for _, v := range maybeUndefAtUse(g) {
		types[v] = joinType(types[v], TypeInt)
	}
	return types
}

// maybeUndefAtUse returns the variables having at least one reachable use
// that is not definitely assigned: some live path from start reaches the
// use without passing a definition (assignment or read) of the variable,
// where it evaluates as integer 0 rather than anything its definitions
// produce. Solved as a forward must-analysis over live edges from start —
// a variable is definitely assigned at a node only when every path from
// start to the node defines it, so merges intersect. Unreachable nodes
// never execute: the solve skips them, so their edges read ⊤ at a merge.
func maybeUndefAtUse(g *Graph) []string {
	idx := g.VarIndex()
	gen := bitset.NewMatrix(g.NumNodes(), len(g.VarNames))
	for _, nd := range g.Nodes {
		if i, ok := idx[g.Defs(nd.ID)]; ok {
			gen.SetBit(int(nd.ID), i)
		}
	}
	sol := bitvec.Solve[NodeID, EdgeID](g, bitvec.Problem{
		Forward: true, Must: true, Bits: len(g.VarNames), Gen: gen, Entry: int(g.Start),
	})

	var vars []string
	seen := map[string]bool{}
	assigned := make([]uint64, gen.Stride)
	for _, nd := range g.Nodes {
		if !sol.Reached(nd.ID) {
			continue
		}
		uses := g.Uses(nd.ID)
		if len(uses) == 0 {
			continue
		}
		sol.In(nd.ID, assigned)
		for _, v := range uses {
			if seen[v] {
				continue
			}
			if i, ok := idx[v]; !ok || !bitset.WordsBit(assigned, i) {
				seen[v] = true
				vars = append(vars, v)
			}
		}
	}
	return vars
}

// TypeSafe reports whether evaluating e can be statically guaranteed not to
// trap on a TYPE error, given the variable types from VarTypes. It says
// nothing about division by zero — callers combine it with their divisor
// checks. A bare variable reference is always safe (copying any value cannot
// trap); each operator demands the operand types the interpreter enforces.
func TypeSafe(e ast.Expr, vars map[string]ValueType) bool {
	_, ok := typeCheck(e, vars)
	return ok
}

// typeCheck returns e's result type and whether evaluation is provably free
// of type errors. A variable that was never defined reads as integer 0.
func typeCheck(e ast.Expr, vars map[string]ValueType) (ValueType, bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		return TypeInt, true
	case *ast.BoolLit:
		return TypeBool, true
	case *ast.VarRef:
		t := vars[e.Name]
		if t == TypeNone {
			t = TypeInt
		}
		return t, true
	case *ast.UnaryExpr:
		t, ok := typeCheck(e.X, vars)
		if e.Op == token.NOT {
			return TypeBool, ok && t == TypeBool
		}
		return TypeInt, ok && t == TypeInt
	case *ast.BinaryExpr:
		xt, xok := typeCheck(e.X, vars)
		yt, yok := typeCheck(e.Y, vars)
		ok := xok && yok
		switch e.Op {
		case token.PLUS, token.MINUS, token.STAR, token.SLASH, token.PERCENT:
			return TypeInt, ok && xt == TypeInt && yt == TypeInt
		case token.LT, token.LE, token.GT, token.GE:
			return TypeBool, ok && xt == TypeInt && yt == TypeInt
		case token.AND, token.OR:
			return TypeBool, ok && xt == TypeBool && yt == TypeBool
		case token.EQ, token.NEQ:
			return TypeBool, ok && xt == yt && xt != TypeMixed
		}
	}
	return TypeMixed, false
}
