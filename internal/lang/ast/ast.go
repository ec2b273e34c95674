// Package ast declares the abstract syntax tree of the analysis language.
//
// A program is a sequence of statements. Statements are assignments,
// conditionals, while loops, goto/label pairs, print, read, and skip.
// Expressions are integer arithmetic, comparisons, and boolean connectives
// over variables and literals. The AST is deliberately small: its only job
// is to be lowered into the control flow graph of internal/cfg, on which all
// of the paper's algorithms operate.
package ast

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"dfg/internal/lang/token"
)

// Node is implemented by every AST node.
type Node interface {
	// String renders the node as source text.
	String() string
}

// ---------------------------------------------------------------------------
// Expressions

// Expr is an expression node.
type Expr interface {
	Node
	exprNode()
}

// IntLit is an integer literal.
type IntLit struct {
	Value int64
	Pos   token.Pos
}

// BoolLit is a boolean literal (true/false).
type BoolLit struct {
	Value bool
	Pos   token.Pos
}

// VarRef is a reference to a variable.
type VarRef struct {
	Name string
	Pos  token.Pos
}

// BinaryExpr is a binary operation. Op is one of the operator token kinds.
type BinaryExpr struct {
	Op   token.Kind
	X, Y Expr
	Pos  token.Pos
}

// UnaryExpr is a unary operation: NOT or MINUS.
type UnaryExpr struct {
	Op  token.Kind
	X   Expr
	Pos token.Pos
}

func (*IntLit) exprNode()     {}
func (*BoolLit) exprNode()    {}
func (*VarRef) exprNode()     {}
func (*BinaryExpr) exprNode() {}
func (*UnaryExpr) exprNode()  {}

// String renders the literal.
func (e *IntLit) String() string { return strconv.FormatInt(e.Value, 10) }

// String renders the literal.
func (e *BoolLit) String() string {
	if e.Value {
		return "true"
	}
	return "false"
}

// String renders the variable name.
func (e *VarRef) String() string { return e.Name }

// String renders the expression fully parenthesized to avoid ambiguity.
func (e *BinaryExpr) String() string {
	return string(AppendExprString(nil, e))
}

// String renders the expression.
func (e *UnaryExpr) String() string {
	return string(AppendExprString(nil, e))
}

// AppendExprString appends e's String rendering to dst. It is the single
// renderer behind the expression String methods, usable with a reused
// buffer where per-subexpression Sprintf calls would dominate.
func AppendExprString(dst []byte, e Expr) []byte {
	switch e := e.(type) {
	case *IntLit:
		return strconv.AppendInt(dst, e.Value, 10)
	case *BoolLit:
		if e.Value {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case *VarRef:
		return append(dst, e.Name...)
	case *BinaryExpr:
		dst = append(dst, '(')
		dst = AppendExprString(dst, e.X)
		dst = append(dst, ' ')
		dst = append(dst, e.Op.String()...)
		dst = append(dst, ' ')
		dst = AppendExprString(dst, e.Y)
		return append(dst, ')')
	case *UnaryExpr:
		dst = append(dst, e.Op.String()...)
		return AppendExprString(dst, e.X)
	}
	return dst
}

// ---------------------------------------------------------------------------
// Statements

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// AssignStmt is "x := e;".
type AssignStmt struct {
	Name string
	RHS  Expr
	Pos  token.Pos
}

// IfStmt is "if (cond) { then } else { else }"; Else may be nil.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt // nil when absent
	Pos  token.Pos
}

// WhileStmt is "while (cond) { body }".
type WhileStmt struct {
	Cond Expr
	Body []Stmt
	Pos  token.Pos
}

// GotoStmt is "goto L;".
type GotoStmt struct {
	Target string
	Pos    token.Pos
}

// LabelStmt is "label L:" — a jump target.
type LabelStmt struct {
	Name string
	Pos  token.Pos
}

// PrintStmt is "print e;" — the observable output of a program, used by the
// interpreter to check semantic preservation of optimizations.
type PrintStmt struct {
	Arg Expr
	Pos token.Pos
}

// ReadStmt is "read x;" — assigns the next external input to x. It gives
// programs runtime-unknown values, which is what makes constant propagation
// non-trivial.
type ReadStmt struct {
	Name string
	Pos  token.Pos
}

// SkipStmt is "skip;" — a no-op.
type SkipStmt struct {
	Pos token.Pos
}

func (*AssignStmt) stmtNode() {}
func (*IfStmt) stmtNode()     {}
func (*WhileStmt) stmtNode()  {}
func (*GotoStmt) stmtNode()   {}
func (*LabelStmt) stmtNode()  {}
func (*PrintStmt) stmtNode()  {}
func (*ReadStmt) stmtNode()   {}
func (*SkipStmt) stmtNode()   {}

// String renders the statement as a single line of source.
func (s *AssignStmt) String() string { return fmt.Sprintf("%s := %s;", s.Name, s.RHS) }

// String renders the statement with nested blocks inline.
func (s *IfStmt) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "if (%s) { %s }", s.Cond, joinStmts(s.Then))
	if s.Else != nil {
		fmt.Fprintf(&b, " else { %s }", joinStmts(s.Else))
	}
	return b.String()
}

// String renders the statement with the body inline.
func (s *WhileStmt) String() string {
	return fmt.Sprintf("while (%s) { %s }", s.Cond, joinStmts(s.Body))
}

// String renders the statement.
func (s *GotoStmt) String() string { return fmt.Sprintf("goto %s;", s.Target) }

// String renders the statement.
func (s *LabelStmt) String() string { return fmt.Sprintf("label %s:", s.Name) }

// String renders the statement.
func (s *PrintStmt) String() string { return fmt.Sprintf("print %s;", s.Arg) }

// String renders the statement.
func (s *ReadStmt) String() string { return fmt.Sprintf("read %s;", s.Name) }

// String renders the statement.
func (s *SkipStmt) String() string { return "skip;" }

func joinStmts(ss []Stmt) string {
	parts := make([]string, len(ss))
	for i, s := range ss {
		parts[i] = s.String()
	}
	return strings.Join(parts, " ")
}

// Program is a whole source file.
type Program struct {
	Stmts []Stmt
}

// String renders the program, one statement per line, with indentation.
func (p *Program) String() string {
	var b strings.Builder
	writeBlock(&b, p.Stmts, 0)
	return b.String()
}

func writeBlock(b *strings.Builder, ss []Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, s := range ss {
		switch s := s.(type) {
		case *IfStmt:
			fmt.Fprintf(b, "%sif (%s) {\n", ind, s.Cond)
			writeBlock(b, s.Then, depth+1)
			if s.Else != nil {
				fmt.Fprintf(b, "%s} else {\n", ind)
				writeBlock(b, s.Else, depth+1)
			}
			fmt.Fprintf(b, "%s}\n", ind)
		case *WhileStmt:
			fmt.Fprintf(b, "%swhile (%s) {\n", ind, s.Cond)
			writeBlock(b, s.Body, depth+1)
			fmt.Fprintf(b, "%s}\n", ind)
		default:
			fmt.Fprintf(b, "%s%s\n", ind, s)
		}
	}
}

// ---------------------------------------------------------------------------
// Traversal and analysis helpers

// WalkExpr calls fn on e and every sub-expression, in pre-order.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch e := e.(type) {
	case *BinaryExpr:
		WalkExpr(e.X, fn)
		WalkExpr(e.Y, fn)
	case *UnaryExpr:
		WalkExpr(e.X, fn)
	}
}

// WalkStmts calls fn on every statement in ss, recursing into nested blocks,
// in pre-order.
func WalkStmts(ss []Stmt, fn func(Stmt)) {
	for _, s := range ss {
		fn(s)
		switch s := s.(type) {
		case *IfStmt:
			WalkStmts(s.Then, fn)
			WalkStmts(s.Else, fn)
		case *WhileStmt:
			WalkStmts(s.Body, fn)
		}
	}
}

// HasVar reports whether e references any variable, without the
// allocations of ExprVars.
func HasVar(e Expr) bool {
	switch e := e.(type) {
	case *VarRef:
		return true
	case *BinaryExpr:
		return HasVar(e.X) || HasVar(e.Y)
	case *UnaryExpr:
		return HasVar(e.X)
	}
	return false
}

// ExprVars returns the distinct variable names referenced by e, in first-use
// order, or nil if it references none. The result is its one allocation:
// it is sized by the number of references, and duplicates are dropped by a
// linear scan of it, which beats a set on the few names an expression has.
func ExprVars(e Expr) []string {
	n := countVarRefs(e)
	if n == 0 {
		return nil
	}
	return appendVars(make([]string, 0, n), 0, e)
}

// AppendExprVars appends to dst the distinct variable names referenced by e,
// in first-use order. Only the names it appends are deduplicated, so one
// buffer can hold the variable lists of many expressions back to back.
func AppendExprVars(dst []string, e Expr) []string {
	return appendVars(dst, len(dst), e)
}

// countVarRefs counts e's variable references, repeats included.
func countVarRefs(e Expr) int {
	switch e := e.(type) {
	case *VarRef:
		return 1
	case *BinaryExpr:
		return countVarRefs(e.X) + countVarRefs(e.Y)
	case *UnaryExpr:
		return countVarRefs(e.X)
	}
	return 0
}

// appendVars appends the names e references that are not yet in
// names[from:], left to right.
func appendVars(names []string, from int, e Expr) []string {
	switch e := e.(type) {
	case *VarRef:
		if !slices.Contains(names[from:], e.Name) {
			names = append(names, e.Name)
		}
	case *BinaryExpr:
		return appendVars(appendVars(names, from, e.X), from, e.Y)
	case *UnaryExpr:
		return appendVars(names, from, e.X)
	}
	return names
}

// Vars returns the distinct variable names defined or used anywhere in the
// program, in first-occurrence order.
func (p *Program) Vars() []string {
	var names []string
	seen := map[string]bool{}
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	WalkStmts(p.Stmts, func(s Stmt) {
		switch s := s.(type) {
		case *AssignStmt:
			for _, v := range ExprVars(s.RHS) {
				add(v)
			}
			add(s.Name)
		case *ReadStmt:
			add(s.Name)
		case *IfStmt:
			for _, v := range ExprVars(s.Cond) {
				add(v)
			}
		case *WhileStmt:
			for _, v := range ExprVars(s.Cond) {
				add(v)
			}
		case *PrintStmt:
			for _, v := range ExprVars(s.Arg) {
				add(v)
			}
		}
	})
	return names
}

// CloneExpr returns a deep copy of e.
func CloneExpr(e Expr) Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *IntLit:
		c := *e
		return &c
	case *BoolLit:
		c := *e
		return &c
	case *VarRef:
		c := *e
		return &c
	case *BinaryExpr:
		return &BinaryExpr{Op: e.Op, X: CloneExpr(e.X), Y: CloneExpr(e.Y), Pos: e.Pos}
	case *UnaryExpr:
		return &UnaryExpr{Op: e.Op, X: CloneExpr(e.X), Pos: e.Pos}
	}
	panic(fmt.Sprintf("ast: unknown expression type %T", e))
}

// HashExpr returns a structural hash consistent with EqualExpr: equal
// expressions hash equally. It serves as an allocation-free prefilter key
// where rendering with String would dominate (String is also not
// injective, so either key needs an EqualExpr confirmation).
func HashExpr(e Expr) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	var walk func(Expr)
	walk = func(e Expr) {
		switch e := e.(type) {
		case *IntLit:
			mix(1)
			mix(uint64(e.Value))
		case *BoolLit:
			mix(2)
			if e.Value {
				mix(1)
			} else {
				mix(0)
			}
		case *VarRef:
			mix(3)
			for i := 0; i < len(e.Name); i++ {
				mix(uint64(e.Name[i]))
			}
		case *BinaryExpr:
			mix(4)
			mix(uint64(e.Op))
			walk(e.X)
			walk(e.Y)
		case *UnaryExpr:
			mix(5)
			mix(uint64(e.Op))
			walk(e.X)
		}
	}
	walk(e)
	return h
}

// EqualExpr reports structural equality of two expressions. It is the
// equality used for value numbering of lexically identical expressions in
// redundancy elimination.
func EqualExpr(a, b Expr) bool {
	switch a := a.(type) {
	case *IntLit:
		b, ok := b.(*IntLit)
		return ok && a.Value == b.Value
	case *BoolLit:
		b, ok := b.(*BoolLit)
		return ok && a.Value == b.Value
	case *VarRef:
		b, ok := b.(*VarRef)
		return ok && a.Name == b.Name
	case *BinaryExpr:
		b, ok := b.(*BinaryExpr)
		return ok && a.Op == b.Op && EqualExpr(a.X, b.X) && EqualExpr(a.Y, b.Y)
	case *UnaryExpr:
		b, ok := b.(*UnaryExpr)
		return ok && a.Op == b.Op && EqualExpr(a.X, b.X)
	}
	return a == nil && b == nil
}
