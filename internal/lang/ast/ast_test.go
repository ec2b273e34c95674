package ast

import (
	"slices"
	"testing"

	"dfg/internal/lang/token"
)

func bin(op token.Kind, x, y Expr) *BinaryExpr { return &BinaryExpr{Op: op, X: x, Y: y} }
func v(n string) *VarRef                       { return &VarRef{Name: n} }
func i(x int64) *IntLit                        { return &IntLit{Value: x} }

func TestExprStrings(t *testing.T) {
	cases := map[string]Expr{
		"42":                  i(42),
		"true":                &BoolLit{Value: true},
		"false":               &BoolLit{Value: false},
		"x":                   v("x"),
		"(x + 1)":             bin(token.PLUS, v("x"), i(1)),
		"!p":                  &UnaryExpr{Op: token.NOT, X: v("p")},
		"-x":                  &UnaryExpr{Op: token.MINUS, X: v("x")},
		"((a * b) + (c - 1))": bin(token.PLUS, bin(token.STAR, v("a"), v("b")), bin(token.MINUS, v("c"), i(1))),
	}
	for want, e := range cases {
		if got := e.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestStmtStrings(t *testing.T) {
	cases := map[string]Stmt{
		"x := 1;":             &AssignStmt{Name: "x", RHS: i(1)},
		"goto L;":             &GotoStmt{Target: "L"},
		"label L:":            &LabelStmt{Name: "L"},
		"print x;":            &PrintStmt{Arg: v("x")},
		"read x;":             &ReadStmt{Name: "x"},
		"skip;":               &SkipStmt{},
		"while (p) { skip; }": &WhileStmt{Cond: v("p"), Body: []Stmt{&SkipStmt{}}},
	}
	for want, s := range cases {
		if got := s.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	ifs := &IfStmt{Cond: v("p"), Then: []Stmt{&SkipStmt{}}, Else: []Stmt{&SkipStmt{}}}
	if got := ifs.String(); got != "if (p) { skip; } else { skip; }" {
		t.Errorf("if String() = %q", got)
	}
	noElse := &IfStmt{Cond: v("p"), Then: []Stmt{&SkipStmt{}}}
	if got := noElse.String(); got != "if (p) { skip; }" {
		t.Errorf("if-no-else String() = %q", got)
	}
}

func TestProgramStringIndents(t *testing.T) {
	p := &Program{Stmts: []Stmt{
		&WhileStmt{Cond: v("p"), Body: []Stmt{
			&IfStmt{Cond: v("q"), Then: []Stmt{&SkipStmt{}}},
		}},
	}}
	want := "while (p) {\n  if (q) {\n    skip;\n  }\n}\n"
	if got := p.String(); got != want {
		t.Errorf("Program.String() = %q, want %q", got, want)
	}
}

func TestWalkExprOrder(t *testing.T) {
	e := bin(token.PLUS, v("a"), &UnaryExpr{Op: token.MINUS, X: v("b")})
	var seen []string
	WalkExpr(e, func(x Expr) { seen = append(seen, x.String()) })
	want := []string{"(a + -b)", "a", "-b", "b"}
	if len(seen) != len(want) {
		t.Fatalf("walk visited %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("walk[%d] = %q, want %q", i, seen[i], want[i])
		}
	}
	WalkExpr(nil, func(Expr) { t.Error("nil expr must not be visited") })
}

func TestWalkStmtsRecurses(t *testing.T) {
	prog := []Stmt{
		&IfStmt{Cond: v("p"),
			Then: []Stmt{&AssignStmt{Name: "x", RHS: i(1)}},
			Else: []Stmt{&WhileStmt{Cond: v("q"), Body: []Stmt{&SkipStmt{}}}},
		},
	}
	count := 0
	WalkStmts(prog, func(Stmt) { count++ })
	if count != 4 { // if, assign, while, skip
		t.Errorf("visited %d statements, want 4", count)
	}
}

func TestExprVarsDedup(t *testing.T) {
	e := bin(token.PLUS, bin(token.STAR, v("a"), v("b")), v("a"))
	got := ExprVars(e)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("ExprVars = %v", got)
	}
	if ExprVars(i(5)) != nil {
		t.Error("constant has no vars")
	}
}

// TestExprVarsOrderAndAllocs: ExprVars lists each name once, in the order
// of its first reference read left to right through nested and unary
// operands, and allocates at most its result.
func TestExprVarsOrderAndAllocs(t *testing.T) {
	neg := func(x Expr) Expr { return &UnaryExpr{Op: token.MINUS, X: x} }
	cases := []struct {
		e    Expr
		want []string
	}{
		{v("x"), []string{"x"}},
		{bin(token.PLUS, v("c"), bin(token.STAR, v("b"), v("a"))), []string{"c", "b", "a"}},
		{bin(token.PLUS, bin(token.MINUS, neg(v("d")), v("b")), bin(token.STAR, v("d"), neg(v("e")))), []string{"d", "b", "e"}},
		{bin(token.PLUS, bin(token.PLUS, v("y"), v("y")), bin(token.PLUS, v("y"), i(1))), []string{"y"}},
		{neg(bin(token.PLUS, i(2), i(3))), nil},
	}
	for _, c := range cases {
		got := ExprVars(c.e)
		if !slices.Equal(got, c.want) || (got == nil) != (c.want == nil) {
			t.Errorf("ExprVars(%s) = %q, want %q", c.e, got, c.want)
		}
		if n := testing.AllocsPerRun(100, func() { ExprVars(c.e) }); n > 1 {
			t.Errorf("ExprVars(%s) allocates %.0f times, want at most 1", c.e, n)
		}
	}
}

// TestAppendExprVars: appending dedups only among the names this call adds,
// so back-to-back lists in one buffer each keep their own names.
func TestAppendExprVars(t *testing.T) {
	buf := AppendExprVars(nil, bin(token.PLUS, v("a"), v("b")))
	buf = AppendExprVars(buf, bin(token.STAR, v("b"), bin(token.PLUS, v("a"), v("b"))))
	buf = AppendExprVars(buf, i(1))
	if want := []string{"a", "b", "b", "a"}; !slices.Equal(buf, want) {
		t.Errorf("buffer = %q, want %q", buf, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	orig := bin(token.PLUS, v("a"), i(1))
	c := CloneExpr(orig).(*BinaryExpr)
	c.X.(*VarRef).Name = "z"
	if orig.X.(*VarRef).Name != "a" {
		t.Error("clone shares structure with original")
	}
	if CloneExpr(nil) != nil {
		t.Error("clone of nil must be nil")
	}
}

func TestEqualExprMixedTypes(t *testing.T) {
	if EqualExpr(i(1), &BoolLit{Value: true}) {
		t.Error("1 == true")
	}
	if EqualExpr(v("x"), i(1)) {
		t.Error("x == 1")
	}
	if !EqualExpr(
		&UnaryExpr{Op: token.NOT, X: v("p")},
		&UnaryExpr{Op: token.NOT, X: v("p")},
	) {
		t.Error("!p != !p")
	}
	if EqualExpr(
		&UnaryExpr{Op: token.NOT, X: v("p")},
		&UnaryExpr{Op: token.MINUS, X: v("p")},
	) {
		t.Error("!p == -p")
	}
}

func TestProgramVarsOrder(t *testing.T) {
	p := &Program{Stmts: []Stmt{
		&ReadStmt{Name: "n"},
		&AssignStmt{Name: "x", RHS: bin(token.PLUS, v("n"), v("y"))},
		&IfStmt{Cond: v("p"), Then: []Stmt{&PrintStmt{Arg: v("z")}}},
	}}
	got := p.Vars()
	want := []string{"n", "y", "x", "p", "z"}
	if len(got) != len(want) {
		t.Fatalf("Vars = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Vars[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}
