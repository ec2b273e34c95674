package cfg

import (
	"testing"

	"dfg/internal/lang/ast"
	"dfg/internal/lang/parser"
)

func typesOf(t *testing.T, src string) map[string]ValueType {
	t.Helper()
	g, err := Build(parser.MustParse(src))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return VarTypes(g)
}

func rhs(t *testing.T, src string) ast.Expr {
	t.Helper()
	return parser.MustParse("tmp__ := " + src + ";").Stmts[0].(*ast.AssignStmt).RHS
}

func TestVarTypesBasics(t *testing.T) {
	types := typesOf(t, `
		read a;
		b := a < 0;
		c := b;
		d := 1;
		d := 1 < 2;
		e := a + d;`)
	want := map[string]ValueType{
		"a": TypeInt,   // read
		"b": TypeBool,  // comparison
		"c": TypeBool,  // copy of a boolean
		"d": TypeMixed, // int and bool definitions
		"e": TypeInt,   // arithmetic result
	}
	for v, w := range want {
		if got := types[v]; got != w {
			t.Errorf("type of %s = %v, want %v", v, got, w)
		}
	}
	if got := types["never_defined"]; got != TypeNone {
		t.Errorf("undefined variable typed %v, want none", got)
	}
}

func TestVarTypesCopyChainFixpoint(t *testing.T) {
	// The copy chain appears before its source's definition in node order,
	// but control flow (the gotos) executes the definition first on every
	// path; the fixpoint must still propagate bool through the chain, and
	// the definite-assignment widening must not fire.
	types := typesOf(t, `
		read p;
		goto Ldef;
		label Luse: x := y; z := x; goto Lend;
		label Ldef: y := p == 0; goto Luse;
		label Lend: print z;`)
	if types["y"] != TypeBool {
		t.Fatalf("y typed %v, want bool", types["y"])
	}
	for _, v := range []string{"x", "z"} {
		if types[v] != TypeBool {
			t.Errorf("%s typed %v, want bool (through copy chain)", v, types[v])
		}
	}
}

func TestVarTypesUseBeforeDef(t *testing.T) {
	// An uninitialized variable reads as integer 0, so a use some path
	// reaches before every definition must fold TypeInt into the variable's
	// type: b's only definition is boolean, but A := (b && true) evaluates
	// b while it still holds 0 — typing b TypeBool would prove the trapping
	// && safe. p's uses before definition widen by TypeInt too, which its
	// definitionless TypeNone absorbs.
	types := typesOf(t, "A := (b && true); b := (p < 0);")
	if types["b"] != TypeMixed {
		t.Errorf("b typed %v, want mixed (boolean def after use)", types["b"])
	}
	if TypeSafe(rhs(t, "b && true"), types) {
		t.Error("b && true proved safe despite b reading 0 before its definition")
	}
	if types["p"] != TypeInt {
		t.Errorf("p typed %v, want int", types["p"])
	}

	// A definition on only one path does not definitely assign.
	types = typesOf(t, "read p; if (p < 0) { b := true; } u := (b && b); print 1;")
	if types["b"] != TypeMixed {
		t.Errorf("b typed %v, want mixed (defined on one branch only)", types["b"])
	}

	// A definition dominating every use keeps the precise type.
	types = typesOf(t, "read p; b := p < 0; u := (b && b); print 1;")
	if types["b"] != TypeBool {
		t.Errorf("b typed %v, want bool (definitely assigned before use)", types["b"])
	}

	// A definition inside a loop body does not definitely assign the uses
	// after the loop: zero iterations leave the variable holding 0.
	types = typesOf(t, "read p; i := 0; while (i < p) { b := p < 3; i := i + 1; } u := (b && b); print 1;")
	if types["b"] != TypeMixed {
		t.Errorf("b typed %v, want mixed (loop body may not execute)", types["b"])
	}
}

func TestTypeSafe(t *testing.T) {
	types := typesOf(t, "read a; read b; c := a < b; d := 1 < 2; d := 0;")
	cases := []struct {
		expr string
		want bool
	}{
		{"a + b", true},  // int + int
		{"a / b", true},  // type-safe; division-by-zero is mayTrap's job
		{"c + 1", false}, // bool + int traps
		{"!c", true},     // ! on bool
		{"!a", false},    // ! on int traps
		{"-a", true},     // unary minus on int
		{"-c", false},    // unary minus on bool traps
		{"c && (a < b)", true},
		{"c && a", false}, // && on int traps
		{"a == b", true},  // int == int
		{"c == (a < b)", true},
		{"c == a", false},          // bool == int traps
		{"d + 1", false},           // mixed-typed variable in arithmetic
		{"d == d", false},          // mixed == mixed cannot be proved safe
		{"undefinedvar + 1", true}, // undefined reads as int 0
		{"(!0 * 0)", false},        // the FuzzTransform find
	}
	for _, tc := range cases {
		if got := TypeSafe(rhs(t, tc.expr), types); got != tc.want {
			t.Errorf("TypeSafe(%s) = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

func TestValueTypeString(t *testing.T) {
	for ty, want := range map[ValueType]string{
		TypeNone: "none", TypeInt: "int", TypeBool: "bool", TypeMixed: "mixed",
	} {
		if got := ty.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ty, got, want)
		}
	}
}
