package epr

import (
	"testing"

	"dfg/internal/cfg"
	"dfg/internal/dfg"
	"dfg/internal/interp"
	"dfg/internal/lang/ast"
	"dfg/internal/lang/parser"
	"dfg/internal/workload"
)

func build(t *testing.T, src string) *cfg.Graph {
	t.Helper()
	g, err := cfg.Build(parser.MustParse(src))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return g
}

func expr(t *testing.T, s string) ast.Expr {
	t.Helper()
	return parser.MustParse("tmp__ := " + s + ";").Stmts[0].(*ast.AssignStmt).RHS
}

// countComputations counts static occurrences of e in the graph.
func countComputations(g *cfg.Graph, e ast.Expr) int {
	n := 0
	for _, nd := range g.Nodes {
		if nd.Expr == nil {
			continue
		}
		ast.WalkExpr(nd.Expr, func(x ast.Expr) {
			if ast.EqualExpr(x, e) {
				n++
			}
		})
	}
	return n
}

// differential checks output equality and that the optimized program never
// evaluates more operators than the original.
func differential(t *testing.T, orig, opt *cfg.Graph, label string, strictFewer bool) {
	t.Helper()
	for _, inputs := range [][]int64{nil, {1, 2, 3, 4, 5}, {-7, 0, 13, 2, 8}, {0, 0, 0}} {
		a, errA := interp.Run(orig, inputs, 500000)
		b, errB := interp.Run(opt, inputs, 500000)
		if (errA == nil) != (errB == nil) {
			t.Errorf("%s: error mismatch: %v vs %v", label, errA, errB)
			continue
		}
		if errA != nil {
			continue
		}
		if !interp.SameOutput(a, b) {
			t.Errorf("%s: outputs differ on %v: %v vs %v\nopt:\n%s", label, inputs, a.Outputs(), b.Outputs(), opt)
		}
		if b.BinOps > a.BinOps {
			t.Errorf("%s: optimized program evaluates MORE operators (%d > %d) on %v\nopt:\n%s",
				label, b.BinOps, a.BinOps, inputs, opt)
		}
		if strictFewer && b.BinOps >= a.BinOps {
			t.Errorf("%s: expected strictly fewer operator evaluations, got %d vs %d on %v",
				label, b.BinOps, a.BinOps, inputs)
		}
	}
}

const cseSrc = `
	read a; read b;
	z := a + b;
	w := a + b;
	print z; print w;`

func TestCommonSubexpressionElimination(t *testing.T) {
	g := build(t, cseSrc)
	for _, driver := range []Driver{DriverCFG, DriverDFG} {
		opt, st, err := Apply(g, driver)
		if err != nil {
			t.Fatal(err)
		}
		if st.Replaced == 0 {
			t.Fatalf("driver %v: no computation replaced: %v", driver, st)
		}
		if got := countComputations(opt, expr(t, "a + b")); got != 1 {
			t.Errorf("driver %v: %d computations of a+b remain, want 1\n%s", driver, got, opt)
		}
		differential(t, g, opt, "cse", true)
	}
}

const ifRedundancySrc = `
	read x; read p;
	if (p > 0) { u := x + 1; print u; }
	w := x + 1;
	print w;`

func TestPartialRedundancyIf(t *testing.T) {
	// w := x+1 is partially redundant (computed before when p > 0).
	g := build(t, ifRedundancySrc)
	opt, st, err := Apply(g, DriverCFG)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replaced < 2 {
		t.Errorf("expected both computations rewritten, stats %v\n%s", st, opt)
	}
	differential(t, g, opt, "if-redundancy", false)
	// On the p>0 path the original computes x+1 twice, optimized once.
	a, _ := interp.Run(g, []int64{5, 1}, 100000)
	b, _ := interp.Run(opt, []int64{5, 1}, 100000)
	if b.BinOps >= a.BinOps {
		t.Errorf("no dynamic savings on redundant path: %d vs %d", b.BinOps, a.BinOps)
	}
}

// loopInvariantSrc is a do-while (repeat-until) loop: the body executes at
// least once, so the invariant a*b is totally anticipatable at the loop
// entry and can be hoisted out. (In a zero-trip while loop no down-safe
// pre-loop placement exists — the same limitation as Morel–Renvoise; see
// TestWhileLoopNotPessimized.)
const loopInvariantSrc = `
	read a; read b; read n;
	i := 0;
	s := 0;
	label top:
	s := s + (a * b);
	i := i + 1;
	if (i < n) { goto top; }
	print s;`

func TestLoopInvariantRemoval(t *testing.T) {
	g := build(t, loopInvariantSrc)
	for _, driver := range []Driver{DriverCFG, DriverDFG} {
		opt, st, err := Apply(g, driver)
		if err != nil {
			t.Fatal(err)
		}
		if st.Inserted == 0 || st.Replaced == 0 {
			t.Fatalf("driver %v: loop invariant not moved: %v\n%s", driver, st, opt)
		}
		differential(t, g, opt, "loop-invariant", false)
		// With n = 10, a*b is evaluated 10 times before, once after.
		a, err := interp.Run(g, []int64{3, 4, 10}, 100000)
		if err != nil {
			t.Fatal(err)
		}
		b, err := interp.Run(opt, []int64{3, 4, 10}, 100000)
		if err != nil {
			t.Fatal(err)
		}
		if b.BinOps >= a.BinOps {
			t.Errorf("driver %v: no dynamic savings: %d vs %d", driver, b.BinOps, a.BinOps)
		}
	}
}

func TestWhileLoopNotPessimized(t *testing.T) {
	// In a zero-trip while loop the invariant is not down-safe before the
	// loop; EPR must not make the program slower (and cannot hoist).
	g := build(t, `
		read a; read b; read n;
		i := 0; s := 0;
		while (i < n) { s := s + (a * b); i := i + 1; }
		print s;`)
	for _, driver := range []Driver{DriverCFG, DriverDFG} {
		opt, _, err := Apply(g, driver)
		if err != nil {
			t.Fatal(err)
		}
		differential(t, g, opt, "while-no-pessimize", false)
	}
}

func TestNoTransformationWithoutRedundancy(t *testing.T) {
	// A single computation: busy placement would move it, but the
	// profitability guard must leave the program alone.
	g := build(t, "read x; y := x + 1; print y;")
	opt, st, err := Apply(g, DriverCFG)
	if err != nil {
		t.Fatal(err)
	}
	if st.Inserted != 0 || st.Replaced != 0 {
		t.Errorf("unexpected transformation: %v\n%s", st, opt)
	}
}

func TestAnalysisSetsOnIfRedundancy(t *testing.T) {
	g := build(t, ifRedundancySrc)
	a, err := AnalyzeExpr(g, expr(t, "x + 1"), DriverCFG, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Delete) != 2 {
		t.Errorf("Delete = %v, want both computing nodes", a.Delete)
	}
	if len(a.Insert) == 0 {
		t.Errorf("Insert empty; analysis:\n%s", a)
	}
	// The PP merge rule must fire at the join (x+1 anticipatable and
	// partially available at the merge output).
	d := dfg.MustBuild(g)
	pp := ProfitablePlacements(g, d, expr(t, "x + 1"), a)
	if len(pp.MergeEdges) == 0 {
		t.Errorf("PP merge rule found nothing; analysis:\n%s", a)
	}
}

func TestPPMultiedgeRule(t *testing.T) {
	// Two computations of x+1 on the spine: the multiedge from x's def has
	// two partially anticipatable heads, so the tail is a profitable
	// placement.
	g := build(t, `
		read x;
		u := x + 1;
		w := x + 1;
		print u; print w;`)
	e := expr(t, "x + 1")
	a, err := AnalyzeExpr(g, e, DriverDFG, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := dfg.MustBuild(g)
	pp := ProfitablePlacements(g, d, e, a)
	if len(pp.TailEdges) == 0 {
		t.Errorf("multiedge rule found no profitable tail; analysis:\n%s", a)
	}
}

// E12: the §1 staged chain — eliminating a+b exposes the z+1/w+1
// redundancy after copy propagation.
func TestStagedRedundancyChain(t *testing.T) {
	g := build(t, `
		read a; read b;
		z := a + b;
		w := a + b;
		x := z + 1;
		y := w + 1;
		print x; print y;`)

	round1, st1, err := Apply(g, DriverCFG)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Replaced == 0 {
		t.Fatal("round 1 found nothing")
	}
	propagated := CopyPropagate(round1)
	round2, st2, err := Apply(propagated, DriverCFG)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Replaced == 0 {
		t.Errorf("round 2 found no chained redundancy\nafter copyprop:\n%s", propagated)
	}
	differential(t, g, round2, "staged", false)

	// Dynamically: 4 binops originally (two a+b, two +1); the final
	// program needs only 2.
	a, _ := interp.Run(g, []int64{10, 20}, 1000)
	b, _ := interp.Run(round2, []int64{10, 20}, 1000)
	if b.BinOps != a.BinOps-2 {
		t.Errorf("BinOps: orig=%d opt=%d, want a saving of 2\n%s", a.BinOps, b.BinOps, round2)
	}
}

func TestCopyPropagateSafety(t *testing.T) {
	// y := x where x is later redefined: uses of y must NOT be rewritten.
	g := build(t, `
		read x;
		y := x;
		x := x + 1;
		print y; print x;`)
	opt := CopyPropagate(g)
	differential(t, g, opt, "copyprop-unsafe", false)
	// print y must still reference y (x has two defs).
	for _, nd := range opt.Nodes {
		if nd.Kind == cfg.KindPrint && nd.Expr.String() == "x" {
			// there is a legitimate print x; ensure print y survived
		}
	}
	found := false
	for _, nd := range opt.Nodes {
		if nd.Kind == cfg.KindPrint && nd.Expr.String() == "y" {
			found = true
		}
	}
	if !found {
		t.Errorf("unsafe copy propagation rewrote print y:\n%s", opt)
	}
}

func TestCopyPropagateFires(t *testing.T) {
	g := build(t, `
		read x;
		y := x;
		print y + 1;`)
	opt := CopyPropagate(g)
	found := false
	for _, nd := range opt.Nodes {
		if nd.Kind == cfg.KindPrint && nd.Expr.String() == "(x + 1)" {
			found = true
		}
	}
	if !found {
		t.Errorf("copy propagation did not fire:\n%s", opt)
	}
	differential(t, g, opt, "copyprop", false)
}

func TestSemanticPreservationRandom(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		g, err := cfg.Build(workload.Mixed(35, seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, driver := range []Driver{DriverCFG, DriverDFG} {
			opt, _, err := Apply(g, driver)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if err := opt.Validate(); err != nil {
				t.Fatalf("seed %d: invalid graph after EPR: %v", seed, err)
			}
			differential(t, g, opt, "mixed", false)
		}
	}
	for seed := int64(0); seed < 10; seed++ {
		g, err := cfg.Build(workload.GotoMess(7, seed))
		if err != nil {
			t.Fatal(err)
		}
		opt, _, err := Apply(g, DriverCFG)
		if err != nil {
			t.Fatal(err)
		}
		differential(t, g, opt, "goto", false)
	}
}

func TestCFGvsDFGDriversAgree(t *testing.T) {
	// Both drivers must produce semantically equal programs with the same
	// dynamic cost (they share placement logic; only the ANT solver
	// differs).
	for seed := int64(0); seed < 12; seed++ {
		g, err := cfg.Build(workload.Mixed(30, seed))
		if err != nil {
			t.Fatal(err)
		}
		a, _, err := Apply(g, DriverCFG)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := Apply(g, DriverDFG)
		if err != nil {
			t.Fatal(err)
		}
		for _, inputs := range [][]int64{{1, 2, 3}, {9, 8, 7, 6}} {
			ra, errA := interp.Run(a, inputs, 300000)
			rb, errB := interp.Run(b, inputs, 300000)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("seed %d: %v vs %v", seed, errA, errB)
			}
			if errA != nil {
				continue
			}
			if !interp.SameOutput(ra, rb) {
				t.Errorf("seed %d: drivers disagree on output", seed)
			}
			if ra.BinOps != rb.BinOps {
				t.Errorf("seed %d: drivers disagree on cost: %d vs %d", seed, ra.BinOps, rb.BinOps)
			}
		}
	}
}

// TestStatsRoundsAndConvergence pins the fixpoint accounting: a staged
// redundancy needs more than one round (replacing the inner expression is
// what exposes the outer one), and a program this small must converge
// before the round cap.
func TestStatsRoundsAndConvergence(t *testing.T) {
	src := `
		read a; read b; read c;
		x := (a + b) + c;
		y := (a + b) + c;
		print x; print y;`
	for _, driver := range []Driver{DriverCFG, DriverDFG} {
		opt, st, err := Apply(build(t, src), driver)
		if err != nil {
			t.Fatal(err)
		}
		if st.Rounds < 2 {
			t.Errorf("driver %v: staged redundancy resolved in %d round(s), want >=2: %v", driver, st.Rounds, st)
		}
		if !st.Converged {
			t.Errorf("driver %v: tiny program did not converge: %v", driver, st)
		}
		if st.MaxCandidates == 0 || st.SolverWords == 0 {
			t.Errorf("driver %v: solver observability not populated: %v", driver, st)
		}
		if driver == DriverDFG && st.DFGRebuilds == 0 {
			t.Errorf("driver DFG: no initial DFG build recorded: %v", st)
		}
		differential(t, build(t, src), opt, "staged-rounds", true)
	}
}

// TestStatsNonConvergenceSurfaced: a program that genuinely needs more
// transformation rounds than the cap — a depth-12 nested sum computed
// twice, one level removed per round — must say so in Stats instead of
// truncating silently.
func TestStatsNonConvergenceSurfaced(t *testing.T) {
	g, err := cfg.Build(workload.NestedSum(12))
	if err != nil {
		t.Fatal(err)
	}
	opt, st, err := Apply(g, DriverDFG)
	if err != nil {
		t.Fatal(err)
	}
	if st.Converged {
		t.Fatalf("depth-12 nested sum converged within the cap: %v", st)
	}
	if st.Rounds != maxRounds {
		t.Errorf("non-converged run reports %d rounds, want the cap (%d)", st.Rounds, maxRounds)
	}
	if st.DFGPatches == 0 {
		t.Errorf("DriverDFG run with transformations recorded no patches: %v", st)
	}
	differential(t, g, opt, "nested-sum-cap", true)
}
