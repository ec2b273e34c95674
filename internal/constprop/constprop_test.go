package constprop

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"dfg/internal/cfg"
	"dfg/internal/dataflow"
	"dfg/internal/defuse"
	"dfg/internal/dfg"
	"dfg/internal/interp"
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

// runAll runs all three algorithms on g.
func runAll(t *testing.T, g *cfg.Graph) (cfgRes, dfgRes, duRes *Result) {
	t.Helper()
	d, err := dfg.Build(g)
	if err != nil {
		t.Fatalf("dfg: %v", err)
	}
	return CFG(g), DFG(d), DefUse(g, defuse.Compute(g))
}

// valAt returns the lattice value for v's use at the print node printing
// expression exprStr (or any node whose label matches a predicate).
func useVal(t *testing.T, g *cfg.Graph, r *Result, kind cfg.NodeKind, exprStr, v string) dataflow.ConstVal {
	t.Helper()
	for _, nd := range g.Nodes {
		if nd.Kind == kind && nd.Expr != nil && nd.Expr.String() == exprStr {
			if val, ok := r.UseVals[UseKey{nd.ID, v}]; ok {
				return val
			}
			t.Fatalf("no use of %s at %s node", v, exprStr)
		}
	}
	t.Fatalf("no %v node with expr %q", kind, exprStr)
	return dataflow.ConstVal{}
}

const fig3a = `
	read p;
	if (p > 0) { z := 1; x := z + 2; } else { z := 2; x := z + 1; }
	y := x;
	print y;`

func TestFig3aAllPathsConstants(t *testing.T) {
	// x is 3 on both paths: all algorithms find y's RHS constant.
	g := build(t, fig3a)
	cfgR, dfgR, duR := runAll(t, g)
	for name, r := range map[string]*Result{"cfg": cfgR, "dfg": dfgR, "defuse": duR} {
		v := useVal(t, g, r, cfg.KindAssign, "x", "x")
		if v.Kind != dataflow.Const || v.Val.I != 3 {
			t.Errorf("%s: x at y:=x = %s, want 3", name, v)
		}
	}
}

const fig3b = `
	p := 1;
	if (p == 1) { x := 1; } else { x := 2; }
	y := x;
	print y;`

func TestFig3bPossiblePathsConstants(t *testing.T) {
	// p is constant: the false branch is dead. CFG and DFG find x = 1 at
	// y := x; the def-use algorithm cannot (both defs reach the use).
	g := build(t, fig3b)
	cfgR, dfgR, duR := runAll(t, g)

	for name, r := range map[string]*Result{"cfg": cfgR, "dfg": dfgR} {
		v := useVal(t, g, r, cfg.KindAssign, "x", "x")
		if v.Kind != dataflow.Const || v.Val.I != 1 {
			t.Errorf("%s: x at y:=x = %s, want possible-paths constant 1", name, v)
		}
	}
	v := useVal(t, g, duR, cfg.KindAssign, "x", "x")
	if v.Kind == dataflow.Const {
		t.Errorf("defuse: x at y:=x = %s; the def-use algorithm must NOT find possible-paths constants", v)
	}
}

func TestFig1ChainedConstant(t *testing.T) {
	// The running example's precision story: def-use finds x constant but
	// not the final y; CFG/DFG find both (dead false side).
	g := build(t, `
		x := 1;
		if (x == 1) { y := 2; } else { y := 7; }
		y := y + 1;
		print y;`)
	cfgR, dfgR, duR := runAll(t, g)

	for name, r := range map[string]*Result{"cfg": cfgR, "dfg": dfgR} {
		v := useVal(t, g, r, cfg.KindPrint, "y", "y")
		if v.Kind != dataflow.Const || v.Val.I != 3 {
			t.Errorf("%s: y at print = %s, want 3", name, v)
		}
	}
	v := useVal(t, g, duR, cfg.KindPrint, "y", "y")
	if v.Kind == dataflow.Const {
		t.Errorf("defuse: y at print = %s, want non-constant (both defs reach)", v)
	}
	// But def-use does find x at the switch.
	vx := useVal(t, g, duR, cfg.KindSwitch, "(x == 1)", "x")
	if vx.Kind != dataflow.Const || vx.Val.I != 1 {
		t.Errorf("defuse: x at switch = %s, want 1", vx)
	}
}

func TestDeadCodeIsBottom(t *testing.T) {
	g := build(t, `
		p := 1;
		if (p == 2) { x := 5; print x; } else { skip; }
		print p;`)
	cfgR, dfgR, _ := runAll(t, g)
	for name, r := range map[string]*Result{"cfg": cfgR, "dfg": dfgR} {
		v := useVal(t, g, r, cfg.KindPrint, "x", "x")
		if v.Kind != dataflow.Bot {
			t.Errorf("%s: x in dead branch = %s, want ⊥", name, v)
		}
	}
}

func TestLoopConstants(t *testing.T) {
	// x stays 7 through a loop that doesn't change it; i varies.
	g := build(t, `
		x := 7;
		i := 0;
		while (i < 10) { i := i + x; }
		print x; print i;`)
	cfgR, dfgR, _ := runAll(t, g)
	for name, r := range map[string]*Result{"cfg": cfgR, "dfg": dfgR} {
		vx := useVal(t, g, r, cfg.KindPrint, "x", "x")
		if vx.Kind != dataflow.Const || vx.Val.I != 7 {
			t.Errorf("%s: x after loop = %s, want 7", name, vx)
		}
		vi := useVal(t, g, r, cfg.KindPrint, "i", "i")
		if vi.Kind != dataflow.Top {
			t.Errorf("%s: i after loop = %s, want ⊤", name, vi)
		}
	}
}

// agreement checks the paper's §4 claim that the DFG algorithm is as
// precise as the CFG algorithm: identical use values everywhere.
func agreement(t *testing.T, g *cfg.Graph, label string) {
	t.Helper()
	d, err := dfg.Build(g)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	a := CFG(g)
	if err := Agree(a, DFG(d)); err != nil {
		t.Errorf("%s: CFG vs DFG: %v\ncfg:\n%s", label, err, g)
	}
	// Def-use must never claim a constant the CFG algorithm disagrees with
	// (it may only be less precise).
	du := DefUse(g, defuse.Compute(g))
	for k, vd := range du.UseVals {
		va := a.UseVals[k]
		if vd.Kind == dataflow.Const && va.Kind == dataflow.Const && va != vd {
			t.Errorf("%s: use %v: defuse=%s but cfg=%s (unsound)", label, k, vd, va)
		}
	}
}

func TestCFGvsDFGAgreementExamples(t *testing.T) {
	for _, src := range []string{
		fig3a, fig3b,
		"x := 1; y := x + 1; print y;",
		"read p; if (p > 0) { x := 1; } else { x := 2; } print x;",
		"i := 0; while (i < 10) { i := i + 1; } print i;",
		"p := true; if (p) { x := 1; } else { x := 2; } y := x; print y;",
	} {
		agreement(t, build(t, src), src)
	}
}

func TestCFGvsDFGAgreementRandom(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		g, err := cfg.Build(workload.Mixed(35, seed))
		if err != nil {
			t.Fatal(err)
		}
		agreement(t, g, "mixed")
	}
	for seed := int64(0); seed < 12; seed++ {
		g, err := cfg.Build(workload.GotoMess(8, seed))
		if err != nil {
			t.Fatal(err)
		}
		agreement(t, g, "goto")
	}
}

// differential runs g and its optimized version on several inputs and
// compares outputs.
func differential(t *testing.T, g *cfg.Graph, opt *cfg.Graph, label string) {
	t.Helper()
	inputSets := [][]int64{
		nil,
		{1, 2, 3, 4, 5, 6, 7, 8},
		{-3, 0, 9, -1, 5, 2, 8, 100},
		{0, 0, 0, 0},
	}
	for _, inputs := range inputSets {
		want, errW := interp.Run(g, inputs, 500000)
		got, errG := interp.Run(opt, inputs, 500000)
		if (errW == nil) != (errG == nil) {
			t.Errorf("%s: error mismatch: %v vs %v", label, errW, errG)
			continue
		}
		if errW != nil {
			continue
		}
		if !interp.SameOutput(want, got) {
			t.Errorf("%s: outputs differ on %v:\n  orig: %v\n  opt:  %v\ncfg after:\n%s",
				label, inputs, want.Outputs(), got.Outputs(), opt)
		}
	}
}

func TestApplySemanticPreservationExamples(t *testing.T) {
	for _, src := range []string{
		fig3a, fig3b,
		"x := 1; y := x + 1; print y;",
		"p := true; if (p) { x := 1; } else { x := 2; } y := x; print y;",
		"read p; if (p > 0) { x := 1; } else { x := 2; } print x;",
		"x := 7; i := 0; while (i < 10) { i := i + x; } print x; print i;",
		"p := 1; if (p == 2) { x := 5; print x; } print p;",
	} {
		g := build(t, src)
		opt, err := Apply(CFG(g))
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		differential(t, g, opt, src)
	}
}

func TestApplySemanticPreservationRandom(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		g, err := cfg.Build(workload.Mixed(40, seed))
		if err != nil {
			t.Fatal(err)
		}
		for name, res := range map[string]*Result{"cfg": CFG(g), "dfg": DFG(dfg.MustBuild(g))} {
			opt, err := Apply(res)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			differential(t, g, opt, name)
		}
	}
	for seed := int64(0); seed < 10; seed++ {
		g, err := cfg.Build(workload.GotoMess(8, seed))
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Apply(CFG(g))
		if err != nil {
			t.Fatal(err)
		}
		differential(t, g, opt, "goto")
	}
}

func TestApplyFoldsBranch(t *testing.T) {
	g := build(t, fig3b)
	opt, err := Apply(CFG(g))
	if err != nil {
		t.Fatal(err)
	}
	// After optimization no switch remains and print prints a literal.
	for _, nd := range opt.Nodes {
		if nd.Kind == cfg.KindSwitch {
			t.Error("constant branch not folded")
		}
		if nd.Kind == cfg.KindPrint {
			if nd.Expr.String() != "1" {
				t.Errorf("print arg = %s, want folded literal 1", nd.Expr)
			}
		}
	}
	// Dead assignments (x := 2 and the untaken branch) removed.
	for _, nd := range opt.Nodes {
		if nd.Kind == cfg.KindAssign && nd.Expr != nil && nd.Expr.String() == "2" {
			t.Error("dead assignment x := 2 survived")
		}
	}
}

func TestApplyKeepsReads(t *testing.T) {
	g := build(t, "read a; read b; print b;")
	opt, err := Apply(CFG(g))
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	for _, nd := range opt.Nodes {
		if nd.Kind == cfg.KindRead {
			reads++
		}
	}
	if reads != 2 {
		t.Errorf("reads = %d, want 2 (input consumption is observable)", reads)
	}
}

func TestApplyKeepsTrappingDeadCode(t *testing.T) {
	// x is dead but 1/a may trap: must not be removed.
	g := build(t, "read a; x := 1 / a; print a;")
	opt, err := Apply(CFG(g))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, nd := range opt.Nodes {
		if nd.Kind == cfg.KindAssign && nd.Var == "x" {
			found = true
		}
	}
	if !found {
		t.Error("potentially trapping dead assignment was removed")
	}
	differential(t, g, opt, "trap")
}

func TestCostAccounting(t *testing.T) {
	g := build(t, fig3a)
	cfgR, dfgR, _ := runAll(t, g)
	if cfgR.Cost.Total() == 0 || dfgR.Cost.Total() == 0 {
		t.Errorf("costs not recorded: cfg=%v dfg=%v", cfgR.Cost, dfgR.Cost)
	}
}

// TestDFGCostDeterministic: both algorithms' operation counts are a
// function of the program, so a count-based comparison (E4) reads the same
// figure on every run.
func TestDFGCostDeterministic(t *testing.T) {
	src, err := os.ReadFile("../../examples/programs/constprop.dfg")
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]*cfg.Graph{"constprop.dfg": build(t, string(src))}
	for seed := int64(1); seed <= 8; seed++ {
		g, err := cfg.Build(workload.Mixed(15, seed))
		if err != nil {
			t.Fatal(err)
		}
		progs[fmt.Sprintf("Mixed(15,%d)", seed)] = g
	}
	for name, g := range progs {
		for _, opts := range []Options{{}, {Predicates: true}} {
			first := DFGOpt(dfg.MustBuild(g), opts).Cost
			firstCFG := CFGOpt(g, opts).Cost
			for run := 1; run < 20; run++ {
				if got := DFGOpt(dfg.MustBuild(g), opts).Cost; got != first {
					t.Fatalf("%s %+v: DFG run %d cost %+v, run 0 cost %+v", name, opts, run, got, first)
				}
				if got := CFGOpt(g, opts).Cost; got != firstCFG {
					t.Fatalf("%s %+v: CFG run %d cost %+v, run 0 cost %+v", name, opts, run, got, firstCFG)
				}
			}
		}
	}
}

// The E4 shape in miniature: as V grows with structure fixed, the CFG
// algorithm's work grows much faster than the DFG algorithm's.
func TestCostScalingWithVariables(t *testing.T) {
	cost := func(v int) (int, int) {
		g, err := cfg.Build(workload.WideSwitch(20, v, 1))
		if err != nil {
			t.Fatal(err)
		}
		cfgR := CFG(g)
		dfgR := DFG(dfg.MustBuild(g))
		return cfgR.Cost.Total(), dfgR.Cost.Total()
	}
	c8, d8 := cost(8)
	c64, d64 := cost(64)
	ratio8 := float64(c8) / float64(d8)
	ratio64 := float64(c64) / float64(d64)
	if ratio64 <= ratio8 {
		t.Errorf("CFG/DFG cost ratio should grow with V: V=8 → %.2f, V=64 → %.2f (cfg %d/%d, dfg %d/%d)",
			ratio8, ratio64, c8, c64, d8, d64)
	}
}

// TestAgree: Agree catches a use that only one result has (either side), a
// differing value, and names the least differing use whatever the map order.
func TestAgree(t *testing.T) {
	c := func(i int64) dataflow.ConstVal { return dataflow.ConstOf(interp.IntVal(i)) }
	res := func(vals map[UseKey]dataflow.ConstVal) *Result { return &Result{UseVals: vals} }
	base := map[UseKey]dataflow.ConstVal{{1, "x"}: c(1), {2, "y"}: dataflow.TopVal, {3, "z"}: c(3)}
	if err := Agree(res(base), res(base)); err != nil {
		t.Errorf("identical results: %v", err)
	}
	extra := map[UseKey]dataflow.ConstVal{{1, "x"}: c(1), {2, "y"}: dataflow.TopVal, {3, "z"}: c(3), {4, "w"}: c(4)}
	for _, pair := range [][2]*Result{{res(base), res(extra)}, {res(extra), res(base)}} {
		if err := Agree(pair[0], pair[1]); err == nil || !strings.Contains(err.Error(), "use counts differ") {
			t.Errorf("a use only one side has: %v", err)
		}
	}
	moved := map[UseKey]dataflow.ConstVal{{1, "x"}: c(1), {2, "y"}: dataflow.TopVal, {5, "z"}: c(3)}
	if err := Agree(res(base), res(moved)); err == nil || !strings.Contains(err.Error(), "z@n3 missing") {
		t.Errorf("same count, different sites: %v", err)
	}
	diff := map[UseKey]dataflow.ConstVal{{1, "x"}: c(2), {2, "y"}: dataflow.Bottom, {3, "z"}: c(3)}
	for run := 0; run < 20; run++ {
		if err := Agree(res(base), res(diff)); err == nil || err.Error() != "constprop: use x@n1: 1 vs 2" {
			t.Fatalf("differing values: %v", err)
		}
	}
}
