package defuse

import (
	"testing"

	"dfg/internal/cfg"
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

func findAssign(g *cfg.Graph, v, rhs string) cfg.NodeID {
	for _, nd := range g.Nodes {
		if nd.Kind == cfg.KindAssign && nd.Var == v && nd.Expr.String() == rhs {
			return nd.ID
		}
	}
	return cfg.NoNode
}

func TestStraightLine(t *testing.T) {
	g := build(t, "x := 1; y := x; x := 2; z := x;")
	c := Compute(g)
	d1 := findAssign(g, "x", "1")
	d2 := findAssign(g, "x", "2")
	uy := findAssign(g, "y", "x")
	uz := findAssign(g, "z", "x")

	if r := c.Reaching(uy, "x"); len(r) != 1 || r[0] != d1 {
		t.Errorf("y's x reached by %v, want [n%d]", r, d1)
	}
	if r := c.Reaching(uz, "x"); len(r) != 1 || r[0] != d2 {
		t.Errorf("z's x reached by %v, want [n%d] (x:=1 killed)", r, d2)
	}
	if c.Size() != 2 {
		t.Errorf("Size() = %d, want 2", c.Size())
	}
}

func TestDiamondBothReach(t *testing.T) {
	g := build(t, "read p; if (p) { x := 1; } else { x := 2; } y := x;")
	c := Compute(g)
	use := findAssign(g, "y", "x")
	if r := c.Reaching(use, "x"); len(r) != 2 {
		t.Errorf("use reached by %d defs, want 2", len(r))
	}
}

func TestLoopReaching(t *testing.T) {
	g := build(t, "i := 0; while (i < 10) { i := i + 1; } print i;")
	c := Compute(g)
	// The use of i in the loop condition and the body use are both reached
	// by the initial def and the loop def.
	var sw, body, print cfg.NodeID
	for _, nd := range g.Nodes {
		switch {
		case nd.Kind == cfg.KindSwitch:
			sw = nd.ID
		case nd.Kind == cfg.KindAssign && nd.Expr.String() == "(i + 1)":
			body = nd.ID
		case nd.Kind == cfg.KindPrint:
			print = nd.ID
		}
	}
	for _, use := range []cfg.NodeID{sw, body, print} {
		if r := c.Reaching(use, "i"); len(r) != 2 {
			t.Errorf("use at n%d reached by %v, want both defs", use, r)
		}
	}
}

func TestUninitializedUse(t *testing.T) {
	g := build(t, "print x;")
	c := Compute(g)
	var pr cfg.NodeID
	for _, nd := range g.Nodes {
		if nd.Kind == cfg.KindPrint {
			pr = nd.ID
		}
	}
	if r := c.Reaching(pr, "x"); len(r) != 0 {
		t.Errorf("uninitialized use reached by %v, want none", r)
	}
}

func TestKillOnOneBranchOnly(t *testing.T) {
	g := build(t, "x := 1; read p; if (p) { x := 2; } y := x;")
	c := Compute(g)
	use := findAssign(g, "y", "x")
	if r := c.Reaching(use, "x"); len(r) != 2 {
		t.Errorf("partially killed def: reached by %v, want 2 defs", r)
	}
}

// Experiment E10's core fact in miniature: diamond ladders give
// quadratically many chains.
func TestDiamondLadderQuadraticGrowth(t *testing.T) {
	size := func(k int) int {
		g, err := cfg.Build(workload.DiamondLadder(k, 2, 1))
		if err != nil {
			t.Fatal(err)
		}
		return Compute(g).Size()
	}
	s4, s8, s16 := size(4), size(8), size(16)
	// Chains should grow clearly super-linearly: doubling k should much
	// more than double the count.
	if !(s8 > 2*s4 && s16 > 2*s8) {
		t.Errorf("expected super-linear growth, got %d, %d, %d", s4, s8, s16)
	}
}

// TestSolverCostRecorded: the loop's back edge changes the header's
// input after its first visit, so the solver visits more nodes than the
// graph has.
func TestSolverCostRecorded(t *testing.T) {
	g := build(t, "i := 0; while (i < 10) { i := i + 1; } print i;")
	c := Compute(g)
	if c.Cost.Visits <= g.NumNodes() {
		t.Errorf("loop should need more node visits than its %d nodes, got %d", g.NumNodes(), c.Cost.Visits)
	}
}

func TestStringOutput(t *testing.T) {
	g := build(t, "x := 1; y := x;")
	if s := Compute(g).String(); s == "" {
		t.Error("empty String()")
	}
}

func TestRandomProgramsHaveChains(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g, err := cfg.Build(workload.Mixed(30, seed))
		if err != nil {
			t.Fatal(err)
		}
		c := Compute(g)
		// Sanity: every chain's def node defines the chain's variable, and
		// the use node uses it.
		for _, ch := range c.All {
			if g.Defs(ch.Def) != ch.Var {
				t.Fatalf("chain def n%d does not define %s", ch.Def, ch.Var)
			}
			found := false
			for _, u := range g.Uses(ch.Use) {
				if u == ch.Var {
					found = true
				}
			}
			if !found {
				t.Fatalf("chain use n%d does not use %s", ch.Use, ch.Var)
			}
		}
	}
}
