package cfg

import (
	"strings"
	"testing"

	"dfg/internal/lang/parser"
)

// buildSrc parses and lowers src, failing the test on error.
func buildSrc(t *testing.T, src string) *Graph {
	t.Helper()
	g, err := Build(parser.MustParse(src))
	if err != nil {
		t.Fatalf("Build(%q): %v", src, err)
	}
	return g
}

func countKind(g *Graph, k NodeKind) int {
	n := 0
	for _, nd := range g.Nodes {
		if nd.Kind == k {
			n++
		}
	}
	return n
}

func TestBuildStraightLine(t *testing.T) {
	g := buildSrc(t, "x := 1; y := x + 1; print y;")
	if got := countKind(g, KindAssign); got != 2 {
		t.Errorf("assign nodes = %d, want 2", got)
	}
	if got := countKind(g, KindMerge); got != 0 {
		t.Errorf("merge nodes = %d, want 0", got)
	}
	// start -> a1 -> a2 -> print -> end: 4 edges
	if got := len(g.LiveEdges()); got != 4 {
		t.Errorf("edges = %d, want 4", got)
	}
}

func TestBuildIfElse(t *testing.T) {
	g := buildSrc(t, "read p; if (p > 0) { x := 1; } else { x := 2; } print x;")
	if got := countKind(g, KindSwitch); got != 1 {
		t.Errorf("switch nodes = %d, want 1", got)
	}
	if got := countKind(g, KindMerge); got != 1 {
		t.Errorf("merge nodes = %d, want 1", got)
	}
	// The switch must have labelled true and false out-edges.
	for _, nd := range g.Nodes {
		if nd.Kind == KindSwitch {
			if g.SwitchEdge(nd.ID, BranchTrue) == NoEdge || g.SwitchEdge(nd.ID, BranchFalse) == NoEdge {
				t.Error("switch lacks true/false edges")
			}
		}
	}
}

func TestBuildIfNoElse(t *testing.T) {
	g := buildSrc(t, "read p; if (p > 0) { x := 1; } print x;")
	// false edge goes switch -> merge directly (a critical edge).
	if got := countKind(g, KindMerge); got != 1 {
		t.Errorf("merge nodes = %d, want 1", got)
	}
	var sw, mg NodeID = NoNode, NoNode
	for _, nd := range g.Nodes {
		switch nd.Kind {
		case KindSwitch:
			sw = nd.ID
		case KindMerge:
			mg = nd.ID
		}
	}
	fe := g.SwitchEdge(sw, BranchFalse)
	if g.Edges[fe].Dst != mg {
		t.Errorf("false edge goes to node %d, want merge %d", g.Edges[fe].Dst, mg)
	}
}

func TestBuildWhile(t *testing.T) {
	g := buildSrc(t, "i := 0; while (i < 10) { i := i + 1; } print i;")
	if got := countKind(g, KindSwitch); got != 1 {
		t.Errorf("switch nodes = %d, want 1", got)
	}
	if got := countKind(g, KindMerge); got != 1 {
		t.Errorf("merge nodes = %d, want 1 (loop header)", got)
	}
	// The loop header merge must have 2 in-edges: entry + back edge.
	for _, nd := range g.Nodes {
		if nd.Kind == KindMerge {
			if got := len(g.InEdges(nd.ID)); got != 2 {
				t.Errorf("loop header in-edges = %d, want 2", got)
			}
		}
	}
}

func TestBuildWhileEmptyBody(t *testing.T) {
	g := buildSrc(t, "read i; while (i < 10) { skip; } print i;")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildNestedLoops(t *testing.T) {
	g := buildSrc(t, `
		i := 0;
		while (i < 3) {
			j := 0;
			while (j < 3) { j := j + 1; }
			i := i + 1;
		}
		print i;`)
	if got := countKind(g, KindSwitch); got != 2 {
		t.Errorf("switch nodes = %d, want 2", got)
	}
	if got := countKind(g, KindMerge); got != 2 {
		t.Errorf("merge nodes = %d, want 2", got)
	}
}

func TestBuildGotoLoop(t *testing.T) {
	g := buildSrc(t, `
		read n;
		label top:
		n := n - 1;
		if (n > 0) { goto top; }
		print n;`)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The label merge gets entry + goto edge = 2 in-edges.
	found := false
	for _, nd := range g.Nodes {
		if nd.Kind == KindMerge && strings.Contains(nd.Comment, "label top") {
			found = true
			if got := len(g.InEdges(nd.ID)); got != 2 {
				t.Errorf("label merge in-edges = %d, want 2", got)
			}
		}
	}
	if !found {
		t.Error("label merge not found")
	}
}

func TestBuildIrreducible(t *testing.T) {
	// Classic irreducible CFG: jump into the middle of a loop.
	g := buildSrc(t, `
		read p;
		if (p > 0) { goto B; }
		label A:
		x := 1;
		label B:
		x := 2;
		if (x < p) { goto A; }
		print x;`)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildUnreachableCodeDropped(t *testing.T) {
	g := buildSrc(t, `
		label done:
		print 1;
		goto fin;
		x := 99;
		label fin:
		skip;`)
	for _, nd := range g.Nodes {
		if nd.Kind == KindAssign && nd.Var == "x" {
			t.Error("unreachable assignment not dropped")
		}
	}
}

func TestBuildRejectsNoPathToEnd(t *testing.T) {
	_, err := Build(parser.MustParse("label spin: goto spin;"))
	if err == nil {
		t.Error("expected error for program that cannot reach end")
	}
}

func TestBuildEmptyProgram(t *testing.T) {
	g := buildSrc(t, "")
	if got := len(g.LiveEdges()); got != 1 {
		t.Errorf("edges = %d, want 1 (start->end)", got)
	}
}

func TestValidateCatchesBadSwitch(t *testing.T) {
	g := New()
	sw := g.AddNode(KindSwitch)
	g.AddEdge(g.Start, sw, BranchNone)
	g.AddEdge(sw, g.End, BranchTrue) // missing false edge
	if err := g.Validate(); err == nil {
		t.Error("expected validation error for 1-exit switch")
	}
}

func TestDefsUses(t *testing.T) {
	g := buildSrc(t, "read a; b := a + a * 2; print b;")
	var assign, read, print NodeID
	for _, nd := range g.Nodes {
		switch nd.Kind {
		case KindAssign:
			assign = nd.ID
		case KindRead:
			read = nd.ID
		case KindPrint:
			print = nd.ID
		}
	}
	if g.Defs(assign) != "b" {
		t.Errorf("Defs(assign) = %q", g.Defs(assign))
	}
	if g.Defs(read) != "a" {
		t.Errorf("Defs(read) = %q", g.Defs(read))
	}
	if u := g.Uses(assign); len(u) != 1 || u[0] != "a" {
		t.Errorf("Uses(assign) = %v", u)
	}
	if u := g.Uses(print); len(u) != 1 || u[0] != "b" {
		t.Errorf("Uses(print) = %v", u)
	}
	if u := g.Uses(read); u != nil {
		t.Errorf("Uses(read) = %v", u)
	}
}

// TestUsesByNode: the shared-backing table holds Uses(n) for every node, and
// a row cannot be appended into its neighbour.
func TestUsesByNode(t *testing.T) {
	g := buildSrc(t, "read a; b := a + a * 2; if (a < b) { c := b - a; } print c + b + c; x := 1;")
	rows := g.UsesByNode()
	if len(rows) != g.NumNodes() {
		t.Fatalf("%d rows for %d nodes", len(rows), g.NumNodes())
	}
	for _, nd := range g.Nodes {
		got, want := rows[nd.ID], g.Uses(nd.ID)
		if strings.Join(got, ",") != strings.Join(want, ",") || (got == nil) != (want == nil) {
			t.Errorf("node %d (%v): row %q, Uses %q", nd.ID, nd.Kind, got, want)
		}
		if len(got) != cap(got) {
			t.Errorf("node %d: row has spare capacity %d", nd.ID, cap(got)-len(got))
		}
	}
}

func TestVarNames(t *testing.T) {
	g := buildSrc(t, "x := 1; y := x; print y;")
	idx := g.VarIndex()
	if len(idx) != 2 {
		t.Fatalf("VarIndex = %v", idx)
	}
	g.AddVar("t0")
	g.AddVar("t0") // idempotent
	if len(g.VarNames) != 3 {
		t.Errorf("VarNames = %v", g.VarNames)
	}
}

func TestDOTOutput(t *testing.T) {
	g := buildSrc(t, "read p; if (p) { x := 1; } else { x := 2; } print x;")
	dot := g.DOT("test", false)
	for _, want := range []string{"digraph", "diamond", "invtriangle", "switch p"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func TestDominanceOnDiamond(t *testing.T) {
	g := buildSrc(t, "read p; if (p) { x := 1; } else { x := 2; } print x;")
	dom := NewDominance(g)

	var sw, mg, printN NodeID
	var thenN NodeID
	for _, nd := range g.Nodes {
		switch {
		case nd.Kind == KindSwitch:
			sw = nd.ID
		case nd.Kind == KindMerge:
			mg = nd.ID
		case nd.Kind == KindPrint:
			printN = nd.ID
		case nd.Kind == KindAssign && nd.Var == "x" && nd.Expr.String() == "1":
			thenN = nd.ID
		}
	}
	if !dom.NodeDominatesNode(sw, mg) {
		t.Error("switch should dominate merge")
	}
	if !dom.NodePostdominatesNode(mg, sw) {
		t.Error("merge should postdominate switch")
	}
	if dom.NodeDominatesNode(thenN, mg) {
		t.Error("then-branch must not dominate merge")
	}
	if dom.NodePostdominatesNode(thenN, sw) {
		t.Error("then-branch must not postdominate switch")
	}
	if !dom.NodeDominatesNode(g.Start, printN) {
		t.Error("start dominates everything")
	}
}

func TestEdgeDominance(t *testing.T) {
	g := buildSrc(t, "read p; if (p) { x := 1; } else { x := 2; } print x;")
	dom := NewDominance(g)
	var sw, mg NodeID
	for _, nd := range g.Nodes {
		switch nd.Kind {
		case KindSwitch:
			sw = nd.ID
		case KindMerge:
			mg = nd.ID
		}
	}
	inSw := g.InEdges(sw)[0]
	outMg := g.OutEdges(mg)[0]
	if !dom.EdgeDominatesEdge(inSw, outMg) {
		t.Error("edge into switch dominates edge out of merge")
	}
	if !dom.EdgePostdominatesEdge(outMg, inSw) {
		t.Error("edge out of merge postdominates edge into switch")
	}
	tEdge := g.SwitchEdge(sw, BranchTrue)
	if dom.EdgeDominatesEdge(tEdge, outMg) {
		t.Error("true edge must not dominate merge out-edge")
	}
}

func TestEdgesOnSomeCycle(t *testing.T) {
	g := buildSrc(t, "i := 0; while (i < 9) { i := i + 1; } print i;")
	onCycle := g.EdgesOnSomeCycle()
	// Exactly the loop edges are on a cycle: header->switch, switch->body(T),
	// body->header. Entry, exit, and print edges are not.
	n := 0
	for range onCycle {
		n++
	}
	if n != 3 {
		t.Errorf("edges on cycle = %d, want 3", n)
	}
}

func TestCompactIdempotent(t *testing.T) {
	g := buildSrc(t, "read p; if (p) { x := 1; } print x;")
	g2, err := g.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if g2.String() != g.String() {
		t.Errorf("compact not idempotent:\n%s\nvs\n%s", g, g2)
	}
}
