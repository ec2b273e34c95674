package regions

import (
	"testing"

	"dfg/internal/cfg"
	"dfg/internal/graph"
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

func TestUndirectedCycleEquivTriangle(t *testing.T) {
	// Triangle: all three edges lie on exactly the same (single) cycle.
	u := graph.NewUndirected(3, 0)
	u.AddEdge(0, 1)
	u.AddEdge(1, 2)
	u.AddEdge(2, 0)
	classes, n := UndirectedCycleEquiv(u)
	if err := validateClasses(classes, n); err != nil {
		t.Fatal(err)
	}
	if classes[0] != classes[1] || classes[1] != classes[2] {
		t.Errorf("triangle edges must share a class: %v", classes)
	}
}

func TestUndirectedCycleEquivTwoTriangles(t *testing.T) {
	// Two triangles sharing node 0: edges of different triangles are not
	// cycle equivalent.
	u := graph.NewUndirected(5, 0)
	a := u.AddEdge(0, 1)
	u.AddEdge(1, 2)
	u.AddEdge(2, 0)
	b := u.AddEdge(0, 3)
	u.AddEdge(3, 4)
	u.AddEdge(4, 0)
	classes, _ := UndirectedCycleEquiv(u)
	if classes[a] == classes[b] {
		t.Errorf("edges of distinct triangles share class: %v", classes)
	}
}

func TestUndirectedCycleEquivBridge(t *testing.T) {
	// Path 0-1-2 plus triangle at 2: the two path edges are bridges and
	// share the bridge class; triangle edges share another class.
	u := graph.NewUndirected(5, 0)
	b0 := u.AddEdge(0, 1)
	b1 := u.AddEdge(1, 2)
	t0 := u.AddEdge(2, 3)
	t1 := u.AddEdge(3, 4)
	t2 := u.AddEdge(4, 2)
	classes, _ := UndirectedCycleEquiv(u)
	if classes[b0] != classes[b1] {
		t.Errorf("bridges must share a class: %v", classes)
	}
	if classes[t0] != classes[t1] || classes[t1] != classes[t2] {
		t.Errorf("triangle edges must share a class: %v", classes)
	}
	if classes[b0] == classes[t0] {
		t.Errorf("bridge and cycle edge must differ: %v", classes)
	}
}

func TestUndirectedCycleEquivParallelEdges(t *testing.T) {
	// Two parallel edges form a 2-cycle; both are cycle equivalent to each
	// other iff every cycle through one contains the other. With a third
	// node hanging off, the parallel pair is its own cycle.
	u := graph.NewUndirected(2, 0)
	p0 := u.AddEdge(0, 1)
	p1 := u.AddEdge(0, 1)
	classes, _ := UndirectedCycleEquiv(u)
	if classes[p0] != classes[p1] {
		t.Errorf("parallel pair must share a class: %v", classes)
	}
}

func TestUndirectedCycleEquivTheta(t *testing.T) {
	// Theta graph: nodes 0,1 joined by three internally disjoint paths of
	// length 2. Every pair of paths forms a cycle, so no two edges of
	// different paths are equivalent, but the two edges of one path are.
	u := graph.NewUndirected(5, 0)
	a0 := u.AddEdge(0, 2)
	a1 := u.AddEdge(2, 1)
	b0 := u.AddEdge(0, 3)
	b1 := u.AddEdge(3, 1)
	c0 := u.AddEdge(0, 4)
	c1 := u.AddEdge(4, 1)
	classes, _ := UndirectedCycleEquiv(u)
	if classes[a0] != classes[a1] || classes[b0] != classes[b1] || classes[c0] != classes[c1] {
		t.Errorf("path halves must pair up: %v", classes)
	}
	if classes[a0] == classes[b0] || classes[b0] == classes[c0] || classes[a0] == classes[c0] {
		t.Errorf("different paths must differ: %v", classes)
	}
}

// --- CFG-level classes vs oracles ------------------------------------------

// checkAgainstOracles verifies the O(E) classes against both the control
// dependence oracle (Claim 1's LHS) and the directed cycle equivalence
// oracle (Claim 1's RHS).
func checkAgainstOracles(t *testing.T, g *cfg.Graph, label string) {
	t.Helper()
	fast, _ := EdgeClasses(g)
	cd := BruteControlDepClasses(g)
	if !SamePartition(fast, cd) {
		t.Errorf("%s: cycle equivalence disagrees with control dependence classes\nfast: %v\ncd:   %v\ncfg:\n%s",
			label, fast, cd, g)
	}
	cyc := BruteCycleEquivClasses(g)
	if !SamePartition(fast, cyc) {
		t.Errorf("%s: fast classes disagree with brute-force directed cycle equivalence\nfast: %v\nbrute:%v\ncfg:\n%s",
			label, fast, cyc, g)
	}
}

func TestEdgeClassesStraightLine(t *testing.T) {
	g := build(t, "x := 1; y := x + 1; print y;")
	classes, n := EdgeClasses(g)
	if n != 1 {
		t.Errorf("straight line should have 1 class, got %d: %v", n, classes)
	}
	checkAgainstOracles(t, g, "straight")
}

func TestEdgeClassesDiamond(t *testing.T) {
	g := build(t, "read p; if (p) { x := 1; } else { x := 2; } print x;")
	classes, n := EdgeClasses(g)
	// Classes: {entry edges + exit edge}, {true branch pair}, {false branch
	// pair}. The true-side edges (switch->assign, assign->merge) share one
	// class; similarly the false side; the spine is one class.
	if n != 3 {
		t.Errorf("diamond should have 3 classes, got %d: %v", n, classes)
	}
	checkAgainstOracles(t, g, "diamond")
}

func TestEdgeClassesLoop(t *testing.T) {
	g := build(t, "i := 0; while (i < 10) { i := i + 1; } print i;")
	checkAgainstOracles(t, g, "loop")
}

func TestEdgeClassesPaperExamples(t *testing.T) {
	// Figure 1 running example: x:=1; if(x=1){y:=2} else {y:=3; ...}; use y
	fig1 := `
		read a;
		x := 1;
		if (x == 1) { y := 2; } else { y := 3; a := y; }
		print y;`
	// Figure 2 example: y:=2; if(p){x:=1;y:=1}else{x:=2}; print x,y
	fig2 := `
		read p;
		y := 2;
		if (p > 0) { x := 1; y := 1; } else { x := 2; }
		print x; print y;`
	// Figure 6-style: straight-line defs + if with computations of x+1
	fig6 := `
		read p; read z;
		x := z + 3;
		if (p > 0) { y := x + 1; } else { z := x + 1; }
		print x + 1;`
	for name, src := range map[string]string{"fig1": fig1, "fig2": fig2, "fig6": fig6} {
		checkAgainstOracles(t, build(t, src), name)
	}
}

func TestEdgeClassesIrreducible(t *testing.T) {
	g := build(t, `
		read p;
		if (p > 0) { goto B; }
		label A:
		x := 1;
		label B:
		x := 2;
		if (x < p) { goto A; }
		print x;`)
	checkAgainstOracles(t, g, "irreducible")
}

func TestEdgeClassesNestedLoops(t *testing.T) {
	g := build(t, `
		i := 0;
		while (i < 3) {
			j := 0;
			while (j < 3) { j := j + 1; }
			i := i + 1;
		}
		print i; print j;`)
	checkAgainstOracles(t, g, "nested-loops")
}

func TestEdgeClassesRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		prog := workload.Mixed(25, seed)
		g, err := cfg.Build(prog)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkAgainstOracles(t, g, "random")
	}
}

func TestEdgeClassesGotoPrograms(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		prog := workload.GotoMess(8, seed)
		g, err := cfg.Build(prog)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkAgainstOracles(t, g, "goto")
	}
}

// --- SESE regions & PST -----------------------------------------------------

func TestAnalyzeDiamondRegions(t *testing.T) {
	g := build(t, "read p; if (p) { x := 1; } else { x := 2; } print x;")
	info := MustAnalyze(g)
	dom := cfg.NewDominance(g)
	for _, r := range info.Regions {
		if !dom.EdgeDominatesEdge(r.Entry, r.Exit) {
			t.Errorf("region %d: entry e%d does not dominate exit e%d", r.ID, r.Entry, r.Exit)
		}
		if !dom.EdgePostdominatesEdge(r.Exit, r.Entry) {
			t.Errorf("region %d: exit e%d does not postdominate entry e%d", r.ID, r.Exit, r.Entry)
		}
	}
}

// checkRegionInvariants verifies Theorem 1 on every canonical region and
// that the PST parent relation is consistent with containment.
func checkRegionInvariants(t *testing.T, g *cfg.Graph, label string) {
	t.Helper()
	info, err := Analyze(g)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	dom := cfg.NewDominance(g)
	onCycle := g.EdgesOnSomeCycle()
	for _, r := range info.Regions {
		if !dom.EdgeDominatesEdge(r.Entry, r.Exit) {
			t.Errorf("%s R%d: entry must dominate exit", label, r.ID)
		}
		if !dom.EdgePostdominatesEdge(r.Exit, r.Entry) {
			t.Errorf("%s R%d: exit must postdominate entry", label, r.ID)
		}
		// Theorem 1 third condition restricted to a quick necessary check:
		// entry on a cycle iff exit on a cycle.
		if onCycle[r.Entry] != onCycle[r.Exit] {
			t.Errorf("%s R%d: cycle membership differs between entry and exit", label, r.ID)
		}
		// Parent containment: parent's entry dominates child's entry and
		// parent's exit postdominates child's exit.
		if r.Parent >= 0 {
			p := info.Regions[r.Parent]
			if !dom.EdgeDominatesEdge(p.Entry, r.Entry) {
				t.Errorf("%s R%d: parent entry does not dominate child entry", label, r.ID)
			}
			if !dom.EdgePostdominatesEdge(p.Exit, r.Exit) {
				t.Errorf("%s R%d: parent exit does not postdominate child exit", label, r.ID)
			}
		}
	}
}

func TestRegionInvariantsRandom(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		g, err := cfg.Build(workload.Mixed(30, seed))
		if err != nil {
			t.Fatal(err)
		}
		checkRegionInvariants(t, g, "mixed")
	}
	for seed := int64(0); seed < 10; seed++ {
		g, err := cfg.Build(workload.GotoMess(7, seed))
		if err != nil {
			t.Fatal(err)
		}
		checkRegionInvariants(t, g, "goto")
	}
}

func TestRegionNesting(t *testing.T) {
	// A loop inside an if: the loop's regions nest inside the branch region.
	g := build(t, `
		read p;
		if (p > 0) {
			i := 0;
			while (i < 5) { i := i + 1; }
		}
		print p;`)
	info := MustAnalyze(g)
	maxDepth := 0
	for _, r := range info.Regions {
		if r.Depth > maxDepth {
			maxDepth = r.Depth
		}
	}
	if maxDepth < 1 {
		t.Errorf("expected nested regions, PST:\n%s", info)
	}
}

func TestStraightLineRegionChain(t *testing.T) {
	// n sequential statements: one class of n+1 edges, n canonical regions,
	// all siblings (sequential composition, not nesting).
	g := build(t, "a := 1; b := 2; c := 3; print c;")
	info := MustAnalyze(g)
	if info.NumClasses != 1 {
		t.Fatalf("classes = %d, want 1", info.NumClasses)
	}
	if len(info.Regions) != len(g.LiveEdges())-1 {
		t.Errorf("regions = %d, want %d", len(info.Regions), len(g.LiveEdges())-1)
	}
	for _, r := range info.Regions {
		if r.Depth != 0 {
			t.Errorf("region %d depth = %d, want 0 (sequential)", r.ID, r.Depth)
		}
	}
}

func BenchmarkEdgeClasses(b *testing.B) {
	g, err := cfg.Build(workload.StraightLine(2000, 10, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EdgeClasses(g)
	}
}
