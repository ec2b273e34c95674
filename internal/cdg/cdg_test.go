package cdg

import (
	"fmt"
	"strings"
	"testing"

	"dfg/internal/cfg"
	"dfg/internal/lang/ast"
	"dfg/internal/lang/parser"
	"dfg/internal/regions"
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

func TestFOWDiamond(t *testing.T) {
	g := build(t, "read p; if (p) { x := 1; } else { x := 2; } print x;")
	fow := BuildFOW(g)

	var sw, mg, thenN, elseN, printN cfg.NodeID
	for _, nd := range g.Nodes {
		switch {
		case nd.Kind == cfg.KindSwitch:
			sw = nd.ID
		case nd.Kind == cfg.KindMerge:
			mg = nd.ID
		case nd.Kind == cfg.KindPrint:
			printN = nd.ID
		case nd.Kind == cfg.KindAssign && nd.Expr.String() == "1":
			thenN = nd.ID
		case nd.Kind == cfg.KindAssign && nd.Expr.String() == "2":
			elseN = nd.ID
		}
	}
	tEdge := g.SwitchEdge(sw, cfg.BranchTrue)
	fEdge := g.SwitchEdge(sw, cfg.BranchFalse)

	// then depends exactly on the true edge; else on the false edge.
	if len(fow.Deps[thenN]) != 1 || fow.Deps[thenN][0].Edge != tEdge {
		t.Errorf("Deps(then) = %v", fow.Deps[thenN])
	}
	if len(fow.Deps[elseN]) != 1 || fow.Deps[elseN][0].Edge != fEdge {
		t.Errorf("Deps(else) = %v", fow.Deps[elseN])
	}
	// switch, merge, print are unconditional: only the ENTRY dependence.
	for _, n := range []cfg.NodeID{sw, mg, printN} {
		deps := fow.Deps[n]
		if len(deps) != 1 || deps[0].Edge != cfg.NoEdge {
			t.Errorf("Deps(n%d) = %v, want [ENTRY]", n, deps)
		}
	}
}

func TestFOWLoop(t *testing.T) {
	g := build(t, "i := 0; while (i < 10) { i := i + 1; } print i;")
	fow := BuildFOW(g)
	var sw, body cfg.NodeID
	for _, nd := range g.Nodes {
		switch {
		case nd.Kind == cfg.KindSwitch:
			sw = nd.ID
		case nd.Kind == cfg.KindAssign && nd.Var == "i" && nd.Expr.String() == "(i + 1)":
			body = nd.ID
		}
	}
	tEdge := g.SwitchEdge(sw, cfg.BranchTrue)
	// Loop body depends on the true edge only.
	if len(fow.Deps[body]) != 1 || fow.Deps[body][0].Edge != tEdge {
		t.Errorf("Deps(body) = %v", fow.Deps[body])
	}
	// The switch (loop condition) is executed unconditionally at least once
	// AND re-executed under its own true edge: deps = {ENTRY, tEdge}.
	deps := fow.Deps[sw]
	if len(deps) != 2 {
		t.Fatalf("Deps(switch) = %v, want 2 deps", deps)
	}
	if deps[0].Edge != cfg.NoEdge || deps[1].Edge != tEdge {
		t.Errorf("Deps(switch) = %v, want [ENTRY, e%d]", deps, tEdge)
	}
}

// corpus is the partition tests' programs: random mixed and goto programs
// plus a few seeds of each program family of the cold-mixed benchmark
// workload, so the partition is checked on the shapes the server sees.
func corpus(t *testing.T) map[string]*cfg.Graph {
	t.Helper()
	out := map[string]*cfg.Graph{}
	add := func(name string, p *ast.Program) {
		g, err := cfg.Build(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = g
	}
	for seed := int64(0); seed < 25; seed++ {
		add(fmt.Sprintf("Mixed(30,%d)", seed), workload.Mixed(30, seed))
	}
	for seed := int64(0); seed < 12; seed++ {
		add(fmt.Sprintf("GotoMess(8,%d)", seed), workload.GotoMess(8, seed))
	}
	for seed := int64(1); seed <= 4; seed++ {
		add(fmt.Sprintf("LoopNest(6,4,%d)", seed), workload.LoopNest(6, 4, seed))
		add(fmt.Sprintf("Irreducible(40,%d)", seed), workload.Irreducible(40, seed))
	}
	for seed := int64(1); seed <= 3; seed++ {
		add(fmt.Sprintf("Wide(300,%d)", seed), workload.Wide(300, seed))
	}
	return out
}

// partitionFromFOW groups nodes by CD-set signature. The end node is
// excluded: classic FOW gives it an empty dependence set by convention,
// while cycle equivalence groups it with the unconditional nodes (it lies
// on the end→start cycle); the two conventions are both standard.
func partitionFromFOW(g *cfg.Graph, fow *FOW) map[cfg.NodeID]int {
	renum := map[string]int{}
	out := map[cfg.NodeID]int{}
	for _, nd := range g.Nodes {
		if nd.ID == g.End {
			continue
		}
		sig := fmt.Sprint(fow.Deps[nd.ID])
		c, ok := renum[sig]
		if !ok {
			c = len(renum)
			renum[sig] = c
		}
		out[nd.ID] = c
	}
	return out
}

// samePartition checks two node→class maps induce the same partition.
func samePartition(a, b map[cfg.NodeID]int) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[int]int{}
	bwd := map[int]int{}
	for k, ca := range a {
		cb, ok := b[k]
		if !ok {
			return false
		}
		if v, ok := fwd[ca]; ok && v != cb {
			return false
		}
		if v, ok := bwd[cb]; ok && v != ca {
			return false
		}
		fwd[ca], bwd[cb] = cb, ca
	}
	return true
}

// dropEnd turns a factored partition into a node→class map without the end
// node (see partitionFromFOW).
func dropEnd(g *cfg.Graph, f *Factored) map[cfg.NodeID]int {
	out := make(map[cfg.NodeID]int, len(f.ClassOf))
	for id, c := range f.ClassOf {
		if cfg.NodeID(id) != g.End {
			out[cfg.NodeID(id)] = c
		}
	}
	return out
}

func TestFactoredMatchesFOWPartition(t *testing.T) {
	srcs := []string{
		"x := 1; print x;",
		"read p; if (p) { x := 1; } else { x := 2; } print x;",
		"i := 0; while (i < 10) { i := i + 1; } print i;",
		`read p; if (p > 0) { i := 0; while (i < 5) { i := i + 1; } } print p;`,
	}
	for _, src := range srcs {
		g := build(t, src)
		fact := BuildFactored(g)
		fow := BuildFOW(g)
		if !samePartition(dropEnd(g, fact), partitionFromFOW(g, fow)) {
			t.Errorf("partitions differ for %q\nfactored: %v\nfow-part: %v\ncfg:\n%s",
				src, fact.ClassOf, partitionFromFOW(g, fow), g)
		}
	}
}

func TestFactoredMatchesFOWRandom(t *testing.T) {
	for name, g := range corpus(t) {
		if !samePartition(dropEnd(g, BuildFactored(g)), partitionFromFOW(g, BuildFOW(g))) {
			t.Errorf("%s: factored and FOW partitions differ\ncfg:\n%s", name, g)
		}
	}
}

// TestFactoredClassDepsMatchMembers: every non-end member of a class has
// exactly the dependence set ClassDeps reads off the class's
// representative. That is what justifies reading the set off one member.
func TestFactoredClassDepsMatchMembers(t *testing.T) {
	progs := corpus(t)
	progs["nested ifs"] = build(t, `read p; if (p > 0) { x := 1; if (p > 1) { x := 2; } } print x;`)
	for name, g := range progs {
		fact := BuildFactored(g)
		fow := BuildFOW(g)
		deps := ClassDeps(g, fact, fow)
		for c, members := range fact.Members {
			want := fmt.Sprint(deps[c])
			for _, m := range members {
				if m == g.End {
					continue
				}
				if got := fmt.Sprint(fow.Deps[m]); got != want {
					t.Errorf("%s: class %d member n%d has deps %q, the class has %q", name, c, m, got, want)
				}
			}
		}
	}
}

// TestServedPartitionAllocs gates the allocations of what the pipeline's
// cdg stage runs: the partition over the regions stage's edge classes. It
// makes a few slices per class; building the FOW relation as well cost
// about ten times as many.
func TestServedPartitionAllocs(t *testing.T) {
	type prog struct {
		g       *cfg.Graph
		classes []int
	}
	var progs []prog
	for seed := int64(1); seed <= 8; seed++ {
		g, err := cfg.Build(workload.Mixed(15, seed))
		if err != nil {
			t.Fatal(err)
		}
		classes, _ := regions.EdgeClasses(g)
		progs = append(progs, prog{g, classes})
	}
	perProgram := testing.AllocsPerRun(20, func() {
		for _, p := range progs {
			BuildFactoredWithClasses(p.g, p.classes)
		}
	}) / float64(len(progs))
	if perProgram > 60 {
		t.Errorf("served partition: %.1f allocations per program, want <= 60", perProgram)
	}
	t.Logf("served partition: %.1f allocations per program", perProgram)
}

func TestFactoredString(t *testing.T) {
	g := build(t, "read p; if (p) { x := 1; } print p;")
	fact := BuildFactored(g)
	if s := fact.String(); s == "" || strings.Contains(s, "deps") {
		t.Errorf("String() renders the partition alone, got %q", s)
	}
	withDeps := fact.Format(ClassDeps(g, fact, BuildFOW(g)))
	if !strings.Contains(withDeps, "class 0: {") || !strings.Contains(withDeps, "deps {ENTRY}") {
		t.Errorf("Format(ClassDeps) = %q", withDeps)
	}
}
