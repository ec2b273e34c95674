// Scale tests: the whole pipeline on large programs, guarding against
// stack overflows in the recursive constructions and quadratic blow-ups in
// the supposedly linear passes.
package main

import (
	"fmt"
	"testing"
	"time"

	"dfg/internal/bccompile"
	"dfg/internal/bcfront"
	"dfg/internal/cdg"
	"dfg/internal/cfg"
	"dfg/internal/constprop"
	"dfg/internal/dfg"
	"dfg/internal/regions"
	"dfg/internal/ssa"
	"dfg/internal/workload"
)

func TestPipelineAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	const n = 4000
	start := time.Now()
	g, err := cfg.Build(workload.Mixed(n, 13))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("CFG: %d nodes, %d edges (%.1fs)", g.NumNodes(), len(g.LiveEdges()), time.Since(start).Seconds())

	info, err := regions.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("regions: %d classes, %d regions", info.NumClasses, len(info.Regions))

	d, err := dfg.BuildWithInfo(g, info)
	if err != nil {
		t.Fatal(err)
	}
	st := d.ComputeStats()
	t.Logf("DFG: %d ops, %d dependences", st.Ops, st.Dependences)

	// SSA equivalence at scale.
	if err := ssa.EquivalentOnUses(ssa.Cytron(g), ssa.FromDFG(d)); err != nil {
		t.Fatalf("SSA forms differ at scale: %v", err)
	}

	// Constant propagation agreement at scale.
	if err := constprop.Agree(constprop.CFG(g), constprop.DFG(d)); err != nil {
		t.Fatalf("constprop mismatch: %v", err)
	}

	// Factored CDG partition at scale: a sane class count, and every
	// non-end member of a class carries the FOW dependence set read off the
	// class's representative.
	fact := cdg.BuildFactored(g)
	if fact.NumClasses < 2 || fact.NumClasses > g.NumNodes() {
		t.Fatalf("implausible class count %d", fact.NumClasses)
	}
	fow := cdg.BuildFOW(g)
	classDeps := cdg.ClassDeps(g, fact, fow)
	for id, c := range fact.ClassOf {
		if n := cfg.NodeID(id); n != g.End && fmt.Sprint(fow.Deps[n]) != fmt.Sprint(classDeps[c]) {
			t.Fatalf("n%d: FOW deps %v, its class %d has %v", n, fow.Deps[n], c, classDeps[c])
		}
	}

	if el := time.Since(start); el > 5*time.Minute {
		t.Errorf("pipeline too slow at n=%d: %v", n, el)
	}
}

func TestWideAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	// 4000-statement breadth-heavy program: hundreds of sibling SESE
	// regions and a variable set in the hundreds.
	g, err := cfg.Build(workload.Wide(4000, 13))
	if err != nil {
		t.Fatal(err)
	}
	info, err := regions.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Regions) < 400 {
		t.Errorf("wide program should have hundreds of regions, got %d", len(info.Regions))
	}
	d, err := dfg.BuildWithInfo(g, info)
	if err != nil {
		t.Fatal(err)
	}
	if err := ssa.EquivalentOnUses(ssa.Cytron(g), ssa.FromDFG(d)); err != nil {
		t.Fatal(err)
	}
}

func TestIrreducibleAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	// 300 two-entry loops recovered from compiled bytecode: the region and
	// cycle-equivalence machinery on a large genuinely irreducible CFG that
	// no structured source could produce, exercised through both frontends.
	prog := workload.Irreducible(300, 13)
	g, err := cfg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	info, err := regions.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dfg.BuildWithInfo(g, info)
	if err != nil {
		t.Fatal(err)
	}
	if err := ssa.EquivalentOnUses(ssa.Cytron(g), ssa.FromDFG(d)); err != nil {
		t.Fatalf("SSA forms differ on irreducible graph: %v", err)
	}

	// The bytecode round trip at the same scale.
	rec, err := bcfront.RecoverCFG(bccompile.MustCompile(prog))
	if err != nil {
		t.Fatal(err)
	}
	rinfo, err := regions.Analyze(rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dfg.BuildWithInfo(rec, rinfo); err != nil {
		t.Fatal(err)
	}
}

func TestDeepStraightLineNoOverflow(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	// 30k sequential statements: one giant equivalence class, deep
	// region chains, long multiedges.
	g, err := cfg.Build(workload.StraightLine(15000, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	info, err := regions.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	if info.NumClasses != 1 {
		t.Errorf("straight line should have 1 class, got %d", info.NumClasses)
	}
	d, err := dfg.BuildWithInfo(g, info)
	if err != nil {
		t.Fatal(err)
	}
	if err := ssa.EquivalentOnUses(ssa.Cytron(g), ssa.FromDFG(d)); err != nil {
		t.Fatal(err)
	}
}
