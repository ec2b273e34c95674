// Pinned operation counts: the constant propagations' and SSA
// constructions' abstract work and output sizes on a fixed corpus, recorded
// before their state moved from maps to dense slices. The representation may
// change; the algorithms, their worklist orders and their results may not.
package main

import (
	"fmt"
	"os"
	"testing"

	"dfg/internal/cfg"
	"dfg/internal/constprop"
	"dfg/internal/dfg"
	"dfg/internal/lang/ast"
	"dfg/internal/lang/parser"
	"dfg/internal/ssa"
	"dfg/internal/workload"
)

// pinned is one program's pinned figures.
type pinned struct {
	// {Joins, Transfers, Visits} of CFGOpt, CFGOpt with predicates,
	// DFGOpt and DFGOpt with predicates.
	cost [4][3]int
	// NumPhis and Size of Cytron's form, then of FromDFG's.
	ssa [4]int
}

// TestPinnedOpCounts covers the example and predicate programs, Mixed(15)
// seeds 1–8, Irreducible(40) seeds 1–4, WideSwitch(20, V) for V = 4…64, one
// Wide(300) and one LoopNest(6, 4).
func TestPinnedOpCounts(t *testing.T) {
	want := map[string]pinned{
		"constprop.dfg":     {[4][3]int{{66, 5, 10}, {66, 5, 10}, {38, 20, 20}, {38, 20, 20}}, [4]int{2, 10, 2, 10}},
		"predSrc":           {[4][3]int{{32, 3, 7}, {32, 3, 7}, {21, 12, 12}, {21, 12, 12}}, [4]int{1, 5, 1, 5}},
		"Mixed(15,1)":       {[4][3]int{{462, 24, 37}, {462, 24, 37}, {100, 58, 58}, {100, 58, 58}}, [4]int{4, 27, 4, 27}},
		"Mixed(15,2)":       {[4][3]int{{462, 19, 36}, {462, 19, 36}, {193, 82, 82}, {193, 82, 82}}, [4]int{7, 41, 5, 35}},
		"Mixed(15,3)":       {[4][3]int{{1295, 47, 81}, {1295, 47, 81}, {325, 143, 143}, {325, 143, 143}}, [4]int{17, 61, 15, 56}},
		"Mixed(15,4)":       {[4][3]int{{280, 15, 27}, {280, 15, 27}, {60, 38, 38}, {60, 38, 38}}, [4]int{3, 25, 2, 23}},
		"Mixed(15,5)":       {[4][3]int{{355, 13, 35}, {355, 13, 35}, {187, 75, 75}, {187, 75, 75}}, [4]int{6, 41, 5, 39}},
		"Mixed(15,6)":       {[4][3]int{{450, 23, 35}, {450, 23, 35}, {83, 52, 52}, {83, 52, 52}}, [4]int{2, 29, 2, 29}},
		"Mixed(15,7)":       {[4][3]int{{264, 9, 21}, {264, 9, 21}, {87, 40, 40}, {87, 40, 40}}, [4]int{6, 40, 5, 36}},
		"Mixed(15,8)":       {[4][3]int{{735, 26, 47}, {735, 26, 47}, {243, 111, 111}, {243, 111, 111}}, [4]int{8, 39, 7, 36}},
		"Irreducible(40,1)": {[4][3]int{{69126, 400, 723}, {69126, 400, 723}, {2001, 922, 922}, {2001, 922, 922}}, [4]int{160, 601, 160, 601}},
		"Irreducible(40,2)": {[4][3]int{{69126, 400, 723}, {69126, 400, 723}, {2001, 922, 922}, {2001, 922, 922}}, [4]int{160, 601, 160, 601}},
		"Irreducible(40,3)": {[4][3]int{{69126, 400, 723}, {69126, 400, 723}, {2001, 922, 922}, {2001, 922, 922}}, [4]int{160, 601, 160, 601}},
		"Irreducible(40,4)": {[4][3]int{{69126, 400, 723}, {69126, 400, 723}, {2001, 922, 922}, {2001, 922, 922}}, [4]int{160, 601, 160, 601}},
		"WideSwitch(20,4)":  {[4][3]int{{1332, 64, 91}, {1332, 64, 91}, {418, 205, 205}, {418, 205, 205}}, [4]int{20, 105, 1, 67}},
		"WideSwitch(20,8)":  {[4][3]int{{2380, 68, 99}, {2380, 68, 99}, {432, 216, 216}, {432, 216, 216}}, [4]int{20, 109, 1, 71}},
		"WideSwitch(20,16)": {[4][3]int{{4860, 76, 115}, {4860, 76, 115}, {450, 233, 233}, {450, 233, 233}}, [4]int{20, 117, 1, 79}},
		"WideSwitch(20,32)": {[4][3]int{{11356, 92, 147}, {11356, 92, 147}, {484, 266, 266}, {484, 266, 266}}, [4]int{20, 133, 1, 95}},
		"WideSwitch(20,64)": {[4][3]int{{30492, 124, 211}, {30492, 124, 211}, {548, 330, 330}, {548, 330, 330}}, [4]int{20, 165, 1, 127}},
		"Wide(300,1)":       {[4][3]int{{104652, 445, 596}, {104652, 445, 596}, {1759, 947, 947}, {1759, 947, 947}}, [4]int{111, 519, 111, 519}},
		"LoopNest(6,4,1)":   {[4][3]int{{2282, 103, 139}, {2282, 103, 139}, {369, 165, 165}, {369, 165, 165}}, [4]int{27, 71, 12, 41}},
	}
	src, err := os.ReadFile("examples/programs/constprop.dfg")
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]*ast.Program{
		"constprop.dfg":   parser.MustParse(string(src)),
		"predSrc":         parser.MustParse("read x; if (x == 5) { y := x; } else { y := 0; } print y;"),
		"Wide(300,1)":     workload.Wide(300, 1),
		"LoopNest(6,4,1)": workload.LoopNest(6, 4, 1),
	}
	for seed := int64(1); seed <= 8; seed++ {
		progs[fmt.Sprintf("Mixed(15,%d)", seed)] = workload.Mixed(15, seed)
	}
	for seed := int64(1); seed <= 4; seed++ {
		progs[fmt.Sprintf("Irreducible(40,%d)", seed)] = workload.Irreducible(40, seed)
	}
	for _, v := range []int{4, 8, 16, 32, 64} {
		progs[fmt.Sprintf("WideSwitch(20,%d)", v)] = workload.WideSwitch(20, v, 1)
	}
	if len(progs) != len(want) {
		t.Fatalf("corpus has %d programs, %d pinned", len(progs), len(want))
	}
	pred := constprop.Options{Predicates: true}
	for name, prog := range progs {
		g, err := cfg.Build(prog)
		if err != nil {
			t.Fatal(err)
		}
		d := dfg.MustBuild(g)
		var got pinned
		for i, r := range []*constprop.Result{
			constprop.CFGOpt(g, constprop.Options{}), constprop.CFGOpt(g, pred),
			constprop.DFGOpt(d, constprop.Options{}), constprop.DFGOpt(d, pred),
		} {
			got.cost[i] = [3]int{r.Cost.Joins, r.Cost.Transfers, r.Cost.Visits}
		}
		c, f := ssa.Cytron(g), ssa.FromDFG(d)
		got.ssa = [4]int{c.NumPhis(), c.Size(), f.NumPhis(), f.Size()}
		if got != want[name] {
			t.Errorf("%s: got %+v, pinned %+v", name, got, want[name])
		}
	}
}
