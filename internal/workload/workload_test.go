package workload

import (
	"testing"

	"dfg/internal/cfg"
	"dfg/internal/interp"
	"dfg/internal/lang/ast"
)

// buildOK lowers a generated program and fails on invalid CFGs.
func buildOK(t *testing.T, p *ast.Program, label string) *cfg.Graph {
	t.Helper()
	g, err := cfg.Build(p)
	if err != nil {
		t.Fatalf("%s: %v\nprogram:\n%s", label, err, p)
	}
	return g
}

func TestMixedDeterministic(t *testing.T) {
	a := Mixed(40, 7).String()
	b := Mixed(40, 7).String()
	if a != b {
		t.Error("same seed must give the same program")
	}
	c := Mixed(40, 8).String()
	if a == c {
		t.Error("different seeds should give different programs")
	}
}

func TestMixedProgramsValidAndTerminating(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		g := buildOK(t, Mixed(50, seed), "mixed")
		res, err := interp.Run(g, []int64{5, 3, 8, 1, 9, 2, 7, 4}, 500000)
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			continue
		}
		if len(res.Output) == 0 {
			t.Errorf("seed %d: no observable output", seed)
		}
	}
}

func TestMixedHasControlFlow(t *testing.T) {
	// Aggregate over seeds: generated programs must contain branches and
	// merges (this is what differential tests rely on).
	switches, merges := 0, 0
	for seed := int64(0); seed < 10; seed++ {
		g := buildOK(t, Mixed(60, seed), "mixed")
		for _, nd := range g.Nodes {
			switch nd.Kind {
			case cfg.KindSwitch:
				switches++
			case cfg.KindMerge:
				merges++
			}
		}
	}
	if switches < 10 || merges < 10 {
		t.Errorf("workloads too flat: %d switches, %d merges over 10 seeds", switches, merges)
	}
}

func TestMixedScalesWithBudget(t *testing.T) {
	small := buildOK(t, Mixed(20, 3), "small")
	large := buildOK(t, Mixed(200, 3), "large")
	if len(large.LiveEdges()) < 3*len(small.LiveEdges()) {
		t.Errorf("budget not respected: %d vs %d edges",
			len(small.LiveEdges()), len(large.LiveEdges()))
	}
}

func TestStraightLine(t *testing.T) {
	g := buildOK(t, StraightLine(50, 5, 1), "straight")
	for _, nd := range g.Nodes {
		if nd.Kind == cfg.KindSwitch || nd.Kind == cfg.KindMerge {
			t.Fatal("straight-line program contains control flow")
		}
	}
	if _, err := interp.Run(g, []int64{1, 2, 3, 4, 5}, 10000); err != nil {
		t.Error(err)
	}
}

func TestDiamondLadderShape(t *testing.T) {
	g := buildOK(t, DiamondLadder(6, 3, 1), "ladder")
	switches := 0
	for _, nd := range g.Nodes {
		if nd.Kind == cfg.KindSwitch {
			switches++
		}
	}
	if switches != 6 {
		t.Errorf("switches = %d, want 6 (one per diamond)", switches)
	}
}

func TestLoopNestTerminates(t *testing.T) {
	g := buildOK(t, LoopNest(3, 4, 1), "loopnest")
	res, err := interp.Run(g, []int64{2}, 500000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps < 27 {
		t.Errorf("nest of depth 3 should run >= 27 body steps, got %d total", res.Steps)
	}
}

func TestWideSwitchVariableCount(t *testing.T) {
	p := WideSwitch(10, 16, 1)
	g := buildOK(t, p, "wideswitch")
	// 16 x-variables plus p and y.
	if len(g.VarNames) != 18 {
		t.Errorf("VarNames = %d, want 18", len(g.VarNames))
	}
	if _, err := interp.Run(g, []int64{3}, 100000); err != nil {
		t.Error(err)
	}
}

func TestWideShapeAndTermination(t *testing.T) {
	p := Wide(400, 1)
	if a, b := p.String(), Wide(400, 1).String(); a != b {
		t.Error("same seed must give the same program")
	}
	g := buildOK(t, p, "wide")
	// The fan must be genuinely wide: one diamond and one loop per sibling,
	// so 400/8 = 50 siblings mean >= 100 switch nodes.
	switches := 0
	for _, nd := range g.Nodes {
		if nd.Kind == cfg.KindSwitch {
			switches++
		}
	}
	if switches < 100 {
		t.Errorf("wide program too narrow: %d switches, want >= 100", switches)
	}
	// Variable breadth grows with the sibling count (w_i, k_i, p, s).
	if len(g.VarNames) < 100 {
		t.Errorf("VarNames = %d, want >= 100", len(g.VarNames))
	}
	res, err := interp.Run(g, []int64{7}, 500000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) == 0 {
		t.Error("no observable output")
	}
}

func TestGotoMessValidAndTerminating(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := buildOK(t, GotoMess(10, seed), "gotomess")
		if _, err := interp.Run(g, []int64{4}, 500000); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestGotoMessIsUnstructured(t *testing.T) {
	// At least one seed must produce a merge with an in-edge from a goto
	// (in-degree >= 2 at a label).
	found := false
	for seed := int64(0); seed < 10 && !found; seed++ {
		g := buildOK(t, GotoMess(10, seed), "gotomess")
		for _, nd := range g.Nodes {
			if nd.Kind == cfg.KindMerge && len(g.InEdges(nd.ID)) >= 2 {
				found = true
			}
		}
	}
	if !found {
		t.Error("no unstructured merges found in any seed")
	}
}

func TestGenerateRespectsVarFloor(t *testing.T) {
	c := DefaultConfig(10, 1)
	c.Vars = 0 // must be clamped to >= 1
	p := Generate(c)
	if len(p.Vars()) == 0 {
		t.Error("no variables generated")
	}
}

func TestRedundantValidAndTerminating(t *testing.T) {
	if Redundant(8, 3).String() != Redundant(8, 3).String() {
		t.Error("same seed must give the same program")
	}
	merges := 0
	for seed := int64(0); seed < 20; seed++ {
		g := buildOK(t, Redundant(8, seed), "redundant")
		res, err := interp.Run(g, []int64{3, 5, -2, 7, 1}, 500000)
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			continue
		}
		if want := 2*8 + 4; len(res.Output) != want {
			t.Errorf("seed %d: printed %d values, want %d", seed, len(res.Output), want)
		}
		for _, nd := range g.Nodes {
			if nd.Kind == cfg.KindMerge && len(g.InEdges(nd.ID)) >= 2 {
				merges++
			}
		}
	}
	if merges == 0 {
		t.Error("no conditional or loop merges in any seed")
	}
}

func TestNestedSumShape(t *testing.T) {
	g := buildOK(t, NestedSum(4), "nestedsum")
	res, err := interp.Run(g, []int64{1, 2, 3, 4, 5}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs(); len(got) != 2 || got[0] != "15" || got[1] != "15" {
		t.Errorf("printed %v, want [15 15]", got)
	}
}
