package constprop

import (
	"testing"

	"dfg/internal/cfg"
	"dfg/internal/dfg"
	"dfg/internal/workload"
)

// The §3.3 claim under test: "the DFG-based optimization algorithms
// described in this paper work correctly even if some or no bypassing at
// all is performed."
func TestDFGAlgorithmIdenticalAcrossGranularities(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g, err := cfg.Build(workload.Mixed(30, seed))
		if err != nil {
			t.Fatal(err)
		}
		ref := CFG(g)
		for _, gran := range []dfg.Granularity{dfg.GranRegions, dfg.GranBasicBlocks, dfg.GranNone} {
			d, err := dfg.BuildGranularity(g, gran)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, gran, err)
			}
			if err := Agree(ref, DFG(d)); err != nil {
				t.Errorf("seed %d, granularity %v: CFG vs DFG: %v", seed, gran, err)
			}
		}
	}
}

// Less bypassing means more operators to evaluate: the cost ordering should
// favour the full-region DFG.
func TestDFGCostOrderedByGranularity(t *testing.T) {
	g, err := cfg.Build(workload.WideSwitch(30, 32, 1))
	if err != nil {
		t.Fatal(err)
	}
	cost := map[dfg.Granularity]int{}
	for _, gran := range []dfg.Granularity{dfg.GranRegions, dfg.GranNone} {
		d, err := dfg.BuildGranularity(g, gran)
		if err != nil {
			t.Fatal(err)
		}
		cost[gran] = DFG(d).Cost.Total()
	}
	if cost[dfg.GranRegions] >= cost[dfg.GranNone] {
		t.Errorf("region bypassing should reduce analysis cost: regions=%d none=%d",
			cost[dfg.GranRegions], cost[dfg.GranNone])
	}
}
