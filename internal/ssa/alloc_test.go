package ssa

import (
	"testing"

	"dfg/internal/cfg"
	"dfg/internal/dfg"
	"dfg/internal/workload"
)

// TestAllocs gates both constructions' allocations. What remains is mostly
// the exported Form itself (one argument map per φ, the φ and use maps) and
// the dominator computation; per-variable scratch, per-node maps or
// map-keyed renaming state would multiply it.
func TestAllocs(t *testing.T) {
	var mixed []*cfg.Graph
	for seed := int64(1); seed <= 8; seed++ {
		g, err := cfg.Build(workload.Mixed(15, seed))
		if err != nil {
			t.Fatal(err)
		}
		mixed = append(mixed, g)
	}
	wide, err := cfg.Build(workload.Wide(300, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name                  string
		gs                    []*cfg.Graph
		cytronMax, fromDFGMax float64 // allocations per call
	}{
		{"Mixed(15) seeds 1-8", mixed, 150, 60},
		{"Wide(300)", []*cfg.Graph{wide}, 1000, 500},
	} {
		ds := make([]*dfg.Graph, len(c.gs))
		for i, g := range c.gs {
			ds[i] = dfg.MustBuild(g)
		}
		perCall := func(f func(i int)) float64 {
			return testing.AllocsPerRun(10, func() {
				for i := range c.gs {
					f(i)
				}
			}) / float64(len(c.gs))
		}
		cytron := perCall(func(i int) { Cytron(c.gs[i]) })
		fromDFG := perCall(func(i int) { FromDFG(ds[i]) })
		if cytron > c.cytronMax {
			t.Errorf("%s: Cytron %.1f allocations per call, want <= %.0f", c.name, cytron, c.cytronMax)
		}
		if fromDFG > c.fromDFGMax {
			t.Errorf("%s: FromDFG %.1f allocations per call, want <= %.0f", c.name, fromDFG, c.fromDFGMax)
		}
		t.Logf("%s: Cytron %.1f, FromDFG %.1f allocations per call", c.name, cytron, fromDFG)
	}
}
