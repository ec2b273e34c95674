package constprop

import (
	"testing"

	"dfg/internal/cfg"
	"dfg/internal/dfg"
	"dfg/internal/workload"
)

// TestAllocs gates both algorithms' allocations. Their state is dense
// (per-edge vectors carved from one slab, per-port values, per-node index
// lists), so a call allocates a constant handful of objects whatever the
// program's size: map-keyed state, or a fresh vector per join or transfer,
// allocates per node, edge or port instead.
func TestAllocs(t *testing.T) {
	const limit = 60 // allocations per call
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
		name string
		gs   []*cfg.Graph
	}{{"Mixed(15) seeds 1-8", mixed}, {"Wide(300)", []*cfg.Graph{wide}}} {
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
		cfgAllocs := perCall(func(i int) { CFGOpt(c.gs[i], Options{}) })
		dfgAllocs := perCall(func(i int) { DFGOpt(ds[i], Options{}) })
		if cfgAllocs > limit || dfgAllocs > limit {
			t.Errorf("%s: CFGOpt %.1f, DFGOpt %.1f allocations per call, want <= %d", c.name, cfgAllocs, dfgAllocs, limit)
		}
		t.Logf("%s: CFGOpt %.1f, DFGOpt %.1f allocations per call", c.name, cfgAllocs, dfgAllocs)
	}
}
