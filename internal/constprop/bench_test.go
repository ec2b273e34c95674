package constprop

import (
	"testing"

	"dfg/internal/cfg"
	"dfg/internal/dfg"
	"dfg/internal/workload"
)

// BenchmarkMixed15 times the two algorithms on Mixed(15) seeds 1–8, the
// size a served cold request has, for comparing the sparse algorithm's
// constant factors with the dense baseline's.
func BenchmarkMixed15(b *testing.B) {
	var gs []*cfg.Graph
	var ds []*dfg.Graph
	for seed := int64(1); seed <= 8; seed++ {
		g, err := cfg.Build(workload.Mixed(15, seed))
		if err != nil {
			b.Fatal(err)
		}
		gs = append(gs, g)
		ds = append(ds, dfg.MustBuild(g))
	}
	b.Run("CFGOpt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, g := range gs {
				CFGOpt(g, Options{})
			}
		}
	})
	b.Run("DFGOpt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, d := range ds {
				DFGOpt(d, Options{})
			}
		}
	})
}
