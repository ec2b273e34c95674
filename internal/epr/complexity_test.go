package epr

import (
	"math"
	"testing"

	"dfg/internal/anticip"
	"dfg/internal/cfg"
	"dfg/internal/dataflow"
	"dfg/internal/dfg"
	"dfg/internal/lang/ast"
	"dfg/internal/workload"
)

// sparseSolveMaxOpsPerDep bounds the batched DFG solves' operation count
// per live dependence: about 16 is measured for ANT/PAN plus 8 for AV/PAV.
const sparseSolveMaxOpsPerDep = 32

// TestSparseSolveOpsLinear is the sparse solvers' linearity as a
// deterministic gate: for each size ladder it fits the log-log slope of the
// batched DFG solves' operation count (ANT/PAN plus AV/PAV, all candidates
// of the program) against the DFG's live dependences, and asserts the slope
// is at most 1.1 and the count per dependence stays under a fixed bound.
//
// The counter is not the whole cost. It counts port visits, transfers and
// head joins, which are linear in the dependences; but SolvePorts zeroes
// the E×W projection and combines it over every CFG edge once per
// variable, so a solve's wall time is O(E·|Vars|·W) for W words per row.
// Measured best of 3 on a 2-vCPU VM: Mixed(4000) takes 0.64 s in SolveDFG
// and 0.63 s in dfgAVPAVBatch at 16.8 ops per dependence; Mixed(8000)
// takes 4.8 s and 4.6 s at 17.1. That is the hostile-input cost an
// analysis budget has to bound.
func TestSparseSolveOpsLinear(t *testing.T) {
	ladders := map[string][]*ast.Program{}
	for _, n := range []int{250, 500, 1000, 2000} {
		ladders["mixed"] = append(ladders["mixed"], workload.Mixed(n, 1))
	}
	for _, n := range []int{25, 50, 100, 200, 400} {
		ladders["irreducible"] = append(ladders["irreducible"], workload.Irreducible(n, 1))
	}
	for _, w := range []int{8, 16, 32, 64, 128, 256} {
		ladders["loopnest"] = append(ladders["loopnest"], workload.LoopNest(4, w, 1))
	}
	for name, progs := range ladders {
		var xs, ys []float64
		for _, p := range progs {
			g, err := cfg.Build(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			d := dfg.MustBuild(g)
			deps := d.ComputeStats().Dependences
			f := anticip.NewFamily(g, CandidateExprs(g))
			var ant, av dataflow.Counter
			opsOf := d.OpsByVar()
			f.SolveDFGOps(d, opsOf, nil, &ant)
			dfgAVPAVBatch(f, d, opsOf, nil, &av)
			ops := ant.Total() + av.Total()
			t.Logf("%s: %d dependences, %d candidates: ANT/PAN %.1f, AV/PAV %.1f ops per dependence",
				name, deps, len(f.Exprs), float64(ant.Total())/float64(deps), float64(av.Total())/float64(deps))
			if per := float64(ops) / float64(deps); per > sparseSolveMaxOpsPerDep {
				t.Errorf("%s: %d ops over %d dependences (%.1f each), want <= %d",
					name, ops, deps, per, sparseSolveMaxOpsPerDep)
			}
			xs = append(xs, math.Log(float64(deps)))
			ys = append(ys, math.Log(float64(ops)))
		}
		if slope := fitSlope(xs, ys); slope > 1.1 {
			t.Errorf("%s: sparse-solve ops grow as dependences^%.2f, want slope <= 1.1", name, slope)
		}
	}
}

// fitSlope is the least-squares slope of ys against xs.
func fitSlope(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}
