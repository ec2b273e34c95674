// Package-level benchmarks: one per experiment of EXPERIMENTS.md, runnable
// with `go test -bench=. -benchmem`. These are the testing.B counterparts
// of cmd/dfg-bench, whose textual tables are the primary reproduction
// artifact; here the same computations are exposed to Go's benchmarking
// machinery for ns/op and allocation tracking.
package main

import (
	"fmt"
	"testing"

	"dfg/internal/anticip"
	"dfg/internal/cdg"
	"dfg/internal/cfg"
	"dfg/internal/constprop"
	"dfg/internal/defuse"
	"dfg/internal/dfg"
	"dfg/internal/epr"
	"dfg/internal/lang/ast"
	"dfg/internal/lang/parser"
	"dfg/internal/regions"
	"dfg/internal/ssa"
	"dfg/internal/workload"
)

func mustCFG(b *testing.B, p *ast.Program) *cfg.Graph {
	b.Helper()
	g, err := cfg.Build(p)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkE1_Representations builds all three representations of the
// Figure 1 running example.
func BenchmarkE1_Representations(b *testing.B) {
	prog := parser.MustParse(`
		read a;
		x := 1;
		if (x == 1) { y := 2; } else { y := 3; a := y; }
		y := y + 1;
		print y;`)
	g := mustCFG(b, prog)
	b.Run("defuse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			defuse.Compute(g)
		}
	})
	b.Run("ssa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ssa.Cytron(g)
		}
	})
	b.Run("dfg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dfg.Build(g); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE2_DFGConstruction measures DFG construction (bypassing and
// dead-edge removal included) on a mid-sized mixed program.
func BenchmarkE2_DFGConstruction(b *testing.B) {
	g := mustCFG(b, workload.Mixed(400, 7))
	info, err := regions.Analyze(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dfg.BuildWithInfo(g, info); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4_ConstProp sweeps the variable count at fixed control
// structure: the CFG algorithm's cost grows with V, the DFG algorithm's
// barely moves (§4).
func BenchmarkE4_ConstProp(b *testing.B) {
	for _, v := range []int{8, 32, 128} {
		g := mustCFG(b, workload.WideSwitch(40, v, 1))
		d := dfg.MustBuild(g)
		b.Run(fmt.Sprintf("CFG/V=%d", v), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				constprop.CFG(g)
			}
		})
		b.Run(fmt.Sprintf("DFG/V=%d", v), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				constprop.DFG(d)
			}
		})
	}
}

// BenchmarkE5_Anticipatability compares the backward solvers (§5.1).
func BenchmarkE5_Anticipatability(b *testing.B) {
	g := mustCFG(b, workload.Mixed(300, 3))
	d := dfg.MustBuild(g)
	e := parser.MustParse("tmp__ := v0 + 1;").Stmts[0].(*ast.AssignStmt).RHS
	b.Run("CFG", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			anticip.CFG(g, e)
		}
	})
	b.Run("DFG", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			anticip.DFG(d, e)
		}
	})
}

// BenchmarkE7_EPR measures the whole partial redundancy elimination pass.
func BenchmarkE7_EPR(b *testing.B) {
	g := mustCFG(b, workload.Mixed(120, 3))
	for i := 0; i < b.N; i++ {
		if _, _, err := epr.Apply(g, epr.DriverCFG); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8_CycleEquiv measures the O(E) cycle-equivalence pass, the
// factored partition built on it (what the pipeline's cdg stage serves)
// and the postdominator-based FOW relation (§3.1).
func BenchmarkE8_CycleEquiv(b *testing.B) {
	for _, n := range []int{500, 2000, 8000} {
		g := mustCFG(b, workload.Mixed(n, 7))
		edges := len(g.LiveEdges())
		b.Run(fmt.Sprintf("classes/E=%d", edges), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				regions.EdgeClasses(g)
			}
		})
		b.Run(fmt.Sprintf("factored-partition/E=%d", edges), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cdg.BuildFactored(g)
			}
		})
		b.Run(fmt.Sprintf("FOW/E=%d", edges), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cdg.BuildFOW(g)
			}
		})
	}
}

// BenchmarkE9_SSA compares the two SSA constructions (§3.3). The DFG
// variant includes DFG construction (its selling point is needing no
// dominance computation, not end-to-end speed).
func BenchmarkE9_SSA(b *testing.B) {
	g := mustCFG(b, workload.Mixed(1000, 11))
	b.Run("Cytron", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ssa.Cytron(g)
		}
	})
	b.Run("viaDFG", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d, err := dfg.Build(g)
			if err != nil {
				b.Fatal(err)
			}
			ssa.FromDFG(d)
		}
	})
}

// BenchmarkE10_Sizes builds the three representations of the diamond-ladder
// family: def-use chains blow up quadratically, SSA and DFG stay linear.
func BenchmarkE10_Sizes(b *testing.B) {
	for _, k := range []int{8, 32} {
		g := mustCFG(b, workload.DiamondLadder(k, 4, 1))
		b.Run(fmt.Sprintf("defuse/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				defuse.Compute(g)
			}
		})
		b.Run(fmt.Sprintf("ssa/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ssa.Cytron(g)
			}
		})
		b.Run(fmt.Sprintf("dfg/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dfg.Build(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE11_Predicates measures the predicate-analysis extension's
// overhead over plain constant propagation.
func BenchmarkE11_Predicates(b *testing.B) {
	g := mustCFG(b, workload.Mixed(300, 5))
	d := dfg.MustBuild(g)
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			constprop.DFG(d)
		}
	})
	b.Run("predicates", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			constprop.DFGOpt(d, constprop.Options{Predicates: true})
		}
	})
}
