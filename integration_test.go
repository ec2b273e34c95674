// Integration tests: the whole pipeline — parse → CFG → regions → DFG →
// analyses → optimizations → interpret — exercised end to end. The
// experiment harness runs in quick mode in cmd/dfg-bench's tests.
package main

import (
	"testing"

	"dfg/internal/cfg"
	"dfg/internal/constprop"
	"dfg/internal/dfg"
	"dfg/internal/epr"
	"dfg/internal/interp"
	"dfg/internal/lang/parser"
	"dfg/internal/regions"
	"dfg/internal/ssa"
	"dfg/internal/workload"
)

// TestFullPipelineOnPaperExamples drives every stage on each of the paper's
// example programs and checks cross-stage consistency.
func TestFullPipelineOnPaperExamples(t *testing.T) {
	srcs := map[string]string{
		"fig1": `
			read a;
			x := 1;
			if (x == 1) { y := 2; } else { y := 3; a := y; }
			y := y + 1;
			print y;`,
		"fig2": `
			read p;
			y := 2;
			if (p > 0) { x := 1; y := 1; } else { x := 2; }
			print x; print y;`,
		"fig3b": `
			p := 1;
			if (p == 1) { x := 1; } else { x := 2; }
			y := x;
			print y;`,
		"sec1-chain": `
			read a; read b;
			z := a + b;
			w := a + b;
			x := z + 1;
			y := w + 1;
			print x; print y;`,
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			g, err := cfg.Build(parser.MustParse(src))
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Validate(); err != nil {
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
			if err := d.VerifyDefinition6(); err != nil {
				t.Fatal(err)
			}
			if err := ssa.EquivalentOnUses(ssa.Cytron(g), ssa.FromDFG(d)); err != nil {
				t.Fatal(err)
			}

			// Constant propagation, then EPR, then run everything against
			// the original.
			cp, err := constprop.Apply(constprop.CFG(g))
			if err != nil {
				t.Fatal(err)
			}
			pre, _, err := epr.Apply(cp, epr.DriverDFG)
			if err != nil {
				t.Fatal(err)
			}
			for _, inputs := range [][]int64{nil, {3, 4}, {-1, 7}} {
				want, errW := interp.Run(g, inputs, 200000)
				got, errG := interp.Run(pre, inputs, 200000)
				if (errW == nil) != (errG == nil) {
					t.Fatalf("error mismatch: %v vs %v", errW, errG)
				}
				if errW == nil && !interp.SameOutput(want, got) {
					t.Errorf("outputs differ on %v: %v vs %v", inputs, want.Outputs(), got.Outputs())
				}
			}
		})
	}
}

// TestPipelineComposedOptimizations runs constprop followed by EPR followed
// by copy propagation on random programs and checks behaviour.
func TestPipelineComposedOptimizations(t *testing.T) {
	if testing.Short() {
		t.Skip("long differential test")
	}
	for seed := int64(500); seed < 512; seed++ {
		g, err := cfg.Build(workload.Mixed(40, seed))
		if err != nil {
			t.Fatal(err)
		}
		s1, err := constprop.Apply(constprop.CFGOpt(g, constprop.Options{Predicates: true}))
		if err != nil {
			t.Fatal(err)
		}
		s2, _, err := epr.Apply(s1, epr.DriverDFG)
		if err != nil {
			t.Fatal(err)
		}
		s3 := epr.CopyPropagate(s2)
		if err := s3.Validate(); err != nil {
			t.Fatalf("seed %d: invalid graph: %v", seed, err)
		}
		for _, inputs := range [][]int64{{1, 2, 3, 4}, {9, -2, 0, 5}} {
			want, errW := interp.Run(g, inputs, 400000)
			got, errG := interp.Run(s3, inputs, 400000)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("seed %d: error mismatch: %v vs %v", seed, errW, errG)
			}
			if errW != nil {
				continue
			}
			if !interp.SameOutput(want, got) {
				t.Errorf("seed %d: outputs differ on %v", seed, inputs)
			}
			if got.BinOps > want.BinOps {
				t.Errorf("seed %d: pipeline made the program slower: %d > %d binops",
					seed, got.BinOps, want.BinOps)
			}
		}
	}
}
