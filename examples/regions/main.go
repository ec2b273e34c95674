// Regions example: single-entry single-exit decomposition and the factored
// control dependence graph on *unstructured* control flow (§3.1). The
// cycle-equivalence algorithm needs no dominators and handles irreducible
// graphs produced by gotos.
//
//	go run ./examples/regions
package main

import (
	"fmt"
	"log"

	"dfg/internal/cdg"
	"dfg/internal/cfg"
	"dfg/internal/dfg"
	"dfg/internal/lang/parser"
	"dfg/internal/regions"
	"dfg/internal/ssa"
)

// An irreducible loop: control can enter the cycle at A or at B.
const program = `
	read p;
	if (p > 0) { goto B; }
	label A:
	x := 1;
	label B:
	x := x + 1;
	if (x < p) { goto A; }
	print x;
`

func main() {
	prog, err := parser.Parse(program)
	if err != nil {
		log.Fatal(err)
	}
	g, err := cfg.Build(prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== CFG (irreducible) ==")
	fmt.Print(g)

	// Edge equivalence classes and canonical SESE regions.
	info, err := regions.Analyze(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== program structure tree ==")
	fmt.Print(info)

	// The same partition drives the factored control dependence graph —
	// every class of nodes with identical control dependence appears once.
	// Each class's dependence set is read off the postdominator baseline at
	// one member.
	fmt.Println("== factored control dependence graph ==")
	fact := cdg.BuildFactored(g)
	fmt.Print(fact.Format(cdg.ClassDeps(g, fact, cdg.BuildFOW(g))))

	// And SSA construction without dominance frontiers: derive it from the
	// DFG and check it against the classic construction.
	d, err := dfg.Build(g)
	if err != nil {
		log.Fatal(err)
	}
	derived := ssa.FromDFG(d)
	baseline := ssa.Cytron(g)
	fmt.Println("== SSA from the DFG (no dominators computed) ==")
	fmt.Print(derived)
	if err := ssa.EquivalentOnUses(baseline, derived); err != nil {
		log.Fatalf("forms disagree: %v", err)
	}
	fmt.Println("matches Cytron SSA on every use: yes")
}
