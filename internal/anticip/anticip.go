// Package anticip implements Section 5.1 of the paper: anticipatability of
// expressions, the backward dataflow problem that def-use chains and SSA
// form cannot express but the DFG can.
//
// An expression e is totally (partially) anticipatable at a point p if on
// every (some) path from p to end there is a computation of e before any
// assignment to a variable of e (Definition 8).
//
// Two solvers are provided:
//
//   - CFG: the classical backward fixpoint of Figure 5(a), one boolean per
//     control flow edge, initialized to true for ANT (greatest fixpoint,
//     so loops converge correctly) and false for PAN.
//
//   - DFG: the sparse solver of Figure 5(b). For each variable x of e, ANT
//     relative to x (Definition 9) is propagated backward over x's
//     dependence edges only: a multiedge tail is anticipatable if any head
//     is (heads postdominate the tail with no intervening definition);
//     switch operators combine their outputs with ∧ (ANT) or ∨ (PAN);
//     merge inputs take the merge's value. Dead switch outputs — removed
//     by the DFG's dead-edge pruning — contribute false, which is exactly
//     the paper's boundary rule for sides where the variable is dead.
//     Results are projected onto CFG edges (every edge between the tail
//     and a true head is anticipatable relative to x), and multivariable
//     expressions combine per-variable projections with ∧ (total) /
//     pointwise rules of §5.1.
package anticip

import (
	"dfg/internal/bitset"
	"dfg/internal/cfg"
	"dfg/internal/dataflow"
	"dfg/internal/dfg"
	"dfg/internal/lang/ast"
)

// Computes reports whether CFG node n contains a computation of e (as a
// subexpression of its assignment RHS, print argument, or switch
// predicate).
func Computes(g *cfg.Graph, n cfg.NodeID, e ast.Expr) bool {
	nd := g.Node(n)
	if nd.Expr == nil {
		return false
	}
	found := false
	ast.WalkExpr(nd.Expr, func(x ast.Expr) {
		if ast.EqualExpr(x, e) {
			found = true
		}
	})
	return found
}

// Kills reports whether node n assigns to any variable of e.
func Kills(g *cfg.Graph, n cfg.NodeID, e ast.Expr) bool {
	d := g.Defs(n)
	if d == "" {
		return false
	}
	for _, v := range ast.ExprVars(e) {
		if v == d {
			return true
		}
	}
	return false
}

// CFGResult holds the per-edge solution of the classical algorithm. ANT and
// PAN are indexed by EdgeID; dead edges read false.
type CFGResult struct {
	G    *cfg.Graph
	Expr ast.Expr
	ANT  []bool
	PAN  []bool
	Cost dataflow.Counter
}

// CFG solves ANT and PAN for expression e over the control flow graph with
// the equations of Figure 5(a).
func CFG(g *cfg.Graph, e ast.Expr) *CFGResult {
	res := &CFGResult{G: g, Expr: e, ANT: make([]bool, g.NumEdges()), PAN: make([]bool, g.NumEdges())}

	// Greatest fixpoint for ANT (init true), least for PAN (init false).
	for _, eid := range g.LiveEdges() {
		res.ANT[eid] = true
	}

	wl := bitset.NewWorklist(g.NumNodes())
	for _, nd := range g.Nodes {
		wl.Push(int(nd.ID))
	}
	for {
		ni, ok := wl.Pop()
		if !ok {
			break
		}
		res.Cost.Visits++
		n := cfg.NodeID(ni)

		// Combine out-edge values.
		outAnt, outPan := false, false
		outs := g.OutEdges(n)
		if len(outs) > 0 {
			outAnt, outPan = true, false
			for _, eid := range outs {
				res.Cost.Joins++
				outAnt = outAnt && res.ANT[eid]
				outPan = outPan || res.PAN[eid]
			}
		}

		// Transfer through the node.
		res.Cost.Transfers++
		var inAnt, inPan bool
		switch {
		case Computes(g, n, e):
			inAnt, inPan = true, true
		case Kills(g, n, e):
			inAnt, inPan = false, false
		default:
			inAnt, inPan = outAnt, outPan
		}

		for _, eid := range g.InEdges(n) {
			if res.ANT[eid] != inAnt || res.PAN[eid] != inPan {
				res.ANT[eid] = inAnt
				res.PAN[eid] = inPan
				wl.Push(int(g.Edge(eid).Src))
			}
		}
	}
	return res
}

// ---------------------------------------------------------------------------
// DFG solver (Figure 5b)

// DFGResult holds the sparse solution: per-variable port values plus the
// CFG projection.
type DFGResult struct {
	D    *dfg.Graph
	Expr ast.Expr
	// AntPort/PanPort: for each variable of the expression, the value at
	// each dependence source port (the multiedge-tail values), indexed by
	// dfg.SrcIndex. Ports lists the live ports of each variable — the
	// indices that carry meaning; dead ports read false.
	AntPort map[string][]bool
	PanPort map[string][]bool
	Ports   map[string][]dfg.Src
	// ANT/PAN: the combined projection onto CFG edges, indexed by EdgeID.
	ANT  []bool
	PAN  []bool
	Cost dataflow.Counter
}

// DFG solves ANT and PAN for e on the dependence flow graph and projects
// the solution onto CFG edges.
func DFG(d *dfg.Graph, e ast.Expr) *DFGResult {
	res := &DFGResult{
		D: d, Expr: e,
		AntPort: map[string][]bool{},
		PanPort: map[string][]bool{},
		Ports:   map[string][]dfg.Src{},
	}
	vars := ast.ExprVars(e)
	for _, x := range vars {
		ports, ant, pan := solveVar(d, x, e, &res.Cost)
		res.Ports[x] = ports
		res.AntPort[x] = ant
		res.PanPort[x] = pan
	}

	// Project each variable's solution onto CFG edges, then combine: e is
	// anticipatable at a point iff it is anticipatable relative to every
	// variable there (§5.1 multivariable rule).
	for i, x := range vars {
		antEdges := projectPorts(d, res.Ports[x], res.AntPort[x], e, true)
		panEdges := projectPorts(d, res.Ports[x], res.PanPort[x], e, false)
		if i == 0 {
			res.ANT, res.PAN = antEdges, panEdges
			continue
		}
		for eid := range res.ANT {
			res.ANT[eid] = res.ANT[eid] && antEdges[eid]
		}
		for eid := range res.PAN {
			res.PAN[eid] = res.PAN[eid] && panEdges[eid]
		}
	}
	if res.ANT == nil { // expression with no variables
		res.ANT = make([]bool, d.G.NumEdges())
		res.PAN = make([]bool, d.G.NumEdges())
	}
	return res
}
