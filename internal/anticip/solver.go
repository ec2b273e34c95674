package anticip

import (
	"dfg/internal/bitset"
	"dfg/internal/cfg"
	"dfg/internal/dataflow"
	"dfg/internal/dfg"
	"dfg/internal/lang/ast"
)

// livePorts enumerates the live source ports of variable x, the unknowns of
// the sparse fixpoint.
func livePorts(d *dfg.Graph, x string) []dfg.Src {
	var ports []dfg.Src
	for _, op := range d.Ops {
		if op.Var != x {
			continue
		}
		if op.Kind == dfg.OpSwitch {
			for _, out := range []cfg.Branch{cfg.BranchTrue, cfg.BranchFalse} {
				s := dfg.Src{Op: op.ID, Out: out}
				if d.LiveSrc(s) {
					ports = append(ports, s)
				}
			}
		} else {
			s := dfg.Src{Op: op.ID, Out: cfg.BranchNone}
			if d.LiveSrc(s) {
				ports = append(ports, s)
			}
		}
	}
	return ports
}

// solveVar computes ANT and PAN relative to variable x for expression e on
// x's dependence edges (Figure 5(b)). The returned tables are indexed by
// dfg.SrcIndex; ports lists the live ports of x (the indices that carry
// meaning — dead ports read false, the paper's boundary rule).
//
// The unknowns are the multiedge-tail (source-port) values. The value of a
// head is:
//
//   - use site at node n: true iff n computes e (the boundary rule — uses
//     of x that do not compute e contribute false);
//   - merge operator input: the merge output's value (pass-through);
//   - switch operator input: ∧ of the outputs for ANT, ∨ for PAN; output
//     ports pruned by dead-edge removal contribute false (the paper's rule
//     for branch sides where x is dead).
//
// A tail's value is the ∨ of its heads' values: heads postdominate the
// tail with no intervening definition of x, so anticipation at any head
// lifts to the tail. ANT is the greatest fixpoint (ports start true), PAN
// the least (ports start false).
func solveVar(d *dfg.Graph, x string, e ast.Expr, cost *dataflow.Counter) (ports []dfg.Src, ant, pan []bool) {
	ports = livePorts(d, x)
	// index maps a port's dense SrcIndex to its position in ports (-1 for
	// ports of other variables); one table serves both fixpoints.
	index := make([]int, d.NumSrcIndexes())
	for i := range index {
		index[i] = -1
	}
	for i, p := range ports {
		index[dfg.SrcIndex(p)] = i
	}
	ant = fixpoint(d, ports, index, e, cost, true)
	pan = fixpoint(d, ports, index, e, cost, false)
	return ports, ant, pan
}

func fixpoint(d *dfg.Graph, ports []dfg.Src, index []int, e ast.Expr, cost *dataflow.Counter, total bool) []bool {
	g := d.G

	val := make([]bool, d.NumSrcIndexes())
	for _, p := range ports {
		val[dfg.SrcIndex(p)] = total // ANT: greatest fixpoint; PAN: least
	}

	// headVal computes the value of one dependence head under the current
	// port assignment.
	headVal := func(c dfg.Consumer) bool {
		cost.Joins++
		if c.UseIdx >= 0 {
			return Computes(g, d.Uses[c.UseIdx].Node, e)
		}
		op := d.Ops[c.Op]
		switch op.Kind {
		case dfg.OpMerge:
			return val[dfg.SrcIndex(dfg.Src{Op: op.ID, Out: cfg.BranchNone})]
		case dfg.OpSwitch:
			t := val[dfg.SrcIndex(dfg.Src{Op: op.ID, Out: cfg.BranchTrue})]  // false if dead
			f := val[dfg.SrcIndex(dfg.Src{Op: op.ID, Out: cfg.BranchFalse})] // false if dead
			if total {
				return t && f
			}
			return t || f
		}
		return false
	}

	recompute := func(p dfg.Src) bool {
		cost.Transfers++
		v := false
		for _, c := range d.Consumers(p) {
			if !d.LiveConsumer(p, c) {
				continue
			}
			if headVal(c) {
				v = true
				break
			}
		}
		return v
	}

	// Worklist fixpoint. When a port of operator O changes, the ports
	// feeding O's inputs must be re-evaluated.
	wl := bitset.NewWorklist(len(ports))
	for i := range ports {
		wl.Push(i)
	}
	for {
		i, ok := wl.Pop()
		if !ok {
			break
		}
		cost.Visits++
		p := ports[i]
		pi := dfg.SrcIndex(p)
		nv := recompute(p)
		if nv == val[pi] {
			continue
		}
		val[pi] = nv
		for _, in := range d.Ops[p.Op].In {
			if in.Op == dfg.NoOp {
				continue
			}
			if j := index[dfg.SrcIndex(in)]; j >= 0 {
				wl.Push(j)
			}
		}
	}
	return val
}

// projectPorts projects a per-port solution onto CFG edges: for every live
// dependence link whose head value is true, every edge between the link's
// tail and head (inclusive) is anticipatable relative to x. All other
// edges are false (where x's dependences do not flow, x is dead, and an
// expression over x cannot be anticipatable).
func projectPorts(d *dfg.Graph, ports []dfg.Src, val []bool, e ast.Expr, total bool) []bool {
	g := d.G
	out := make([]bool, g.NumEdges())

	headVal := func(c dfg.Consumer) bool {
		if c.UseIdx >= 0 {
			return Computes(g, d.Uses[c.UseIdx].Node, e)
		}
		op := d.Ops[c.Op]
		switch op.Kind {
		case dfg.OpMerge:
			return val[dfg.SrcIndex(dfg.Src{Op: op.ID, Out: cfg.BranchNone})]
		case dfg.OpSwitch:
			t := val[dfg.SrcIndex(dfg.Src{Op: op.ID, Out: cfg.BranchTrue})]
			f := val[dfg.SrcIndex(dfg.Src{Op: op.ID, Out: cfg.BranchFalse})]
			if total {
				return t && f
			}
			return t || f
		}
		return false
	}

	// Epoch-stamped visited set shared by all markBetween walks.
	seen := make([]int32, g.NumEdges())
	epoch := int32(0)
	for _, p := range ports {
		for _, c := range d.Consumers(p) {
			if !d.LiveConsumer(p, c) || !headVal(c) {
				continue
			}
			epoch++
			markBetween(g, d.TailEdge(p), d.HeadEdge(c), out, seen, epoch)
		}
	}
	return out
}

// markBetween marks every CFG edge on a path from tail to head, walking
// backward from head and stopping at tail. Because tail dominates head and
// head postdominates tail (Definition 6), every edge met this way lies
// between them.
func markBetween(g *cfg.Graph, tail, head cfg.EdgeID, out []bool, seen []int32, epoch int32) {
	if tail == cfg.NoEdge || head == cfg.NoEdge {
		return
	}
	out[head] = true
	if head == tail {
		return
	}
	seen[head] = epoch
	stack := []cfg.EdgeID{head}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, pe := range g.InEdges(g.Edge(cur).Src) {
			if seen[pe] == epoch {
				continue
			}
			seen[pe] = epoch
			out[pe] = true
			if pe != tail {
				stack = append(stack, pe)
			}
		}
	}
}
