package epr

import (
	"sort"

	"dfg/internal/anticip"
	"dfg/internal/bitset"
	"dfg/internal/cfg"
	"dfg/internal/dataflow"
	"dfg/internal/dfg"
	"dfg/internal/lang/ast"
)

// analyzeExprScalar is the pre-batching implementation, retained as the
// differential reference for the batched solvers.
func analyzeExprScalar(g *cfg.Graph, e ast.Expr, driver Driver, d *dfg.Graph) (*Analysis, error) {
	a := &Analysis{G: g, Expr: e}

	switch driver {
	case DriverDFG:
		if d == nil {
			var err error
			d, err = dfg.Build(g)
			if err != nil {
				return nil, err
			}
		}
		r := anticip.DFG(d, e)
		a.ANT, a.PAN = r.ANT, r.PAN
		a.Cost.Add(r.Cost)
		// AV and PAV on the dependence flow graph too (Fig 5(b): "AV is a
		// forward problem"). Edges not covered by the variables' dependence
		// flow read false, which is safe: every edge EPR's decision rules
		// consult lies where the operands are live, hence covered.
		a.AV = dfgAV(d, e, true, &a.Cost)
		a.PAV = dfgAV(d, e, false, &a.Cost)
	default:
		r := anticip.CFG(g, e)
		a.ANT, a.PAN = r.ANT, r.PAN
		a.Cost.Add(r.Cost)
		a.AV = availability(g, e, true, &a.Cost)
		a.PAV = availability(g, e, false, &a.Cost)
	}

	a.placeAndDelete()
	return a, nil
}

// availability solves AV (total=true) or PAV (total=false) per edge: the
// expression has been computed on every/some path from start with no
// subsequent assignment to its variables.
func availability(g *cfg.Graph, e ast.Expr, total bool, cost *dataflow.Counter) []bool {
	av := make([]bool, g.NumEdges())
	if total {
		for _, eid := range g.LiveEdges() {
			av[eid] = true // GFP for AV, LFP for PAV
		}
	}
	av[g.OutEdges(g.Start)[0]] = false

	wl := &bitset.Worklist{}
	for _, nd := range g.Nodes {
		wl.Push(int(nd.ID))
	}
	for {
		ni, ok := wl.Pop()
		if !ok {
			break
		}
		cost.Visits++
		n := cfg.NodeID(ni)
		nd := g.Node(n)
		if nd.Kind == cfg.KindStart {
			continue // boundary
		}

		in := total
		ins := g.InEdges(n)
		if len(ins) == 0 {
			in = false
		}
		for _, eid := range ins {
			cost.Joins++
			if total {
				in = in && av[eid]
			} else {
				if eid == ins[0] {
					in = av[eid]
				} else {
					in = in || av[eid]
				}
			}
		}

		cost.Transfers++
		out := in
		if anticip.Kills(g, n, e) {
			out = false
			// A node that computes e and then kills one of its variables
			// (x := x+1) does not make e available.
		} else if anticip.Computes(g, n, e) {
			out = true
		}

		for _, eid := range g.OutEdges(n) {
			if av[eid] != out {
				av[eid] = out
				wl.Push(int(g.Edge(eid).Dst))
			}
		}
	}
	return av
}

// DFG-based availability (Figure 5(b): "ANT and PAN are backward dataflow
// problems, while AV is a forward problem").
//
// Availability decomposes per variable exactly like anticipatability:
// AV(e) = ∧ over x ∈ vars(e) of AV-relative-to-x, where AV-rel-x at p means
// "on every path to p, e was computed after the most recent assignment to
// x". (For one path, if each variable has a computation after its own last
// def, the latest computation follows them all; quantifying over paths
// commutes with the conjunction.)
//
// On x's dependence edges, AV-rel-x propagates forward:
//
//   - the init and def operators produce false (a fresh value of x kills e);
//   - a use head that computes e turns the value true for the rest of the
//     multiedge (heads are totally ordered by dominance, so "the rest" is
//     well defined by sorting heads in edge preorder);
//   - merge operators conjoin their inputs; switch operators copy.
//
// Where x's dependences do not flow (x dead), relative availability reads
// false; EPR never consults it there (anticipatability is false at those
// points, and deletions only happen at computing nodes, where every operand
// is live).

// dfgAV computes AV (total=true) or PAV (total=false) for e per CFG edge
// using the dependence flow graph. The result is indexed by EdgeID; edges
// not covered by every variable's dependence flow read false (treated as
// unknown-safe by EPR's decision rules).
func dfgAV(d *dfg.Graph, e ast.Expr, total bool, cost *dataflow.Counter) []bool {
	av, _ := dfgAVCovered(d, e, total, cost)
	return av
}

// dfgAVCovered additionally reports which edges carry a defined answer:
// covered[eid] is true iff every variable's dependence flow reaches eid.
// Uncovered entries of av are false.
func dfgAVCovered(d *dfg.Graph, e ast.Expr, total bool, cost *dataflow.Counter) (av, covered []bool) {
	vars := ast.ExprVars(e)
	var pre []int // edge preorder, shared by the per-variable solves
	for _, x := range vars {
		if pre == nil {
			pre = d.G.EdgePreorder()
		}
		proj, cov := dfgAVVar(d, x, e, pre, total, cost)
		if av == nil {
			av, covered = proj, cov
			continue
		}
		for eid := range av {
			av[eid] = av[eid] && proj[eid]
			covered[eid] = covered[eid] && cov[eid]
		}
	}
	if av == nil {
		av = make([]bool, d.G.NumEdges())
		covered = make([]bool, d.G.NumEdges())
	}
	// An uncovered edge reads false regardless of a partial projection.
	for eid := range av {
		av[eid] = av[eid] && covered[eid]
	}
	return av, covered
}

// dfgAVVar solves relative availability for one variable and projects it
// onto the CFG edges its dependences cover; cov marks the covered edges.
// pre is the graph's edge preorder (g.EdgePreorder), computed by the caller
// so one table serves every variable.
func dfgAVVar(d *dfg.Graph, x string, e ast.Expr, pre []int, total bool, cost *dataflow.Counter) (out, cov []bool) {
	g := d.G

	// Live ports of x with their live consumers in dominance (preorder)
	// order. portIdx maps a port's dense SrcIndex to its position in ports
	// (-1 elsewhere).
	type portInfo struct {
		src   dfg.Src
		heads []dfg.Consumer
	}
	var ports []portInfo
	portIdx := make([]int, d.NumSrcIndexes())
	for i := range portIdx {
		portIdx[i] = -1
	}
	addPort := func(s dfg.Src) {
		if !d.LiveSrc(s) {
			return
		}
		var heads []dfg.Consumer
		for _, c := range d.Consumers(s) {
			if d.LiveConsumer(s, c) {
				heads = append(heads, c)
			}
		}
		sort.SliceStable(heads, func(i, j int) bool {
			return pre[d.HeadEdge(heads[i])] < pre[d.HeadEdge(heads[j])]
		})
		portIdx[dfg.SrcIndex(s)] = len(ports)
		ports = append(ports, portInfo{src: s, heads: heads})
	}
	for _, op := range d.Ops {
		if op.Var != x {
			continue
		}
		if op.Kind == dfg.OpSwitch {
			addPort(dfg.Src{Op: op.ID, Out: cfg.BranchTrue})
			addPort(dfg.Src{Op: op.ID, Out: cfg.BranchFalse})
		} else {
			addPort(dfg.Src{Op: op.ID, Out: cfg.BranchNone})
		}
	}

	// Unknown: the value at each port's origin. Init/def ports are the
	// constant false (a fresh x kills e); merge/switch outputs are derived
	// from their inputs' positional values. AV uses a greatest fixpoint,
	// PAV a least fixpoint.
	val := make([]bool, len(ports))
	for i, p := range ports {
		switch d.Ops[p.src.Op].Kind {
		case dfg.OpInit, dfg.OpDef:
			val[i] = false
		default:
			val[i] = total
		}
	}

	// posVal(src, k): the value flowing just after the first k heads.
	posVal := func(src dfg.Src, k int) bool {
		i := portIdx[dfg.SrcIndex(src)]
		if i < 0 {
			return false
		}
		v := val[i]
		for j := 0; j < k && j < len(ports[i].heads); j++ {
			c := ports[i].heads[j]
			if c.UseIdx >= 0 && anticip.Computes(g, d.Uses[c.UseIdx].Node, e) {
				v = true
			}
		}
		return v
	}

	// inputPos locates, for an operator input, the producing port and the
	// consumer's position among its ordered heads.
	inputPos := func(opID dfg.OpID, inIdx int) (dfg.Src, int) {
		src := d.Ops[opID].In[inIdx]
		i := portIdx[dfg.SrcIndex(src)]
		if i < 0 {
			return src, 0
		}
		for k, c := range ports[i].heads {
			if c.UseIdx == -1 && c.Op == opID && c.InIdx == inIdx {
				return src, k
			}
		}
		return src, len(ports[i].heads)
	}

	recompute := func(i int) bool {
		cost.Transfers++
		p := ports[i]
		op := d.Ops[p.src.Op]
		switch op.Kind {
		case dfg.OpInit, dfg.OpDef:
			return false
		case dfg.OpSwitch:
			src, k := inputPos(op.ID, 0)
			return posVal(src, k)
		case dfg.OpMerge:
			acc := total
			for inIdx := range op.In {
				src, k := inputPos(op.ID, inIdx)
				v := posVal(src, k)
				cost.Joins++
				if total {
					acc = acc && v
				} else {
					if inIdx == 0 {
						acc = v
					} else {
						acc = acc || v
					}
				}
			}
			return acc
		}
		return false
	}

	// Fixpoint: when a port changes, re-evaluate ports fed by it (its
	// consumers that are operators).
	wl := &bitset.Worklist{}
	for i := range ports {
		wl.Push(i)
	}
	for {
		i, ok := wl.Pop()
		if !ok {
			break
		}
		cost.Visits++
		nv := recompute(i)
		if nv == val[i] {
			continue
		}
		val[i] = nv
		for _, c := range ports[i].heads {
			if c.UseIdx >= 0 {
				continue
			}
			op := d.Ops[c.Op]
			if op.Kind == dfg.OpSwitch {
				if j := portIdx[dfg.SrcIndex(dfg.Src{Op: op.ID, Out: cfg.BranchTrue})]; j >= 0 {
					wl.Push(j)
				}
				if j := portIdx[dfg.SrcIndex(dfg.Src{Op: op.ID, Out: cfg.BranchFalse})]; j >= 0 {
					wl.Push(j)
				}
			} else if op.Kind == dfg.OpMerge {
				if j := portIdx[dfg.SrcIndex(dfg.Src{Op: op.ID, Out: cfg.BranchNone})]; j >= 0 {
					wl.Push(j)
				}
			}
		}
	}

	// Projection: walk each port's spans in head (dominance) order. Edges
	// from the span cursor up to and including a head's in-edge carry the
	// value *before* that head's node executes; a computing head raises
	// the value for the edges after its node. Two heads can share one head
	// edge (a switch's predicate use and the switch operator's input), so
	// each span is marked only once. A head at a node redefining x ends
	// the old value's life there — its out-edge belongs to the def
	// operator's (false) span.
	out = make([]bool, g.NumEdges())
	cov = make([]bool, g.NumEdges())
	seen := make([]int32, g.NumEdges())
	epoch := int32(0)
	for i, p := range ports {
		v := val[i]
		prevEdge := d.TailEdge(p.src)
		lastMarked := cfg.NoEdge
		for _, c := range p.heads {
			he := d.HeadEdge(c)
			if he != lastMarked {
				epoch++
				markBetweenEdges(g, prevEdge, he, v, out, cov, seen, epoch)
				lastMarked = he
			}
			if c.UseIdx < 0 {
				continue // operator head: downstream handled by its ports
			}
			node := d.Uses[c.UseIdx].Node
			if anticip.Computes(g, node, e) {
				v = true
			}
			if g.Defs(node) == x {
				break // x redefined: this port's value dies here
			}
			if outs := g.OutEdges(node); len(outs) == 1 {
				prevEdge = outs[0]
				out[prevEdge] = v
				cov[prevEdge] = true
				lastMarked = cfg.NoEdge
			}
		}
	}
	return out, cov
}

// markBetweenEdges writes v to the CFG edges on paths from tail to head,
// inclusive (same walk as the anticipatability projection), and flags them
// covered. seen/epoch form a reusable visited set shared by consecutive
// walks.
func markBetweenEdges(g *cfg.Graph, tail, head cfg.EdgeID, v bool, out, cov []bool, seen []int32, epoch int32) {
	if tail == cfg.NoEdge || head == cfg.NoEdge {
		return
	}
	out[head] = v
	cov[head] = true
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
			out[pe] = v
			cov[pe] = true
			if pe != tail {
				stack = append(stack, pe)
			}
		}
	}
}
