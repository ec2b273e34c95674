package constprop

import (
	"fmt"

	"dfg/internal/bitset"
	"dfg/internal/cfg"
	"dfg/internal/dataflow"
	"dfg/internal/defuse"
	"dfg/internal/dfg"
	"dfg/internal/graph"
)

// UseKey identifies one variable use site for result comparison.
type UseKey struct {
	Node cfg.NodeID
	Var  string
}

// Result is the common output of all three constant propagation algorithms:
// a lattice value for every variable use site, plus reachability and cost
// accounting. Algorithms that cannot determine reachability (DefUse) report
// every node reachable.
type Result struct {
	G *cfg.Graph
	// UseVals maps every use site to its lattice value. ⊥ means the use is
	// dead code; a constant means the use has that value in all executions.
	UseVals map[UseKey]dataflow.ConstVal
	// NodeReached reports which nodes the analysis proved reachable.
	NodeReached map[cfg.NodeID]bool
	// Cost tallies the analysis's abstract operations (experiment E4).
	Cost dataflow.Counter
}

// ConstUses counts use sites proved constant.
func (r *Result) ConstUses() int {
	n := 0
	for _, v := range r.UseVals {
		if v.Kind == dataflow.Const {
			n++
		}
	}
	return n
}

// Agree reports whether two results give every use site the same lattice
// value: first the use counts, then every use. A non-nil error names the
// least differing use site (by node, then variable), so the message does not
// depend on map order.
func Agree(a, b *Result) error {
	if len(a.UseVals) != len(b.UseVals) {
		return fmt.Errorf("constprop: use counts differ: %d vs %d", len(a.UseVals), len(b.UseVals))
	}
	var err error
	var first UseKey
	for k, va := range a.UseVals {
		vb, ok := b.UseVals[k]
		if ok && va == vb {
			continue
		}
		if err != nil && (first.Node < k.Node || first.Node == k.Node && first.Var < k.Var) {
			continue
		}
		first = k
		if ok {
			err = fmt.Errorf("constprop: use %s@n%d: %s vs %s", k.Var, k.Node, va, vb)
		} else {
			err = fmt.Errorf("constprop: use %s@n%d missing in second result", k.Var, k.Node)
		}
	}
	return err
}

// ---------------------------------------------------------------------------
// CFG algorithm (Figure 4a)

// envOf is the per-edge state: nil means "unreached" (the paper's ⊥
// vector); otherwise a dense vector indexed by variable.
type env []dataflow.ConstVal

// CFG runs the standard constant propagation of Figure 4(a): vectors of
// lattice values on CFG edges, iterated to fixpoint with a worklist. The
// switch equations kill untaken sides, so possible-paths constants are
// found. Each node visit costs O(V·degree) lattice work — the source of the
// O(EV²) bound the DFG algorithm improves on.
func CFG(g *cfg.Graph) *Result { return CFGOpt(g, Options{}) }

// CFGOpt is CFG with precision extensions enabled per opts. Only the
// per-edge states are allocated: every node's IN vector, and the OUT vector
// an assignment or a refined switch side builds from it, live in two
// scratch vectors, and setOut copies them into an edge's state on first
// arrival.
func CFGOpt(g *cfg.Graph, opts Options) *Result {
	nn, ne := g.NumNodes(), g.NumEdges()
	res := &Result{G: g, NodeReached: make(map[cfg.NodeID]bool, nn)}
	vars := g.VarNames
	idx := g.VarIndex()
	nv := len(vars)

	// states[e] is nil until edge e is reached; then it is edge e's slice of
	// slab.
	states := make([]env, ne)
	slab := make([]dataflow.ConstVal, ne*nv)

	// joinInto joins src into edge eid's state, returning whether it
	// changed.
	joinInto := func(eid cfg.EdgeID, src env) bool {
		dst := states[eid]
		if dst == nil {
			dst = slab[int(eid)*nv : (int(eid)+1)*nv : (int(eid)+1)*nv]
			copy(dst, src)
			states[eid] = dst
			res.Cost.Joins += nv
			return true
		}
		changed := false
		for i := range dst {
			nd := dst[i].Join(src[i])
			res.Cost.Joins++
			if nd != dst[i] {
				dst[i] = nd
				changed = true
			}
		}
		return changed
	}

	// joinIn computes node n's IN vector (the join of its in-edge states)
	// into the in scratch vector; false means n is still unreached.
	in, out := make(env, nv), make(env, nv)
	joinIn := func(n cfg.NodeID, c *dataflow.Counter) bool {
		reached := false
		for _, eid := range g.InEdges(n) {
			src := states[eid]
			if src == nil {
				continue
			}
			if !reached {
				copy(in, src)
				c.Joins += nv
				reached = true
				continue
			}
			for i := range in {
				in[i] = in[i].Join(src[i])
				c.Joins++
			}
		}
		return reached
	}

	lookupIn := func(v string) dataflow.ConstVal {
		if i, ok := idx[v]; ok {
			return in[i]
		}
		return dataflow.TopVal
	}

	wl := &bitset.Worklist{}

	// setOut writes vector s to edge eid, enqueueing the destination on
	// change.
	setOut := func(eid cfg.EdgeID, s env) {
		if joinInto(eid, s) {
			wl.Push(int(g.Edge(eid).Dst))
		}
	}

	// Seed: everything unknown at start.
	for i := range out {
		out[i] = dataflow.TopVal
	}
	setOut(g.OutEdges(g.Start)[0], out)

	for {
		ni, ok := wl.Pop()
		if !ok {
			break
		}
		res.Cost.Visits++
		n := cfg.NodeID(ni)
		nd := g.Node(n)

		if !joinIn(n, &res.Cost) {
			continue // still unreached
		}

		switch nd.Kind {
		case cfg.KindEnd:
			continue
		case cfg.KindAssign:
			res.Cost.Transfers++
			v := foldExpr(nd.Expr, lookupIn)
			copy(out, in)
			out[idx[nd.Var]] = v
			setOut(g.OutEdges(n)[0], out)
		case cfg.KindRead:
			copy(out, in)
			out[idx[nd.Var]] = dataflow.TopVal
			setOut(g.OutEdges(n)[0], out)
		case cfg.KindSwitch:
			res.Cost.Transfers++
			p := foldExpr(nd.Expr, lookupIn)
			takeT := !(p.IsFalse() || p.Kind == dataflow.Bot)
			takeF := !(p.IsTrue() || p.Kind == dataflow.Bot)
			outT, outF := in, in
			if opts.Predicates {
				if fact, ok := predicateFact(nd.Expr); ok {
					copy(out, in)
					i := idx[fact.Var]
					out[i] = refine(out[i], fact.Val)
					if fact.OnTrue {
						outT = out
					} else {
						outF = out
					}
				}
			}
			if takeT {
				setOut(g.SwitchEdge(n, cfg.BranchTrue), outT)
			}
			if takeF {
				setOut(g.SwitchEdge(n, cfg.BranchFalse), outF)
			}
		default: // merge, print, nop
			setOut(g.OutEdges(n)[0], in)
		}
	}

	// Extract use values from in-edge states.
	uses := g.UsesByNode()
	numUses := 0
	for _, us := range uses {
		numUses += len(us)
	}
	res.UseVals = make(map[UseKey]dataflow.ConstVal, numUses)
	var uncounted dataflow.Counter
	for _, nd := range g.Nodes {
		reached := joinIn(nd.ID, &uncounted)
		res.NodeReached[nd.ID] = reached || nd.ID == g.Start
		for _, v := range uses[nd.ID] {
			if !reached {
				res.UseVals[UseKey{nd.ID, v}] = dataflow.Bottom
			} else {
				res.UseVals[UseKey{nd.ID, v}] = in[idx[v]]
			}
		}
	}
	return res
}

// ---------------------------------------------------------------------------
// DFG algorithm (Figure 4b)

// DFG runs the paper's sparse constant propagation on the dependence flow
// graph: one lattice value per dependence source, propagated through def,
// merge and switch operators. Dead code is pruned exactly as in the CFG
// algorithm because control edges route the dummy control variable through
// the same switch operators.
func DFG(d *dfg.Graph) *Result { return DFGOpt(d, Options{}) }

// DFGOpt is DFG with precision extensions enabled per opts. Predicate
// refinement applies at the switch operator of the tested variable — a
// refinement that is natural here precisely because the DFG, unlike SSA,
// intercepts dependences at switches (§4).
//
// The state is dense: one lattice value per source port (dfg.SrcIndex), and
// per-node lists of use sites and operators. A node has few use sites, so
// an operand is found by a linear scan of its node's list.
func DFGOpt(d *dfg.Graph, opts Options) *Result {
	g := d.G
	nn := g.NumNodes()
	res := &Result{G: g, NodeReached: make(map[cfg.NodeID]bool, nn)}

	vals := make([]dataflow.ConstVal, d.NumSrcIndexes()) // zero value is ⊥
	val := func(s dfg.Src) dataflow.ConstVal {
		if s.Op == dfg.NoOp {
			return dataflow.Bottom // a use site orphaned by a patch
		}
		return vals[dfg.SrcIndex(s)]
	}

	// Index: use sites by node (operand lookup for def/switch transfers),
	// and operators by node for re-evaluation scheduling, both in ID order:
	// usesAt(n) is useAt[useOff[n]:useOff[n+1]], opsAt(n) likewise.
	useOff, useAt := graph.Group(nn, len(d.Uses), func(i int) int { return int(d.Uses[i].Node) })
	opOff, opsAt := graph.Group(nn, len(d.Ops), func(i int) int { return int(d.Ops[i].Node) })

	// operands[n] lists the variables node n reads.
	operands := g.UsesByNode()

	// useOf returns the use site of v at node n. A patched graph may hold
	// an orphaned site before the fresh one, so the last match wins.
	useOf := func(n cfg.NodeID, v string) *dfg.UseSite {
		for i := useOff[n+1] - 1; i >= useOff[n]; i-- {
			if u := &d.Uses[useAt[i]]; u.Var == v {
				return u
			}
		}
		return nil
	}
	// at is the node whose operands lookup reads.
	var at cfg.NodeID
	lookup := func(v string) dataflow.ConstVal {
		if u := useOf(at, v); u != nil {
			return val(u.Src)
		}
		return dataflow.TopVal
	}

	// ctlVal gates statements with no variable operands.
	ctlVal := func(n cfg.NodeID) dataflow.ConstVal {
		if u := useOf(n, dfg.CtlVar); u != nil {
			return val(u.Src)
		}
		return dataflow.TopVal // has operand uses; gated through them
	}

	wl := &bitset.Worklist{}

	// setVal raises the value of a port; on change, schedules consumers.
	setVal := func(src dfg.Src, v dataflow.ConstVal) {
		i := dfg.SrcIndex(src)
		old := vals[i]
		nv := old.Join(v)
		res.Cost.Joins++
		if nv == old {
			return
		}
		vals[i] = nv
		for _, c := range d.Consumers(src) {
			if c.UseIdx >= 0 {
				// A use site feeds the transfer of every operator at its
				// node (def output, switch predicate).
				n := d.Uses[c.UseIdx].Node
				for _, oid := range opsAt[opOff[n]:opOff[n+1]] {
					wl.Push(oid)
				}
			} else {
				wl.Push(int(c.Op))
			}
		}
	}

	evalOp := func(op *dfg.Op) {
		res.Cost.Transfers++
		switch op.Kind {
		case dfg.OpInit:
			setVal(dfg.Src{Op: op.ID, Out: cfg.BranchNone}, dataflow.TopVal)

		case dfg.OpDef:
			nd := g.Node(op.Node)
			var v dataflow.ConstVal
			switch nd.Kind {
			case cfg.KindAssign:
				at = op.Node
				v = foldExpr(nd.Expr, lookup)
				if len(operands[op.Node]) == 0 {
					// Constant right-hand side: gate on the control edge.
					if ctlVal(op.Node).Kind == dataflow.Bot {
						v = dataflow.Bottom
					}
				}
			case cfg.KindRead:
				if ctlVal(op.Node).Kind == dataflow.Bot {
					v = dataflow.Bottom
				} else {
					v = dataflow.TopVal
				}
			}
			setVal(dfg.Src{Op: op.ID, Out: cfg.BranchNone}, v)

		case dfg.OpMerge:
			v := dataflow.Bottom
			for _, in := range op.In {
				v = v.Join(val(in))
				res.Cost.Joins++
			}
			setVal(dfg.Src{Op: op.ID, Out: cfg.BranchNone}, v)

		case dfg.OpSwitch:
			nd := g.Node(op.Node)
			at = op.Node
			p := foldExpr(nd.Expr, lookup)
			if len(operands[op.Node]) == 0 && ctlVal(op.Node).Kind == dataflow.Bot {
				p = dataflow.Bottom
			}
			in := val(op.In[0])
			t, f := dataflow.Bottom, dataflow.Bottom
			if !(p.IsFalse() || p.Kind == dataflow.Bot) {
				t = in
			}
			if !(p.IsTrue() || p.Kind == dataflow.Bot) {
				f = in
			}
			if opts.Predicates {
				if fact, ok := predicateFact(nd.Expr); ok && fact.Var == op.Var {
					if fact.OnTrue && t.Kind != dataflow.Bot {
						t = refine(t, fact.Val)
					} else if !fact.OnTrue && f.Kind != dataflow.Bot {
						f = refine(f, fact.Val)
					}
				}
			}
			setVal(dfg.Src{Op: op.ID, Out: cfg.BranchTrue}, t)
			setVal(dfg.Src{Op: op.ID, Out: cfg.BranchFalse}, f)
		}
	}

	// Seed with the init operators in variable order; everything else
	// follows.
	for _, v := range append([]string{dfg.CtlVar, dfg.IOVar}, g.VarNames...) {
		if oid, ok := d.InitOf[v]; ok {
			wl.Push(int(oid))
		}
	}
	for {
		oi, ok := wl.Pop()
		if !ok {
			break
		}
		res.Cost.Visits++
		evalOp(&d.Ops[oi])
	}

	// Extract use values and node reachability (a node is reached iff its
	// control gate or any operand dependence is non-⊥).
	numUses := 0
	for i := range d.Uses {
		if d.Uses[i].Var != dfg.CtlVar {
			numUses++
		}
	}
	res.UseVals = make(map[UseKey]dataflow.ConstVal, numUses)
	for _, u := range d.Uses {
		if u.Var == dfg.CtlVar {
			continue
		}
		res.UseVals[UseKey{u.Node, u.Var}] = val(u.Src)
	}
	for _, nd := range g.Nodes {
		reached := false
		switch nd.Kind {
		case cfg.KindStart, cfg.KindEnd, cfg.KindMerge, cfg.KindNop:
			reached = true // structural nodes: not meaningful here
		default:
			if len(operands[nd.ID]) == 0 {
				reached = ctlVal(nd.ID).Kind != dataflow.Bot
			} else {
				for _, v := range operands[nd.ID] {
					if val(useOf(nd.ID, v).Src).Kind != dataflow.Bot {
						reached = true
					}
				}
			}
		}
		res.NodeReached[nd.ID] = reached
	}
	return res
}

// ---------------------------------------------------------------------------
// Def-use chain algorithm (§2.2 baseline)

// DefUse runs the classic def-use-chain constant propagation: a use is the
// join of its reaching definitions' values, with no reachability pruning.
// It finds only all-paths constants (Figure 3's possible-paths constants
// are missed) — the precision gap of §2.2.
func DefUse(g *cfg.Graph, chains *defuse.Chains) *Result {
	res := &Result{G: g, UseVals: map[UseKey]dataflow.ConstVal{}, NodeReached: map[cfg.NodeID]bool{}}

	defVal := map[cfg.NodeID]dataflow.ConstVal{} // per def site
	useVal := map[UseKey]dataflow.ConstVal{}

	// usesOfDef: which uses each def reaches; defsAt: defs feeding a use.
	usesOfDef := map[cfg.NodeID][]UseKey{}
	defsOfUse := map[UseKey][]cfg.NodeID{}
	for _, ch := range chains.All {
		k := UseKey{ch.Use, ch.Var}
		usesOfDef[ch.Def] = append(usesOfDef[ch.Def], k)
		defsOfUse[k] = append(defsOfUse[k], ch.Def)
	}

	lookup := func(n cfg.NodeID) func(string) dataflow.ConstVal {
		return func(v string) dataflow.ConstVal {
			k := UseKey{n, v}
			if len(defsOfUse[k]) == 0 {
				return dataflow.TopVal // uninitialized: unknown
			}
			return useVal[k]
		}
	}

	// Worklist over def sites.
	wl := &bitset.Worklist{}
	for _, d := range chains.Defs {
		wl.Push(int(d.Node))
	}
	for {
		ni, ok := wl.Pop()
		if !ok {
			break
		}
		res.Cost.Visits++
		n := cfg.NodeID(ni)
		nd := g.Node(n)
		var v dataflow.ConstVal
		switch nd.Kind {
		case cfg.KindAssign:
			res.Cost.Transfers++
			v = foldExpr(nd.Expr, lookup(n))
		case cfg.KindRead:
			v = dataflow.TopVal
		}
		if v == defVal[n] {
			continue
		}
		defVal[n] = v
		// Push the new value along the chains to uses; re-evaluate affected
		// defs.
		for _, uk := range usesOfDef[n] {
			nv := useVal[uk].Join(v)
			res.Cost.Joins++
			if nv == useVal[uk] {
				continue
			}
			useVal[uk] = nv
			if g.Defs(uk.Node) != "" {
				wl.Push(int(uk.Node))
			}
		}
	}

	for _, nd := range g.Nodes {
		res.NodeReached[nd.ID] = true // no reachability information
		for _, v := range g.Uses(nd.ID) {
			k := UseKey{nd.ID, v}
			if len(defsOfUse[k]) == 0 {
				res.UseVals[k] = dataflow.TopVal
			} else {
				res.UseVals[k] = useVal[k]
			}
		}
	}
	return res
}
