package constprop

import (
	"dfg/internal/bitset"
	"dfg/internal/cfg"
	"dfg/internal/dataflow"
	"dfg/internal/defuse"
	"dfg/internal/dfg"
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

// CFGOpt is CFG with precision extensions enabled per opts.
func CFGOpt(g *cfg.Graph, opts Options) *Result {
	res := &Result{G: g, UseVals: map[UseKey]dataflow.ConstVal{}, NodeReached: map[cfg.NodeID]bool{}}
	vars := g.VarNames
	idx := g.VarIndex()
	nv := len(vars)

	states := make([]env, g.NumEdges())

	topEnv := func() env {
		e := make(env, nv)
		for i := range e {
			e[i] = dataflow.TopVal
		}
		return e
	}

	// joinInto joins src into dst (dst may be nil = unreached), returning
	// the new value and whether it changed.
	joinInto := func(dst, src env, c *dataflow.Counter) (env, bool) {
		if src == nil {
			return dst, false
		}
		if dst == nil {
			cp := make(env, nv)
			copy(cp, src)
			c.Joins += nv
			return cp, true
		}
		changed := false
		for i := range dst {
			nd := dst[i].Join(src[i])
			c.Joins++
			if nd != dst[i] {
				dst[i] = nd
				changed = true
			}
		}
		return dst, changed
	}

	lookupIn := func(in env) func(string) dataflow.ConstVal {
		return func(v string) dataflow.ConstVal {
			if i, ok := idx[v]; ok {
				return in[i]
			}
			return dataflow.TopVal
		}
	}

	wl := &bitset.Worklist{}

	// setOut writes vector s to edge eid, enqueueing the destination on
	// change.
	setOut := func(eid cfg.EdgeID, s env) {
		cur, changed := joinInto(states[eid], s, &res.Cost)
		if changed {
			states[eid] = cur
			wl.Push(int(g.Edge(eid).Dst))
		}
	}

	// Seed: everything unknown at start.
	setOut(g.OutEdges(g.Start)[0], topEnv())

	for {
		ni, ok := wl.Pop()
		if !ok {
			break
		}
		res.Cost.Visits++
		n := cfg.NodeID(ni)
		nd := g.Node(n)

		// IN = join of in-edge states.
		var in env
		for _, eid := range g.InEdges(n) {
			in, _ = joinInto(in, states[eid], &res.Cost)
		}
		if in == nil {
			continue // still unreached
		}

		switch nd.Kind {
		case cfg.KindEnd:
			continue
		case cfg.KindAssign:
			res.Cost.Transfers++
			v := foldExpr(nd.Expr, lookupIn(in))
			out := make(env, nv)
			copy(out, in)
			out[idx[nd.Var]] = v
			setOut(g.OutEdges(n)[0], out)
		case cfg.KindRead:
			out := make(env, nv)
			copy(out, in)
			out[idx[nd.Var]] = dataflow.TopVal
			setOut(g.OutEdges(n)[0], out)
		case cfg.KindSwitch:
			res.Cost.Transfers++
			p := foldExpr(nd.Expr, lookupIn(in))
			takeT := !(p.IsFalse() || p.Kind == dataflow.Bot)
			takeF := !(p.IsTrue() || p.Kind == dataflow.Bot)
			outT, outF := in, in
			if opts.Predicates {
				if fact, ok := predicateFact(nd.Expr); ok {
					refined := make(env, nv)
					copy(refined, in)
					i := idx[fact.Var]
					refined[i] = refine(refined[i], fact.Val)
					if fact.OnTrue {
						outT = refined
					} else {
						outF = refined
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
	for _, nd := range g.Nodes {
		var in env
		for _, eid := range g.InEdges(nd.ID) {
			in, _ = joinInto(in, states[eid], &dataflow.Counter{})
		}
		if nd.ID == g.Start {
			res.NodeReached[nd.ID] = true
		} else {
			res.NodeReached[nd.ID] = in != nil
		}
		for _, v := range g.Uses(nd.ID) {
			if in == nil {
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
func DFGOpt(d *dfg.Graph, opts Options) *Result {
	g := d.G
	res := &Result{G: g, UseVals: map[UseKey]dataflow.ConstVal{}, NodeReached: map[cfg.NodeID]bool{}}

	vals := map[dfg.Src]dataflow.ConstVal{} // default Bottom

	// Index: use sites by node (operand lookup for def/switch transfers),
	// and operator lists by node for re-evaluation scheduling.
	useAt := map[UseKey]*dfg.UseSite{}
	for i := range d.Uses {
		u := &d.Uses[i]
		useAt[UseKey{u.Node, u.Var}] = u
	}
	opsAt := map[cfg.NodeID][]dfg.OpID{}
	for _, op := range d.Ops {
		opsAt[op.Node] = append(opsAt[op.Node], op.ID)
	}

	lookupAt := func(n cfg.NodeID) func(string) dataflow.ConstVal {
		return func(v string) dataflow.ConstVal {
			if u, ok := useAt[UseKey{n, v}]; ok {
				return vals[u.Src]
			}
			return dataflow.TopVal
		}
	}

	// ctlVal gates statements with no variable operands.
	ctlVal := func(n cfg.NodeID) dataflow.ConstVal {
		if u, ok := useAt[UseKey{n, dfg.CtlVar}]; ok {
			return vals[u.Src]
		}
		return dataflow.TopVal // has operand uses; gated through them
	}

	wl := &bitset.Worklist{}

	// setVal raises the value of a port; on change, schedules consumers.
	setVal := func(src dfg.Src, v dataflow.ConstVal) {
		old := vals[src]
		nv := old.Join(v)
		res.Cost.Joins++
		if nv == old {
			return
		}
		vals[src] = nv
		for _, c := range d.Consumers(src) {
			if c.UseIdx >= 0 {
				// A use site feeds the transfer of every operator at its
				// node (def output, switch predicate).
				for _, oid := range opsAt[d.Uses[c.UseIdx].Node] {
					wl.Push(int(oid))
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
				v = foldExpr(nd.Expr, lookupAt(op.Node))
				if len(g.Uses(op.Node)) == 0 {
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
				v = v.Join(vals[in])
				res.Cost.Joins++
			}
			setVal(dfg.Src{Op: op.ID, Out: cfg.BranchNone}, v)

		case dfg.OpSwitch:
			nd := g.Node(op.Node)
			p := foldExpr(nd.Expr, lookupAt(op.Node))
			if len(g.Uses(op.Node)) == 0 && ctlVal(op.Node).Kind == dataflow.Bot {
				p = dataflow.Bottom
			}
			in := vals[op.In[0]]
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

	// Seed with the init operators; everything else follows.
	for _, oid := range d.InitOf {
		wl.Push(int(oid))
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
	for _, u := range d.Uses {
		if u.Var == dfg.CtlVar {
			continue
		}
		res.UseVals[UseKey{u.Node, u.Var}] = vals[u.Src]
	}
	for _, nd := range g.Nodes {
		reached := false
		switch nd.Kind {
		case cfg.KindStart, cfg.KindEnd, cfg.KindMerge, cfg.KindNop:
			reached = true // structural nodes: not meaningful here
		default:
			if len(g.Uses(nd.ID)) == 0 {
				reached = ctlVal(nd.ID).Kind != dataflow.Bot
			} else {
				for _, v := range g.Uses(nd.ID) {
					if vals[useAt[UseKey{nd.ID, v}].Src].Kind != dataflow.Bot {
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
