package anticip

import (
	"dfg/internal/bitset"
	"dfg/internal/cfg"
	"dfg/internal/dataflow"
	"dfg/internal/dfg"
	"dfg/internal/lang/ast"
)

// Batched bit-vector solving. EPR examines every candidate expression of a
// round against the same graph state, and the per-candidate solvers repeat
// the whole traversal once per expression. Section 5.1 frames
// anticipatability for multi-variable expressions as a family of
// per-expression predicates over one sparse graph, so the classical
// bit-vector move applies directly: give each candidate one bit, turn the
// per-edge booleans into machine words, and solve the whole family in a
// single fixpoint. A Family precomputes the per-node COMPUTES and KILLS
// rows once; SolveCFG and SolveDFG then run the Figure 5(a)/5(b)
// algorithms with word-wide transfers. Bit k of every result row equals
// the per-candidate answer of CFG/DFG for Exprs[k] exactly (the fixpoints
// are greatest/least solutions of monotone equations, so iteration order —
// the only thing batching changes — cannot affect them).

// Family indexes a candidate expression list for batched solving.
type Family struct {
	G     *cfg.Graph
	Exprs []ast.Expr
	Words int // words per row (bitset.WordsFor(len(Exprs)))

	// Comp and Kill hold one row per CFG NodeID: bit k of Comp is set iff
	// the node computes Exprs[k] (Computes), bit k of Kill iff the node
	// assigns a variable of Exprs[k] (Kills).
	Comp *bitset.Matrix
	Kill *bitset.Matrix

	// Vars lists the distinct variables across Exprs in first-occurrence
	// order; Mask[x] has bit k set iff Exprs[k] uses x, NotMask[x] is its
	// complement within the family width. Per-variable DFG solutions are
	// combined under these masks: candidates not containing x are
	// unconstrained by x's flow.
	Vars    []string
	Mask    map[string][]uint64
	NotMask map[string][]uint64

	// Varless has bit k set iff Exprs[k] uses no variable at all. Such
	// expressions escape every per-variable constraint, but the scalar DFG
	// solvers define them as nowhere anticipatable/available; the batched
	// DFG solvers clear these bits to match.
	Varless []uint64

	// Live caches G.LiveEdges(), refreshed by Update; the placement rules
	// consult it once per candidate, which would otherwise re-derive it.
	Live []cfg.EdgeID

	// byHash maps a structural expression hash to the candidate indexes
	// with that hash — a prefilter; matches are confirmed with
	// ast.EqualExpr (hashes can collide, and renderings are not injective
	// either: -3 renders like unary minus applied to 3).
	byHash map[uint64][]int
}

// Scratch holds the reusable buffers of the batched DFG solvers. One
// scratch serves any number of sequential solves over the same or evolving
// graphs (the EPR transformation loop reuses one across a whole run); the
// zero value is ready to use. Invariants between uses: Index is all -1 (the
// solvers restore the entries they set), Seen carries only epochs below
// Epoch, and Val/Proj contents are unspecified.
type Scratch struct {
	Val   *bitset.Matrix // port values, one row per dfg source index
	Proj  *bitset.Matrix // per-variable CFG projection, one row per edge
	Index []int          // source index -> port position, -1 when unset
	Seen  []int32        // epoch-stamped edge marks for the span walks
	Cov   []bool         // covered-edge flags (availability projection)
	Stack []cfg.EdgeID   // span-walk DFS stack
	Heads []dfg.Consumer // arena for per-port consumer lists
	Epoch int32
	WL    dataflow.Worklist

	// Result arenas: the matrices returned by the batched solvers. A new
	// solve with the same scratch overwrites the previous solve's results,
	// which the EPR loop tolerates (it keeps only per-candidate copies).
	Ant, Pan, Av, Pav bitset.Matrix
}

// Prepare sizes the buffers for a graph with the given edge and source
// counts and a family of bitCount candidates. Idempotent and cheap when
// the sizes are unchanged.
func (sc *Scratch) Prepare(edges, srcs, bitCount int) {
	if sc.Val == nil {
		sc.Val = &bitset.Matrix{}
		sc.Proj = &bitset.Matrix{}
	}
	sc.Val.Reshape(srcs, bitCount)
	sc.Proj.Reshape(edges, bitCount)
	for len(sc.Index) < srcs {
		sc.Index = append(sc.Index, -1)
	}
	if len(sc.Seen) < edges {
		sc.Seen = append(sc.Seen, make([]int32, edges-len(sc.Seen))...)
	}
	if len(sc.Cov) < edges {
		sc.Cov = append(sc.Cov, make([]bool, edges-len(sc.Cov))...)
	}
	if sc.Epoch > 1<<30 { // epoch wraparound: restart the stamp space
		for i := range sc.Seen {
			sc.Seen[i] = 0
		}
		sc.Epoch = 0
	}
}

// NewFamily precomputes the per-node transfer rows for exprs over g.
func NewFamily(g *cfg.Graph, exprs []ast.Expr) *Family {
	f := &Family{
		G: g, Exprs: exprs, Words: bitset.WordsFor(len(exprs)),
		Mask:    make(map[string][]uint64),
		NotMask: make(map[string][]uint64),
		byHash:  make(map[uint64][]int, len(exprs)),
	}
	f.Live = g.LiveEdges()
	f.Varless = make([]uint64, f.Words)
	for k, e := range exprs {
		h := ast.HashExpr(e)
		f.byHash[h] = append(f.byHash[h], k)
		vars := ast.ExprVars(e)
		if len(vars) == 0 {
			f.Varless[k>>6] |= 1 << (uint(k) & 63)
		}
		for _, v := range vars {
			m := f.Mask[v]
			if m == nil {
				m = make([]uint64, f.Words)
				f.Mask[v] = m
				f.Vars = append(f.Vars, v)
			}
			m[k>>6] |= 1 << (uint(k) & 63)
		}
	}
	tail := uint(len(exprs)) & 63
	for v, m := range f.Mask {
		nm := make([]uint64, f.Words)
		for i := range nm {
			nm[i] = ^m[i]
		}
		if tail != 0 {
			nm[len(nm)-1] &= 1<<tail - 1
		}
		f.NotMask[v] = nm
	}
	f.Comp = bitset.NewMatrix(g.NumNodes(), len(exprs))
	f.Kill = bitset.NewMatrix(g.NumNodes(), len(exprs))
	for _, nd := range g.Nodes {
		f.refreshNode(nd.ID)
	}
	return f
}

// refreshNode recomputes node n's Comp and Kill rows from its current
// expression and defined variable.
func (f *Family) refreshNode(n cfg.NodeID) {
	krow := f.Kill.Row(int(n))
	bitset.WordsZero(krow)
	if d := f.G.Defs(n); d != "" {
		if m, ok := f.Mask[d]; ok {
			bitset.WordsCopy(krow, m)
		}
	}
	crow := f.Comp.Row(int(n))
	bitset.WordsZero(crow)
	nd := f.G.Node(n)
	if nd.Expr == nil {
		return
	}
	ast.WalkExpr(nd.Expr, func(x ast.Expr) {
		for _, k := range f.byHash[ast.HashExpr(x)] {
			if ast.EqualExpr(x, f.Exprs[k]) {
				crow[k>>6] |= 1 << (uint(k) & 63)
			}
		}
	})
}

// Update refreshes the transfer rows after a graph mutation: the matrices
// grow to the current node count and the listed nodes (new or rewritten)
// are recomputed. Rows of untouched nodes stay valid because Comp/Kill
// depend only on a node's own expression and defined variable.
func (f *Family) Update(nodes []cfg.NodeID) {
	f.Comp.EnsureRows(f.G.NumNodes())
	f.Kill.EnsureRows(f.G.NumNodes())
	for _, n := range nodes {
		f.refreshNode(n)
	}
	f.Live = f.G.LiveEdges()
}

// SolveCFG solves ANT and PAN for every candidate at once with the
// classical backward fixpoint of Figure 5(a). The returned matrices are
// indexed by EdgeID; bit k of a row equals CFG(g, Exprs[k]).ANT/PAN at
// that edge.
func (f *Family) SolveCFG(cost *dataflow.Counter) (ant, pan *bitset.Matrix) {
	g := f.G
	n := len(f.Exprs)
	ant = bitset.NewMatrix(g.NumEdges(), n)
	pan = bitset.NewMatrix(g.NumEdges(), n)
	if n == 0 {
		return ant, pan
	}

	// Greatest fixpoint for ANT (init true on live edges), least for PAN.
	for _, eid := range f.Live {
		bitset.WordsFill(ant.Row(int(eid)), n)
	}

	outAnt := make([]uint64, f.Words)
	outPan := make([]uint64, f.Words)
	inAnt := make([]uint64, f.Words)
	inPan := make([]uint64, f.Words)
	wl := dataflow.NewWorklist()
	for _, nd := range g.Nodes {
		wl.Push(int(nd.ID))
	}
	for {
		ni, ok := wl.Pop()
		if !ok {
			break
		}
		cost.Visits++
		nid := cfg.NodeID(ni)

		// Combine out-edge rows.
		outs := g.OutEdges(nid)
		bitset.WordsZero(outAnt)
		bitset.WordsZero(outPan)
		if len(outs) > 0 {
			bitset.WordsFill(outAnt, n)
			for _, eid := range outs {
				cost.Joins++
				bitset.WordsAnd(outAnt, ant.Row(int(eid)))
				bitset.WordsOr(outPan, pan.Row(int(eid)))
			}
		}

		// Transfer: in = COMP ∨ (out ∖ KILL) — Computes wins over Kills,
		// matching the scalar case order.
		cost.Transfers++
		comp := f.Comp.Row(int(nid))
		kill := f.Kill.Row(int(nid))
		bitset.WordsCopy(inAnt, comp)
		bitset.WordsOrAndNot(inAnt, outAnt, kill)
		bitset.WordsCopy(inPan, comp)
		bitset.WordsOrAndNot(inPan, outPan, kill)

		for _, eid := range g.InEdges(nid) {
			ra, rp := ant.Row(int(eid)), pan.Row(int(eid))
			if !bitset.WordsEqual(ra, inAnt) || !bitset.WordsEqual(rp, inPan) {
				bitset.WordsCopy(ra, inAnt)
				bitset.WordsCopy(rp, inPan)
				wl.Push(int(g.Edge(eid).Src))
			}
		}
	}
	return ant, pan
}

// SolveDFG solves ANT and PAN for every candidate on the dependence flow
// graph (the sparse solver of Figure 5(b)) and projects the solution onto
// CFG edges. Bit k of a row equals DFG(d, Exprs[k]).ANT/PAN at that edge.
func (f *Family) SolveDFG(d *dfg.Graph, cost *dataflow.Counter) (ant, pan *bitset.Matrix) {
	return f.SolveDFGOps(d, d.OpsByVar(), nil, cost)
}

// SolveDFGOpsParallel is SolveDFGOps on a fresh scratch.
//
// Deprecated: intra-program parallelism is gone; pool and workers are
// ignored. Call SolveDFGOps.
func (f *Family) SolveDFGOpsParallel(d *dfg.Graph, opsOf map[string][]dfg.OpID, pool any, workers int, cost *dataflow.Counter) (ant, pan *bitset.Matrix) {
	return f.SolveDFGOps(d, opsOf, nil, cost)
}

// SolveDFGOps is SolveDFG with a caller-supplied operator index (one
// d.OpsByVar() can serve several batched solves over the same graph
// state) and an optional reusable scratch.
func (f *Family) SolveDFGOps(d *dfg.Graph, opsOf map[string][]dfg.OpID, sc *Scratch, cost *dataflow.Counter) (ant, pan *bitset.Matrix) {
	g := f.G
	n := len(f.Exprs)
	if n == 0 {
		return bitset.NewMatrix(g.NumEdges(), n), bitset.NewMatrix(g.NumEdges(), n)
	}
	if sc == nil {
		sc = &Scratch{}
	}
	sc.Prepare(g.NumEdges(), d.NumSrcIndexes(), n)

	// Every candidate has at least one variable, so each bit is constrained
	// by at least one per-variable projection below; start from all-ones
	// (every row is written here, so the reshaped arenas need no clearing).
	ant, pan = &sc.Ant, &sc.Pan
	ant.Reshape(g.NumEdges(), n)
	pan.Reshape(g.NumEdges(), n)
	for i := 0; i < g.NumEdges(); i++ {
		bitset.WordsFill(ant.Row(i), n)
		bitset.WordsFill(pan.Row(i), n)
	}
	val := sc.Val   // port values, one solve at a time
	proj := sc.Proj // per-variable CFG projection
	// The solver relies on dead ports reading zero; the scratch rows are
	// unspecified, so clear them once per call.
	bitset.WordsZero(val.W)
	hv := make([]uint64, f.Words)
	scratch := make([]uint64, f.Words)
	seen := sc.Seen
	stack := sc.Stack

	// index is reset per variable by clearing just the entries it set.
	index := sc.Index
	var ports []dfg.Src

	for _, x := range f.Vars {
		ports = ports[:0]
		for _, id := range opsOf[x] {
			if d.Ops[id].Kind == dfg.OpSwitch {
				for _, out := range []cfg.Branch{cfg.BranchTrue, cfg.BranchFalse} {
					if s := (dfg.Src{Op: id, Out: out}); d.LiveSrc(s) {
						ports = append(ports, s)
					}
				}
			} else {
				if s := (dfg.Src{Op: id, Out: cfg.BranchNone}); d.LiveSrc(s) {
					ports = append(ports, s)
				}
			}
		}
		for i, p := range ports {
			index[dfg.SrcIndex(p)] = i
		}

		// headValInto mirrors the scalar solver's headVal with word rows:
		// use heads read the COMPUTES row of their node, merge inputs pass
		// the merge output through, switch inputs combine the two outputs
		// (∧ for ANT, ∨ for PAN; dead ports read zero).
		headValInto := func(dst []uint64, c dfg.Consumer, total bool) {
			cost.Joins++
			if c.UseIdx >= 0 {
				bitset.WordsCopy(dst, f.Comp.Row(int(d.Uses[c.UseIdx].Node)))
				return
			}
			op := &d.Ops[c.Op]
			switch op.Kind {
			case dfg.OpMerge:
				bitset.WordsCopy(dst, val.Row(dfg.SrcIndex(dfg.Src{Op: op.ID, Out: cfg.BranchNone})))
			case dfg.OpSwitch:
				t := val.Row(dfg.SrcIndex(dfg.Src{Op: op.ID, Out: cfg.BranchTrue}))
				fr := val.Row(dfg.SrcIndex(dfg.Src{Op: op.ID, Out: cfg.BranchFalse}))
				bitset.WordsCopy(dst, t)
				if total {
					bitset.WordsAnd(dst, fr)
				} else {
					bitset.WordsOr(dst, fr)
				}
			default:
				bitset.WordsZero(dst)
			}
		}

		solve := func(total bool) {
			// Only this variable's port rows participate; rows of dead
			// ports are never written, so they stay zero from allocation
			// ("dead ports read zero" below holds without a full clear).
			for _, p := range ports {
				row := val.Row(dfg.SrcIndex(p))
				if total {
					bitset.WordsFill(row, n)
				} else {
					bitset.WordsZero(row)
				}
			}
			wl := &sc.WL
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
				cost.Transfers++
				// A tail's value is the ∨ of its live heads' values.
				bitset.WordsZero(scratch)
				for _, c := range d.Consumers(p) {
					if !d.LiveConsumer(p, c) {
						continue
					}
					headValInto(hv, c, total)
					bitset.WordsOr(scratch, hv)
				}
				if bitset.WordsEqual(scratch, val.Row(pi)) {
					continue
				}
				bitset.WordsCopy(val.Row(pi), scratch)
				for _, in := range d.Ops[p.Op].In {
					if in.Op == dfg.NoOp {
						continue
					}
					if j := index[dfg.SrcIndex(in)]; j >= 0 {
						wl.Push(j)
					}
				}
			}
		}

		// Project onto CFG edges: every edge between a link's tail and a
		// head whose value bits are set receives those bits (the walk is
		// candidate-independent; only the value word varies).
		project := func(out *bitset.Matrix, total bool) {
			bitset.WordsZero(out.W)
			mask := f.Mask[x]
			for _, p := range ports {
				for _, c := range d.Consumers(p) {
					if !d.LiveConsumer(p, c) {
						continue
					}
					headValInto(hv, c, total)
					bitset.WordsAnd(hv, mask)
					if !bitset.WordsAny(hv) {
						continue
					}
					sc.Epoch++
					markBetweenWords(g, d.TailEdge(p), d.HeadEdge(c), hv, out, seen, sc.Epoch, &stack)
				}
			}
		}

		nm := f.NotMask[x]
		combine := func(dst, p *bitset.Matrix) {
			for eid := 0; eid < g.NumEdges(); eid++ {
				bitset.WordsAndOr(dst.Row(eid), p.Row(eid), nm)
			}
		}

		solve(true)
		project(proj, true)
		combine(ant, proj)
		solve(false)
		project(proj, false)
		combine(pan, proj)

		for _, p := range ports {
			index[dfg.SrcIndex(p)] = -1
		}
	}
	sc.Stack = stack

	// Variable-free candidates escape every per-variable constraint; the
	// scalar solver defines them as nowhere anticipatable.
	for i := 0; i < g.NumEdges(); i++ {
		bitset.WordsAndNot(ant.Row(i), f.Varless)
		bitset.WordsAndNot(pan.Row(i), f.Varless)
	}
	return ant, pan
}

// markBetweenWords is markBetween with a word row: it ORs hv into every CFG
// edge on a path from tail to head, walking backward from head. stack is a
// reusable scratch buffer.
func markBetweenWords(g *cfg.Graph, tail, head cfg.EdgeID, hv []uint64, out *bitset.Matrix, seen []int32, epoch int32, stack *[]cfg.EdgeID) {
	if tail == cfg.NoEdge || head == cfg.NoEdge {
		return
	}
	bitset.WordsOr(out.Row(int(head)), hv)
	if head == tail {
		return
	}
	seen[head] = epoch
	st := (*stack)[:0]
	st = append(st, head)
	for len(st) > 0 {
		cur := st[len(st)-1]
		st = st[:len(st)-1]
		for _, pe := range g.InEdges(g.Edge(cur).Src) {
			if seen[pe] == epoch {
				continue
			}
			seen[pe] = epoch
			bitset.WordsOr(out.Row(int(pe)), hv)
			if pe != tail {
				st = append(st, pe)
			}
		}
	}
	*stack = st
}
