package anticip

import (
	"slices"

	"dfg/internal/bitset"
	"dfg/internal/cfg"
	"dfg/internal/dataflow"
	"dfg/internal/dataflow/bitvec"
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
// rows once. SolveCFG runs Figure 5(a) on the gen/kill solver of
// internal/dataflow/bitvec; SolveDFG runs Figure 5(b) through SolvePorts,
// the per-variable sparse skeleton EPR's availability shares. Bit k of
// every result row equals
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

// Scratch holds the reusable buffers of the batched DFG solves. One
// scratch serves any number of sequential solves over the same or evolving
// graphs (the EPR transformation loop reuses one across a whole run); the
// zero value is ready to use. Between solves index is all -1 (SolvePorts
// restores the entries it sets) and seen carries only epochs below epoch.
type Scratch struct {
	val   bitset.Matrix // port values, one row per port of the current variable
	proj  bitset.Matrix // the current variable's CFG projection, one row per edge
	index []int         // source index -> port position, -1 when unset
	seen  []int32       // epoch-stamped edge marks of the span walk
	epoch int32
	stack []cfg.EdgeID   // span-walk DFS stack
	span  []cfg.EdgeID   // the last span's edges
	heads []dfg.Consumer // arena of the per-port head lists
	wl    bitset.Worklist

	// Result arenas: the matrices returned by the batched solvers. A new
	// solve with the same scratch overwrites the previous solve's results,
	// which the EPR loop tolerates (it keeps only per-candidate copies).
	Ant, Pan, Av, Pav bitset.Matrix
}

// prepare sizes the buffers for a graph with the given edge and source
// counts and a family of bitCount candidates.
func (sc *Scratch) prepare(edges, srcs, bitCount int) {
	sc.proj.Reshape(edges, bitCount)
	sc.val.Reshape(0, bitCount)
	for len(sc.index) < srcs {
		sc.index = append(sc.index, -1)
	}
	if len(sc.seen) < edges {
		sc.seen = append(sc.seen, make([]int32, edges-len(sc.seen))...)
	}
	if sc.epoch > 1<<30 { // epoch wraparound: restart the stamp space
		clear(sc.seen)
		sc.epoch = 0
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
			copy(krow, m)
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

// Clone returns a copy of f over g, a clone of f.G with the same node and
// edge IDs: the transfer rows are copied, so Update on the copy leaves f as
// it was. The masks are shared; nothing mutates them.
func (f *Family) Clone(g *cfg.Graph) *Family {
	c := *f
	c.G = g
	comp, kill := *f.Comp, *f.Kill
	comp.W, kill.W = slices.Clone(comp.W), slices.Clone(kill.W)
	c.Comp, c.Kill = &comp, &kill
	return &c
}

// SolveCFG solves ANT and PAN for every candidate at once with the
// classical backward problems of Figure 5(a): in = COMP ∨ (out ∖ KILL),
// meeting out-edges with ∧ for ANT and ∨ for PAN. The returned matrices
// are indexed by EdgeID; bit k of a row equals CFG(g, Exprs[k]).ANT/PAN at
// that edge.
func (f *Family) SolveCFG(cost *dataflow.Counter) (ant, pan *bitset.Matrix) {
	solve := func(must bool) *bitset.Matrix {
		s := bitvec.Solve[cfg.NodeID, cfg.EdgeID](f.G, bitvec.Problem{
			Must: must, Bits: len(f.Exprs), Gen: f.Comp, Kill: f.Kill,
			Order: bitvec.KillThenGen, Entry: -1,
		})
		cost.Add(s.Cost)
		return s.Edge
	}
	return solve(true), solve(false)
}

// Solution is one DFG solve of a family: the ANT/PAN rows the anticip stage
// reports and EPR's first round reads. Nothing mutates it once solved.
type Solution struct {
	Family   *Family
	ANT, PAN *bitset.Matrix // one row per EdgeID, one bit per candidate
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
// state) and an optional reusable scratch. The results live in sc.Ant and
// sc.Pan.
func (f *Family) SolveDFGOps(d *dfg.Graph, opsOf map[string][]dfg.OpID, sc *Scratch, cost *dataflow.Counter) (ant, pan *bitset.Matrix) {
	if sc == nil {
		sc = &Scratch{}
	}
	f.SolvePorts(d, opsOf, sc, antRule{}, &sc.Ant, &sc.Pan, cost)
	return &sc.Ant, &sc.Pan
}

// antRule is anticipatability's share of a sparse solve (Figure 5(b)),
// propagated backward from heads to tails: a tail's value is the ∨ of its
// live heads' values, because heads postdominate the tail with no
// intervening definition of the variable.
type antRule struct{}

func (antRule) Forward() bool { return false }

// head writes the value of one head: a use reads the COMPUTES row of its
// node, a merge input passes the merge output through, and a switch input
// combines the two outputs (∧ for ANT, ∨ for PAN; a dead output reads
// zero, the paper's rule for branch sides where the variable is dead).
func (antRule) head(v *Ports, c dfg.Consumer, dst []uint64) {
	v.Cost.Joins++
	if c.UseIdx >= 0 {
		copy(dst, v.F.Comp.Row(int(v.D.Uses[c.UseIdx].Node)))
		return
	}
	op := &v.D.Ops[c.Op]
	switch op.Kind {
	case dfg.OpMerge:
		copy(dst, v.Value(dfg.Src{Op: op.ID, Out: cfg.BranchNone}))
	case dfg.OpSwitch:
		copy(dst, v.Value(dfg.Src{Op: op.ID, Out: cfg.BranchTrue}))
		if fr := v.Value(dfg.Src{Op: op.ID, Out: cfg.BranchFalse}); v.Total {
			bitset.WordsAnd(dst, fr)
		} else {
			bitset.WordsOr(dst, fr)
		}
	default:
		bitset.WordsZero(dst)
	}
}

func (r antRule) Transfer(v *Ports, i int, dst []uint64) {
	bitset.WordsZero(dst)
	for _, c := range v.Heads[i] {
		r.head(v, c, v.Tmp)
		bitset.WordsOr(dst, v.Tmp)
	}
}

// Project marks every edge between a link's tail and a head with the
// head's value bits (the walk is candidate-independent; only the value
// word varies).
func (r antRule) Project(v *Ports) {
	mask := v.F.Mask[v.Var]
	for i, heads := range v.Heads {
		tail := v.D.TailEdge(v.Src[i])
		for _, c := range heads {
			r.head(v, c, v.Tmp)
			bitset.WordsAnd(v.Tmp, mask)
			if !bitset.WordsAny(v.Tmp) {
				continue
			}
			for _, e := range v.Span(tail, v.D.HeadEdge(c)) {
				bitset.WordsOr(v.Proj.Row(int(e)), v.Tmp)
			}
		}
	}
}

// PortRule is one problem's share of a batched sparse solve: how a port's
// value follows from the values it reads, and how the solved values land
// on CFG edges. SolvePorts owns the rest.
type PortRule interface {
	// Forward reports whether values flow from tails to heads (a port
	// reads its operator's inputs) rather than from heads to tails (a port
	// reads its heads). A forward rule sees each port's heads in edge
	// preorder, which orders them by dominance.
	Forward() bool
	// Transfer writes port i's value under the current values into dst.
	Transfer(v *Ports, i int, dst []uint64)
	// Project writes the solved values onto v.Proj, which is zero on entry:
	// a row stays zero where the variable's dependences do not carry the
	// solution.
	Project(v *Ports)
}

// Ports is one variable's share of a batched sparse solve, as a PortRule
// sees it.
type Ports struct {
	F     *Family
	D     *dfg.Graph
	Var   string
	Total bool // solving the ∧ problem of the pair (ANT, AV), not the ∨ one (PAN, PAV)
	// Src lists Var's live ports in operator order (a switch gives both
	// outputs); Heads[i] lists the live heads of Src[i].
	Src   []dfg.Src
	Heads [][]dfg.Consumer
	Val   *bitset.Matrix // row i: the current value of Src[i]
	Proj  *bitset.Matrix // the projection, one row per CFG edge
	Tmp   []uint64       // a row the rule may use freely
	Cost  *dataflow.Counter

	sc   *Scratch
	zero []uint64
}

// At returns the position of port s in Src, or -1 when s is not a live port
// of Var.
func (v *Ports) At(s dfg.Src) int { return v.sc.index[dfg.SrcIndex(s)] }

// Value returns the current value of port s, or a zero row when s is not a
// live port of Var. The row must not be modified.
func (v *Ports) Value(s dfg.Src) []uint64 {
	if i := v.At(s); i >= 0 {
		return v.Val.Row(i)
	}
	return v.zero
}

// Span returns the CFG edges on paths from tail to head, head first, by a
// walk backward from head that stops at tail: tail dominates head and head
// postdominates tail (Definition 6), so every edge met lies between them.
// The slice is reused by the next call.
func (v *Ports) Span(tail, head cfg.EdgeID) []cfg.EdgeID {
	sc, g := v.sc, v.F.G
	sc.span = sc.span[:0]
	if tail == cfg.NoEdge || head == cfg.NoEdge {
		return sc.span
	}
	sc.span = append(sc.span, head)
	if head == tail {
		return sc.span
	}
	sc.epoch++
	sc.seen[head] = sc.epoch
	st := append(sc.stack[:0], head)
	for len(st) > 0 {
		cur := st[len(st)-1]
		st = st[:len(st)-1]
		src, _ := g.Ends(cur)
		for _, pe := range g.InEdges(src) {
			if sc.seen[pe] == sc.epoch {
				continue
			}
			sc.seen[pe] = sc.epoch
			sc.span = append(sc.span, pe)
			if pe != tail {
				st = append(st, pe)
			}
		}
	}
	sc.stack = st
	return sc.span
}

// SolvePorts solves one pair of sparse problems (the ∧ one into total, the
// ∨ one into partial) for every candidate of the family at once, one
// variable at a time. For each variable x it finds x's live ports and
// their live heads, runs r's transfer over the ports to a fixpoint from ⊤
// (total) or ∅ (partial) with a FIFO worklist, projects the values onto
// CFG edges with r, and combines the projection under x's mask: candidates
// using x are anticipatable or available only where x's projection says
// so, candidates without x are unconstrained by x. Candidates with no
// variable read false everywhere, as the scalar solvers define them. Rows
// are indexed by EdgeID.
//
// The port fixpoint is linear in the dependences, but the projection is
// zeroed and combined over every CFG edge once per variable, so a solve
// costs O(E·|Vars|·W) time for W words per row.
func (f *Family) SolvePorts(d *dfg.Graph, opsOf map[string][]dfg.OpID, sc *Scratch, r PortRule, total, partial *bitset.Matrix, cost *dataflow.Counter) {
	g := f.G
	n, edges := len(f.Exprs), g.NumEdges()
	total.Reshape(edges, n)
	partial.Reshape(edges, n)
	if n == 0 {
		return
	}
	sc.prepare(edges, d.NumSrcIndexes(), n)
	for i := range edges {
		bitset.WordsFill(total.Row(i), n)
		bitset.WordsFill(partial.Row(i), n)
	}
	var pre []int
	if r.Forward() {
		pre = g.EdgePreorder()
	}
	v := &Ports{
		F: f, D: d, Val: &sc.val, Proj: &sc.proj, Cost: cost, sc: sc,
		Tmp: make([]uint64, f.Words), zero: make([]uint64, f.Words),
	}
	acc := make([]uint64, f.Words)
	var keys []int
	for _, x := range f.Vars {
		v.Var = x
		v.Src, v.Heads = v.Src[:0], v.Heads[:0]
		arena := sc.heads[:0]
		addPort := func(s dfg.Src) {
			if !d.LiveSrc(s) {
				return
			}
			start := len(arena)
			for _, c := range d.Consumers(s) {
				if d.LiveConsumer(s, c) {
					arena = append(arena, c)
				}
			}
			heads := arena[start:len(arena):len(arena)]
			if pre != nil {
				// Head lists are tiny: a stable insertion sort over
				// precomputed preorder keys.
				keys = keys[:0]
				for _, c := range heads {
					keys = append(keys, pre[d.HeadEdge(c)])
				}
				for i := 1; i < len(heads); i++ {
					for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
						keys[j], keys[j-1] = keys[j-1], keys[j]
						heads[j], heads[j-1] = heads[j-1], heads[j]
					}
				}
			}
			sc.index[dfg.SrcIndex(s)] = len(v.Src)
			v.Src = append(v.Src, s)
			v.Heads = append(v.Heads, heads)
		}
		for _, id := range opsOf[x] {
			if d.Ops[id].Kind == dfg.OpSwitch {
				addPort(dfg.Src{Op: id, Out: cfg.BranchTrue})
				addPort(dfg.Src{Op: id, Out: cfg.BranchFalse})
			} else {
				addPort(dfg.Src{Op: id, Out: cfg.BranchNone})
			}
		}
		sc.val.EnsureRows(len(v.Src))

		nm := f.NotMask[x]
		for _, out := range [2]*bitset.Matrix{total, partial} {
			v.Total = out == total
			for i := range v.Src {
				if v.Total {
					bitset.WordsFill(sc.val.Row(i), n)
				} else {
					bitset.WordsZero(sc.val.Row(i))
				}
				sc.wl.Push(i)
			}
			for {
				i, ok := sc.wl.Pop()
				if !ok {
					break
				}
				cost.Visits++
				cost.Transfers++
				r.Transfer(v, i, acc)
				if bitset.WordsEqual(acc, sc.val.Row(i)) {
					continue
				}
				copy(sc.val.Row(i), acc)
				v.pushReaders(i, r.Forward())
			}

			bitset.WordsZero(sc.proj.W)
			r.Project(v)
			for e := range edges {
				bitset.WordsAndOr(out.Row(e), sc.proj.Row(e), nm)
			}
		}

		for _, s := range v.Src {
			sc.index[dfg.SrcIndex(s)] = -1
		}
		sc.heads = arena[:0]
	}

	for i := range edges {
		bitset.WordsAndNot(total.Row(i), f.Varless)
		bitset.WordsAndNot(partial.Row(i), f.Varless)
	}
}

// pushReaders queues the ports whose transfer reads port i: for a forward
// rule the outputs of the operators among i's heads, for a backward rule
// the ports feeding the inputs of i's own operator.
func (v *Ports) pushReaders(i int, forward bool) {
	push := func(s dfg.Src) {
		if j := v.At(s); j >= 0 {
			v.sc.wl.Push(j)
		}
	}
	if !forward {
		for _, in := range v.D.Ops[v.Src[i].Op].In {
			if in.Op != dfg.NoOp {
				push(in)
			}
		}
		return
	}
	for _, c := range v.Heads[i] {
		if c.UseIdx >= 0 {
			continue
		}
		if v.D.Ops[c.Op].Kind == dfg.OpSwitch {
			push(dfg.Src{Op: c.Op, Out: cfg.BranchTrue})
			push(dfg.Src{Op: c.Op, Out: cfg.BranchFalse})
		} else {
			push(dfg.Src{Op: c.Op, Out: cfg.BranchNone})
		}
	}
}
