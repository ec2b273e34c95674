// Package epr implements Section 5.2 of the paper: elimination of partial
// redundancies, the optimization that subsumes common subexpression
// elimination and loop-invariant code motion (Morel & Renvoise).
//
// The algorithm is edge-based, as the paper advocates ("our epr algorithm
// is simple in part because it is edge-based rather than node-based...
// DFG algorithms are naturally edge-based and avoid these complications"):
//
//	ANT/PAN  backward anticipatability (internal/anticip, CFG or DFG solver)
//	AV/PAV   forward total/partial availability
//	INSERT   the earliest down-safe edges: D = ANT ∧ ¬AV holds, but does
//	         not yet hold "after transformation" just above
//	DELETE   computations whose input edge has the expression available
//	         after insertion
//
// Insertions are down-safe (only on edges where the expression is totally
// anticipatable), so no execution path ever computes the expression more
// often than before; deletions make partially redundant computations
// vanish. The paper's PP profitability rules (merge rule and multiedge
// rule) are provided as a diagnostic analysis; the transformation uses the
// busy/earliest placement ("there is no experimental data showing the
// superiority of any single strategy"), applied only when it is a strict
// saving (Analysis.Redundant), so it never moves code without benefit.
package epr

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"dfg/internal/anticip"
	"dfg/internal/bitset"
	"dfg/internal/cfg"
	"dfg/internal/dataflow"
	"dfg/internal/dfg"
	"dfg/internal/lang/ast"
	"dfg/internal/lang/token"
)

// Driver selects which solver supplies anticipatability.
type Driver int

// Drivers.
const (
	DriverCFG Driver = iota // classical fixpoint on the control flow graph
	DriverDFG               // sparse solver on the dependence flow graph
)

// Analysis is the per-expression dataflow bundle.
type Analysis struct {
	G    *cfg.Graph
	Expr ast.Expr

	// Per-edge dataflow solutions, indexed by EdgeID. Dead edges and edges
	// outside the operands' dependence flow read false.
	ANT, PAN []bool // anticipatability at each edge
	AV, PAV  []bool // total/partial availability at each edge

	// Insert lists the edges receiving a new computation (earliest
	// down-safe placement); Delete lists the nodes whose computation of
	// Expr becomes redundant and is replaced by the temporary.
	Insert []cfg.EdgeID
	Delete []cfg.NodeID

	Cost dataflow.Counter

	// When the analysis is a projection of a batch, fam/famIdx give the
	// placement rules O(1) access to the family's precomputed COMPUTES and
	// KILLS bits instead of re-walking expressions per node.
	fam    *anticip.Family
	famIdx int

	// walk is the scratch of Redundant's path walk, shared across a
	// transformation run (nil: Redundant allocates its own).
	walk *savingWalk
}

// computes reports whether node n computes a.Expr, via the family's
// precomputed row when available.
func (a *Analysis) computes(n cfg.NodeID) bool {
	if a.fam != nil {
		return a.fam.Comp.Bit(int(n), a.famIdx)
	}
	return anticip.Computes(a.G, n, a.Expr)
}

// kills reports whether node n assigns a variable of a.Expr.
func (a *Analysis) kills(n cfg.NodeID) bool {
	if a.fam != nil {
		return a.fam.Kill.Bit(int(n), a.famIdx)
	}
	return anticip.Kills(a.G, n, a.Expr)
}

// liveEdges returns the graph's live edges, via the family's cache when
// available.
func (a *Analysis) liveEdges() []cfg.EdgeID {
	if a.fam != nil {
		return a.fam.Live
	}
	return a.G.LiveEdges()
}

// AnalyzeExpr computes the full EPR analysis for one expression. It is a
// singleton view over the batched solver; the scalar per-candidate solvers
// (anticip.CFG, anticip.DFG, availability, dfgAV) remain as the reference
// implementations the batched path is differentially tested against.
func AnalyzeExpr(g *cfg.Graph, e ast.Expr, driver Driver, d *dfg.Graph) (*Analysis, error) {
	b, err := AnalyzeBatch(g, []ast.Expr{e}, driver, d)
	if err != nil {
		return nil, err
	}
	a := b.Analysis(0)
	a.Cost = b.Cost
	return a, nil
}

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

// placeAndDelete derives INSERT and DELETE from ANT and AV using the
// earliest down-safe placement:
//
//	D(E)     = ANT(E) ∧ ¬AV(E)         (needed below, not yet available)
//	S(E)     = D(E) ∨ AV(E)            (available after transformation)
//	prior(E) = availability just above E assuming upstream S holds
//	INSERT   = { E : D(E) ∧ ¬prior(E) }
//	DELETE   = { n computes Expr : S(in(n)) }
func (a *Analysis) placeAndDelete() {
	g := a.G
	d := func(eid cfg.EdgeID) bool { return a.ANT[eid] && !a.AV[eid] }
	s := func(eid cfg.EdgeID) bool { return d(eid) || a.AV[eid] }

	prior := func(eid cfg.EdgeID) bool {
		n := g.Edge(eid).Src
		nd := g.Node(n)
		if nd.Kind == cfg.KindStart {
			return false
		}
		if a.kills(n) {
			return false
		}
		if a.computes(n) {
			return true
		}
		ins := g.InEdges(n)
		if len(ins) == 0 {
			return false
		}
		for _, f := range ins {
			if !s(f) {
				return false
			}
		}
		return true
	}

	live := a.liveEdges()
	for _, eid := range live {
		if d(eid) && !prior(eid) {
			a.Insert = append(a.Insert, eid)
		}
	}
	for _, nd := range g.Nodes {
		if !a.computes(nd.ID) {
			continue
		}
		ins := g.InEdges(nd.ID)
		if len(ins) == 1 && s(ins[0]) {
			a.Delete = append(a.Delete, nd.ID)
		}
	}
}

// Redundant reports whether the transformation is a strict saving: some
// computation slated for deletion is reached by an earlier computation of
// the expression along a path that crosses no assignment to its variables
// and none of this candidate's insertion edges. Deleting that computation
// removes an evaluation from the path (straight-line CSE, if-shaped
// partial redundancies, loop invariants reached again via a back edge),
// and busy insertions never add one to any path. Without such a point the
// placement would only move code: partial availability alone is not
// enough, because inside a loop it can come from the same computation's
// previous iteration, and accepting that would re-hoist the inserted
// temporary round after round without saving anything.
func (a *Analysis) Redundant() bool {
	w := a.walk
	if w == nil {
		w = &savingWalk{}
	}
	stamped := false
	for _, nid := range a.Delete {
		ins := a.G.InEdges(nid)
		// PAV at the input is necessary for such a path; it filters out
		// most deletions before any walk.
		if len(ins) != 1 || !a.PAV[ins[0]] {
			continue
		}
		if !stamped {
			w.begin(a.G)
			for _, eid := range a.Insert {
				w.insert[eid] = w.epoch
			}
			stamped = true
		}
		if a.earlierComputation(w, ins[0]) {
			return true
		}
	}
	return false
}

// savingWalk is the reusable state of Redundant's backward walk. Marks are
// epoch-stamped, so starting a walk neither clears nor allocates once the
// arrays have grown to the graph's size.
type savingWalk struct {
	epoch  uint32
	seen   []uint32 // per NodeID: visited during this epoch
	insert []uint32 // per EdgeID: an insertion edge of this epoch's candidate
	stack  []cfg.EdgeID
}

// begin opens a new epoch sized for g.
func (w *savingWalk) begin(g *cfg.Graph) {
	w.epoch++
	if w.epoch == 0 { // wrapped: stale stamps could collide
		clear(w.seen)
		clear(w.insert)
		w.epoch = 1
	}
	if n := g.NumNodes(); len(w.seen) < n {
		w.seen = append(w.seen, make([]uint32, n-len(w.seen))...)
	}
	if n := g.NumEdges(); len(w.insert) < n {
		w.insert = append(w.insert, make([]uint32, n-len(w.insert))...)
	}
}

// earlierComputation walks backward from edge from and reports whether it
// reaches a node computing a.Expr without passing an insertion edge, a
// killing node, or start. Nodes visited by an earlier unsuccessful walk of
// the same epoch are skipped: the stopping rules do not depend on where
// the walk began.
func (a *Analysis) earlierComputation(w *savingWalk, from cfg.EdgeID) bool {
	g := a.G
	w.stack = append(w.stack[:0], from)
	for len(w.stack) > 0 {
		eid := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		if w.insert[eid] == w.epoch {
			continue // the inserted computation supplies the value here
		}
		n := g.Edge(eid).Src
		if w.seen[n] == w.epoch {
			continue
		}
		w.seen[n] = w.epoch
		if g.Node(n).Kind == cfg.KindStart || a.kills(n) {
			continue
		}
		if a.computes(n) {
			return true
		}
		w.stack = append(w.stack, g.InEdges(n)...)
	}
	return false
}

// ---------------------------------------------------------------------------
// The paper's PP profitability rules (diagnostic)

// PP identifies the profitable placement points of Figure 5's rules:
//
//   - merge rule: an in-edge of a merge is a profitable placement if the
//     expression is anticipatable and partially available at the merge
//     output (insertion makes it totally available there);
//   - multiedge rule: the tail of a DFG multiedge is profitable if the
//     expression is anticipatable at the tail and partially anticipatable
//     at two or more heads.
type PP struct {
	MergeEdges []cfg.EdgeID // merge-rule placements (merge in-edges)
	TailEdges  []cfg.EdgeID // multiedge-rule placements (tail CFG edges)
}

// ProfitablePlacements evaluates the paper's PP rules for e over graph g
// and its DFG.
func ProfitablePlacements(g *cfg.Graph, d *dfg.Graph, e ast.Expr, a *Analysis) *PP {
	pp := &PP{}
	// Merge rule.
	for _, nd := range g.Nodes {
		if nd.Kind != cfg.KindMerge {
			continue
		}
		out := g.OutEdges(nd.ID)[0]
		if a.ANT[out] && a.PAV[out] {
			pp.MergeEdges = append(pp.MergeEdges, g.InEdges(nd.ID)...)
		}
	}
	// Multiedge rule: for each variable of e, examine the multiedges of
	// that variable: tail anticipatable with >= 2 partially anticipatable
	// heads.
	vars := ast.ExprVars(e)
	varSet := map[string]bool{}
	for _, v := range vars {
		varSet[v] = true
	}
	seen := map[cfg.EdgeID]bool{}
	for _, op := range d.Ops {
		if !varSet[op.Var] {
			continue
		}
		outs := []cfg.Branch{cfg.BranchNone}
		if op.Kind == dfg.OpSwitch {
			outs = []cfg.Branch{cfg.BranchTrue, cfg.BranchFalse}
		}
		for _, out := range outs {
			src := dfg.Src{Op: op.ID, Out: out}
			if !d.LiveSrc(src) {
				continue
			}
			tail := d.TailEdge(src)
			if tail == cfg.NoEdge || !a.ANT[tail] || seen[tail] {
				continue
			}
			panHeads := 0
			for _, c := range d.Consumers(src) {
				if !d.LiveConsumer(src, c) {
					continue
				}
				if h := d.HeadEdge(c); h != cfg.NoEdge && a.PAN[h] {
					panHeads++
				}
			}
			if panHeads >= 2 {
				seen[tail] = true
				pp.TailEdges = append(pp.TailEdges, tail)
			}
		}
	}
	sort.Slice(pp.TailEdges, func(i, j int) bool { return pp.TailEdges[i] < pp.TailEdges[j] })
	return pp
}

// ---------------------------------------------------------------------------
// Transformation

// Stats summarizes one EPR run.
type Stats struct {
	Exprs    int // expressions examined (per round, summed)
	Inserted int // computations inserted
	Replaced int // computations replaced by temporaries

	Rounds    int  // fixpoint rounds executed
	Converged bool // fixpoint reached before the round cap

	DFGRebuilds int // full dfg.Build calls (DriverDFG)
	DFGPatches  int // in-place PatchEPR successes (DriverDFG)

	MaxCandidates int // largest per-round candidate family
	SolverWords   int // lattice width in words of the largest family
}

// String renders the stats.
func (s Stats) String() string {
	return fmt.Sprintf("exprs=%d inserted=%d replaced=%d rounds=%d converged=%t rebuilds=%d patches=%d",
		s.Exprs, s.Inserted, s.Replaced, s.Rounds, s.Converged, s.DFGRebuilds, s.DFGPatches)
}

// mayTrapExpr reports whether evaluating e could fail at runtime: hoisting
// such expressions can move a trap earlier, which is observable.
func mayTrapExpr(e ast.Expr) bool {
	trap := false
	ast.WalkExpr(e, func(x ast.Expr) {
		if b, ok := x.(*ast.BinaryExpr); ok && (b.Op == token.SLASH || b.Op == token.PERCENT) {
			trap = true
		}
	})
	return trap
}

// CandidateExprs returns the distinct variable-bearing, non-trapping binary
// subexpressions of the program, innermost (smallest) first so that nested
// redundancies are handled in stages. Non-trapping means no division or
// modulo (mayTrapExpr) AND provably type-safe under the program's variable
// types (cfg.TypeSafe): insertion evaluates the expression earlier than the
// original did, so an expression that could trap on a type error would trap
// before output the original program printed first.
func CandidateExprs(g *cfg.Graph) []ast.Expr {
	var out []ast.Expr
	var lens []int
	var buf []byte
	seen := map[string]bool{}
	types := cfg.VarTypes(g)
	for _, nd := range g.Nodes {
		if nd.Expr == nil {
			continue
		}
		ast.WalkExpr(nd.Expr, func(x ast.Expr) {
			b, ok := x.(*ast.BinaryExpr)
			if !ok || !ast.HasVar(b) || mayTrapExpr(b) || !cfg.TypeSafe(b, types) {
				return
			}
			buf = ast.AppendExprString(buf[:0], b)
			if !seen[string(buf)] {
				seen[string(buf)] = true
				out = append(out, b)
				lens = append(lens, len(buf))
			}
		})
	}
	// Stable sort by rendered length (shorter subexpressions first), with
	// the lengths precomputed rather than re-rendered per comparison.
	idx := make([]int, len(out))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return lens[idx[i]] < lens[idx[j]] })
	sorted := make([]ast.Expr, len(out))
	for i, j := range idx {
		sorted[i] = out[j]
	}
	return sorted
}

// ApplyExpr transforms g for a single expression using a precomputed
// analysis, returning the number of insertions and replacements. The graph
// is modified in place; temp is the temporary variable name.
func ApplyExpr(g *cfg.Graph, a *Analysis, temp string) (inserted, replaced int) {
	if !a.Redundant() {
		return 0, 0
	}
	inserted, replaced, _ = applyExprEdit(g, a, temp)
	return inserted, replaced
}

// applyExprEdit is ApplyExpr without the redundancy gate, additionally
// recording the CFG surgery for incremental DFG maintenance.
func applyExprEdit(g *cfg.Graph, a *Analysis, temp string) (inserted, replaced int, ed dfg.EPREdit) {
	ed.Temp = temp
	ed.Vars = ast.ExprVars(a.Expr)
	g.AddVar(temp)
	for _, eid := range a.Insert {
		n := g.AddNode(cfg.KindAssign)
		g.Nodes[n].Var = temp
		g.Nodes[n].Expr = ast.CloneExpr(a.Expr)
		g.Nodes[n].Comment = "epr insert"
		ne := g.SplitEdge(eid, n)
		ed.NewNodes = append(ed.NewNodes, n)
		ed.Splits = append(ed.Splits, dfg.EdgeSplit{Old: eid, New: ne, Node: n})
		inserted++
	}
	for _, nid := range a.Delete {
		nd := g.Node(nid)
		nd.Expr = replaceSubexpr(nd.Expr, a.Expr, &ast.VarRef{Name: temp})
		ed.Rewritten = append(ed.Rewritten, nid)
		replaced++
	}
	return inserted, replaced, ed
}

// replaceSubexpr substitutes every occurrence of pat in e with repl.
func replaceSubexpr(e, pat ast.Expr, repl ast.Expr) ast.Expr {
	if ast.EqualExpr(e, pat) {
		return ast.CloneExpr(repl)
	}
	switch e := e.(type) {
	case *ast.BinaryExpr:
		return &ast.BinaryExpr{Op: e.Op, X: replaceSubexpr(e.X, pat, repl), Y: replaceSubexpr(e.Y, pat, repl), Pos: e.Pos}
	case *ast.UnaryExpr:
		return &ast.UnaryExpr{Op: e.Op, X: replaceSubexpr(e.X, pat, repl), Pos: e.Pos}
	}
	return e
}

// Placement selects the code-motion strategy.
type Placement int

// Placements.
const (
	// PlaceBusy inserts at the earliest down-safe points (busy code
	// motion): simple, but temporaries live long.
	PlaceBusy Placement = iota
	// PlaceLazy delays insertions to the latest covering points (lazy code
	// motion, KRS92): same dynamic savings, minimal temporary lifetimes.
	PlaceLazy
)

// String names the placement.
func (p Placement) String() string {
	if p == PlaceLazy {
		return "lazy"
	}
	return "busy"
}

// Apply runs EPR over every candidate expression of g with the given
// driver and busy (earliest) placement, returning the transformed graph
// and statistics. The input graph is not modified. Temporaries are named
// epr_t0, epr_t1, ...
func Apply(g *cfg.Graph, driver Driver) (*cfg.Graph, Stats, error) {
	return ApplyPlaced(g, driver, PlaceBusy)
}

// maxRounds caps the outer transformation fixpoint of ApplyPlaced. A run
// hitting the cap with work left is reported via Stats.Converged = false.
const maxRounds = 10

// PatchCheck enables the debug cross-check of incremental DFG maintenance:
// after every successful PatchEPR, a fresh graph is built and compared
// against the patched one — first structurally (dfg.DiffFlows, the
// granularity-invariant reaching-definitions signature), then at the
// analysis level (the batched ANT/PAN/AV/PAV matrices must be bit-equal).
// A divergence panics. Enabled by the EPR_PATCH_CHECK environment
// variable; tests may set it directly.
var PatchCheck = os.Getenv("EPR_PATCH_CHECK") != ""

// ApplyPlaced is Apply with an explicit placement strategy.
//
// All candidates of a round are solved in one batched fixpoint
// (AnalyzeBatch); after a transformation mutates the graph, the batch is
// re-solved on the updated state, so every candidate is still analyzed
// against the graph as it exists when its turn comes — exactly the
// per-candidate behavior, at word-parallel cost. Under DriverDFG the
// shared dependence graph is maintained in place across transformations
// (dfg.PatchEPR), falling back to a full rebuild when a patch fails.
func ApplyPlaced(g *cfg.Graph, driver Driver, placement Placement) (*cfg.Graph, Stats, error) {
	return ApplyPlacedWorkers(g, driver, placement, 1)
}

// ApplyPlacedWorkers is ApplyPlaced with intra-program parallel solving:
// at workers > 1 every batched re-solve partitions its candidate words
// across up to workers goroutines (see analyzeFamilyPar), with per-worker
// scratch arenas pooled across the whole run. Output is identical to
// ApplyPlaced at any worker count — the solvers are bit-identical and the
// transformation loop itself stays sequential (each accepted candidate
// mutates the graph the next one is analyzed against).
func ApplyPlacedWorkers(g *cfg.Graph, driver Driver, placement Placement, workers int) (*cfg.Graph, Stats, error) {
	return applyPlaced(g, driver, placement, workers, nil)
}

// ApplyObserved is ApplyPlacedWorkers with busy placement that also hands
// observe the analysis of every candidate of the first round, solved
// against the unmodified input before any edit — the same analyses
// AnalyzeBatch would return for g, without solving the family a second
// time. The analyses view the graph the transformation goes on to mutate,
// so observe must extract what it needs before returning.
func ApplyObserved(g *cfg.Graph, driver Driver, workers int, observe func([]*Analysis)) (*cfg.Graph, Stats, error) {
	return applyPlaced(g, driver, PlaceBusy, workers, observe)
}

func applyPlaced(g *cfg.Graph, driver Driver, placement Placement, workers int, observe func([]*Analysis)) (*cfg.Graph, Stats, error) {
	out := Clone(g)
	var st Stats
	tmp := 0
	var d *dfg.Graph
	var sc anticip.Scratch // solver buffers reused across every re-solve
	var walk savingWalk    // Redundant's path-walk marks, likewise
	var pool *anticip.ScratchPool
	if workers > 1 {
		pool = anticip.NewScratchPool(workers)
	}
	// Iterate until no expression yields a transformation: replacing an
	// inner expression can expose an outer redundancy.
	for rounds := 0; rounds < maxRounds; rounds++ {
		st.Rounds = rounds + 1
		changed := false
		if driver == DriverDFG && d == nil {
			var err error
			if d, err = dfg.Build(out); err != nil {
				return nil, st, err
			}
			st.DFGRebuilds++
		}
		exprs := CandidateExprs(out)
		st.Exprs += len(exprs)
		if len(exprs) > st.MaxCandidates {
			st.MaxCandidates = len(exprs)
		}
		fam := anticip.NewFamily(out, exprs)
		if fam.Words > st.SolverWords {
			st.SolverWords = fam.Words
		}
		b, err := analyzeFamilyPar(fam, driver, d, &sc, pool, workers)
		if err != nil {
			return nil, st, err
		}
		b.walk = &walk
		// first holds the round's analyses until its first edit, when they
		// go stale; only an observed first round builds them up front.
		var first []*Analysis
		if rounds == 0 && observe != nil {
			first = make([]*Analysis, len(exprs))
			for k := range exprs {
				first[k] = b.Analysis(k)
			}
			observe(first)
		}
		for k := range exprs {
			var a *Analysis
			if first != nil {
				a = first[k]
			} else {
				a = b.Analysis(k)
			}
			if !a.Redundant() {
				continue
			}
			first = nil
			name := fmt.Sprintf("epr_t%d", tmp)
			tmp++
			var ins, rep int
			var ed dfg.EPREdit
			if placement == PlaceLazy {
				out.AddVar(name)
				ins, rep, ed = applyLazyEdit(out, a, a.Lazy(), name)
			} else {
				ins, rep, ed = applyExprEdit(out, a, name)
			}
			st.Inserted += ins
			st.Replaced += rep
			changed = true
			if driver == DriverDFG {
				if perr := d.PatchEPR(ed); perr != nil {
					// The patch left d inconsistent; discard and rebuild.
					if d, err = dfg.Build(out); err != nil {
						return nil, st, err
					}
					st.DFGRebuilds++
				} else {
					st.DFGPatches++
					if PatchCheck {
						patchCrossCheck(out, d, exprs)
					}
				}
			}
			// Re-solve the remaining candidates against the mutated graph.
			if k+1 < len(exprs) {
				fam.Update(append(append([]cfg.NodeID{}, ed.NewNodes...), ed.Rewritten...))
				if b, err = analyzeFamilyPar(fam, driver, d, &sc, pool, workers); err != nil {
					return nil, st, err
				}
				b.walk = &walk
			}
		}
		if !changed {
			st.Converged = true
			break
		}
	}
	return out, st, nil
}

// patchCrossCheck asserts that a patched DFG is equivalent to a freshly
// built one, both structurally and under the batched analyses. Panics on
// divergence (debug mode only; see PatchCheck).
func patchCrossCheck(g *cfg.Graph, patched *dfg.Graph, exprs []ast.Expr) {
	fresh, err := dfg.Build(g)
	if err != nil {
		panic(fmt.Sprintf("epr: patch cross-check: fresh build failed: %v", err))
	}
	if diff := dfg.DiffFlows(patched, fresh); diff != "" {
		panic("epr: dfg patch diverged from fresh build: " + diff)
	}
	bp, err1 := analyzeFamily(anticip.NewFamily(g, exprs), DriverDFG, patched, nil)
	bf, err2 := analyzeFamily(anticip.NewFamily(g, exprs), DriverDFG, fresh, nil)
	if err1 != nil || err2 != nil {
		panic(fmt.Sprintf("epr: patch cross-check: analyze failed: %v / %v", err1, err2))
	}
	for _, m := range []struct {
		name           string
		patched, fresh *bitset.Matrix
	}{
		{"ANT", bp.ANT, bf.ANT}, {"PAN", bp.PAN, bf.PAN},
		{"AV", bp.AV, bf.AV}, {"PAV", bp.PAV, bf.PAV},
	} {
		if len(m.patched.W) != len(m.fresh.W) || !bitset.WordsEqual(m.patched.W, m.fresh.W) {
			panic(fmt.Sprintf("epr: %s matrix diverged between patched and fresh DFG", m.name))
		}
	}
}

// Clone deep-copies a CFG.
func Clone(g *cfg.Graph) *cfg.Graph {
	ng := &cfg.Graph{Start: g.Start, End: g.End, VarNames: append([]string(nil), g.VarNames...)}
	for _, nd := range g.Nodes {
		cp := &cfg.Node{
			ID: nd.ID, Kind: nd.Kind, Var: nd.Var, Comment: nd.Comment,
			In: append([]cfg.EdgeID(nil), nd.In...), Out: append([]cfg.EdgeID(nil), nd.Out...),
		}
		if nd.Expr != nil {
			cp.Expr = ast.CloneExpr(nd.Expr)
		}
		ng.Nodes = append(ng.Nodes, cp)
	}
	for _, e := range g.Edges {
		ce := *e
		ng.Edges = append(ng.Edges, &ce)
	}
	return ng
}

// String renders an analysis compactly.
func (a *Analysis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "expr %s\n", a.Expr)
	row := func(name string, m []bool) {
		var ids []int
		for eid, v := range m {
			if v {
				ids = append(ids, int(eid))
			}
		}
		sort.Ints(ids)
		parts := make([]string, len(ids))
		for i, id := range ids {
			parts[i] = fmt.Sprintf("e%d", id)
		}
		fmt.Fprintf(&b, "  %s: {%s}\n", name, strings.Join(parts, ","))
	}
	row("ANT", a.ANT)
	row("PAN", a.PAN)
	row("AV", a.AV)
	row("PAV", a.PAV)
	fmt.Fprintf(&b, "  INSERT: %v\n  DELETE: %v\n", a.Insert, a.Delete)
	return b.String()
}
