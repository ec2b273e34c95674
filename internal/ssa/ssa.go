// Package ssa builds static single assignment form two ways and proves
// them equivalent:
//
//   - Cytron: the classic construction (Cytron, Ferrante, Rosen, Wegman &
//     Zadeck) — φ placement at iterated dominance frontiers of definition
//     sites, then renaming along the dominator tree. This is the baseline.
//
//   - FromDFG: the paper's §3.3 construction — "if the SSA representation
//     of a program is desired, we can construct it in O(EV) time by first
//     building the DFG representation and then eliding switches and
//     converting merges to φ-functions. Unlike the standard algorithm, our
//     algorithm does not require computation of the dominance relation or
//     dominance frontiers."
//
// Both produce the same Form: a map from every use site to its unique
// reaching SSA value, plus φ-functions at merge nodes with one argument per
// incoming CFG edge. Cytron's result is minimal SSA; the DFG-derived form
// is pruned (dead φs removed by the DFG's dead-edge removal), so
// equivalence is checked on the value graph reachable from real uses —
// where minimal and pruned SSA provably coincide.
package ssa

import (
	"fmt"
	"sort"
	"strings"

	"dfg/internal/cfg"
	"dfg/internal/dfg"
	"dfg/internal/graph"
)

// ValueKind discriminates SSA values.
type ValueKind int

// Value kinds.
const (
	ValInit ValueKind = iota // implicit definition at start (uninitialized)
	ValDef                   // an assign/read node's definition
	ValPhi                   // a φ-function at a merge node
)

// String returns the kind name.
func (k ValueKind) String() string {
	switch k {
	case ValInit:
		return "init"
	case ValDef:
		return "def"
	case ValPhi:
		return "phi"
	}
	return fmt.Sprintf("ValueKind(%d)", int(k))
}

// Value is an SSA value: where a variable's current version was born.
type Value struct {
	Kind ValueKind
	Node cfg.NodeID // def node, φ's merge node, or start for init
	Var  string
}

// String renders the value.
func (v Value) String() string {
	return fmt.Sprintf("%s(%s@n%d)", v.Kind, v.Var, v.Node)
}

// PhiKey identifies a φ-function.
type PhiKey struct {
	Node cfg.NodeID
	Var  string
}

// Phi is a φ-function with one argument per incoming CFG edge.
type Phi struct {
	Node cfg.NodeID
	Var  string
	Args map[cfg.EdgeID]Value
}

// UseKey identifies a variable use site.
type UseKey struct {
	Node cfg.NodeID
	Var  string
}

// Form is an SSA program form over a CFG.
type Form struct {
	G      *cfg.Graph
	Phis   map[PhiKey]*Phi
	UseDef map[UseKey]Value
}

// NumPhis returns the number of φ-functions (one of E9/E10's size metrics).
func (f *Form) NumPhis() int { return len(f.Phis) }

// Size returns the SSA edge count: one edge per use plus one per φ
// argument. This is the O(EV) quantity of §2.3.
func (f *Form) Size() int {
	n := len(f.UseDef)
	for _, p := range f.Phis {
		n += len(p.Args)
	}
	return n
}

// ---------------------------------------------------------------------------
// Cytron et al. baseline

// Cytron builds minimal SSA with the standard two-phase algorithm. Placement
// records each node's φs in a per-node list, so renaming visits only the φs
// that exist rather than probing every variable at every node and edge.
func Cytron(g *cfg.Graph) *Form {
	nn, nv := g.NumNodes(), len(g.VarNames)
	idx := g.VarIndex()
	uses := g.UsesByNode()

	pos := g.Positional()
	idom := graph.Dominators(pos, int(g.Start))
	df := graph.DominanceFrontiers(pos, idom)

	// Dominator tree children: children(n) is kids[kidOff[n]:kidOff[n+1]].
	kidOff, kids := graph.Group(nn, nn, func(n int) int {
		if idom[n] == -1 || idom[n] == n {
			return -1
		}
		return idom[n]
	})

	// Each node's defined variable number (-1 for none); defSites(v) is
	// defs[defOff[v]:defOff[v+1]].
	defVar := make([]int, nn)
	numUses := 0
	for n := 0; n < nn; n++ {
		numUses += len(uses[n])
		defVar[n] = -1
		if v := g.Defs(cfg.NodeID(n)); v != "" {
			defVar[n] = idx[v]
		}
	}
	defOff, defs := graph.Group(nv, nn, func(n int) int { return defVar[n] })

	// Phase 1: φ placement at iterated dominance frontiers. Every variable
	// has an implicit definition at start (so one def site is always
	// present and uses before any real def resolve to init). The worklist
	// and φ marks are stamped with the variable number, so one pair of
	// arrays serves every variable.
	type site struct{ node, v int }
	var placed []site
	inWork := make([]int, nn)
	hasPhi := make([]int, nn)
	for i := range inWork {
		inWork[i], hasPhi[i] = -1, -1
	}
	var work []int
	for v := 0; v < nv; v++ {
		push := func(n int) {
			if inWork[n] != v {
				inWork[n] = v
				work = append(work, n)
			}
		}
		push(int(g.Start))
		for _, n := range defs[defOff[v]:defOff[v+1]] {
			push(n)
		}
		for len(work) > 0 {
			n := work[len(work)-1]
			work = work[:len(work)-1]
			for _, y := range df[n] {
				if hasPhi[y] != v {
					hasPhi[y] = v
					placed = append(placed, site{y, v})
					push(y)
				}
			}
		}
	}

	// The φs by node: phisAt(n) is phis[phiOff[n]:phiOff[n+1]], in
	// variable order, and phiVar parallels phis.
	phiOff, order := graph.Group(nn, len(placed), func(i int) int { return placed[i].node })
	phis := make([]Phi, len(placed))
	phiVar := make([]int, len(placed))
	for i, j := range order {
		s := placed[j]
		id := cfg.NodeID(s.node)
		phis[i] = Phi{Node: id, Var: g.VarNames[s.v], Args: make(map[cfg.EdgeID]Value, len(g.InEdges(id)))}
		phiVar[i] = s.v
	}
	f := &Form{G: g, Phis: make(map[PhiKey]*Phi, len(phis)), UseDef: make(map[UseKey]Value, numUses)}
	for i := range phis {
		f.Phis[PhiKey{phis[i].Node, phis[i].Var}] = &phis[i]
	}

	// Phase 2: renaming along the dominator tree. The version stacks of all
	// variables share one slice: top[v] indexes v's current version, and
	// each version links to the one it hides. Pushes and pops nest, so a
	// pop always removes the slice's last entry.
	type version struct {
		kind ValueKind
		node cfg.NodeID
		prev int
	}
	versions := make([]version, nv, 2*nv)
	top := make([]int, nv)
	for v := range versions {
		versions[v] = version{kind: ValInit, node: g.Start, prev: -1}
		top[v] = v
	}
	current := func(v int) Value {
		ver := versions[top[v]]
		return Value{Kind: ver.kind, Node: ver.node, Var: g.VarNames[v]}
	}
	push := func(v int, k ValueKind, n cfg.NodeID) {
		versions = append(versions, version{kind: k, node: n, prev: top[v]})
		top[v] = len(versions) - 1
	}
	pop := func(v int) {
		top[v] = versions[top[v]].prev
		versions = versions[:len(versions)-1]
	}

	var rename func(n int)
	rename = func(n int) {
		id := cfg.NodeID(n)
		// φs at this node define new versions before any use in the node.
		for i := phiOff[n]; i < phiOff[n+1]; i++ {
			push(phiVar[i], ValPhi, id)
		}
		// Uses at this node see the current versions.
		for _, v := range uses[n] {
			f.UseDef[UseKey{id, v}] = current(idx[v])
		}
		// A definition at this node pushes a new version.
		if v := defVar[n]; v >= 0 {
			push(v, ValDef, id)
		}
		// Fill the arguments of the successors' φs for the edges out of
		// this node.
		for _, eid := range g.OutEdges(id) {
			succ := g.Edge(eid).Dst
			for i := phiOff[succ]; i < phiOff[succ+1]; i++ {
				phis[i].Args[eid] = current(phiVar[i])
			}
		}
		for _, c := range kids[kidOff[n]:kidOff[n+1]] {
			rename(c)
		}
		if v := defVar[n]; v >= 0 {
			pop(v)
		}
		for i := phiOff[n+1] - 1; i >= phiOff[n]; i-- {
			pop(phiVar[i])
		}
	}
	rename(int(g.Start))
	return f
}

// ---------------------------------------------------------------------------
// DFG-derived SSA (§3.3)

// FromDFG derives SSA from a dependence flow graph by eliding switch
// operators and converting merge operators to φ-functions. No dominance
// information is used. An SSA value is identified by the operator that
// produced it (init, def or merge), so the renaming state is a slice
// indexed by source port and the canonicalization a slice indexed by
// operator; the exported maps are built once at the end.
func FromDFG(d *dfg.Graph) *Form {
	// resolve follows a dependence source through (elided) switch operators
	// to the init, def or merge operator that produced it.
	memo := make([]dfg.OpID, d.NumSrcIndexes())
	for i := range memo {
		memo[i] = dfg.NoOp
	}
	var resolve func(s dfg.Src) dfg.OpID
	resolve = func(s dfg.Src) dfg.OpID {
		i := dfg.SrcIndex(s)
		if memo[i] == dfg.NoOp {
			memo[i] = s.Op
			if d.Ops[s.Op].Kind == dfg.OpSwitch {
				memo[i] = resolve(d.Ops[s.Op].In[0]) // elide
			}
		}
		return memo[i]
	}
	value := func(o dfg.OpID) Value {
		op := &d.Ops[o]
		switch op.Kind {
		case dfg.OpInit:
			return Value{Kind: ValInit, Node: d.G.Start, Var: op.Var}
		case dfg.OpDef:
			return Value{Kind: ValDef, Node: op.Node, Var: op.Var}
		}
		return Value{Kind: ValPhi, Node: op.Node, Var: op.Var}
	}

	// φs come from the live merge operators (the DFG is pruned, so this
	// yields pruned SSA).
	isPhi := func(op *dfg.Op) bool {
		return op.Kind == dfg.OpMerge && op.Var != dfg.CtlVar && op.LiveOut[0]
	}
	numPhis := 0
	for i := range d.Ops {
		if isPhi(&d.Ops[i]) {
			numPhis++
		}
	}
	phis := make([]dfg.OpID, 0, numPhis)
	for i := range d.Ops {
		if isPhi(&d.Ops[i]) {
			phis = append(phis, dfg.OpID(i))
		}
	}

	// The DFG intercepts dependences at merges whenever a region merely
	// *uses* a variable, so some merge operators are trivial as
	// φ-functions: φ(v, …, v, φ_self) ≡ v. Minimal SSA has no such φs;
	// eliminate them by fixpoint (the standard trivial-φ rule). canon[o] is
	// o for every operator not (yet) resolved away.
	canon := make([]dfg.OpID, len(d.Ops))
	for i := range canon {
		canon[i] = dfg.OpID(i)
	}
	canonical := func(o dfg.OpID) dfg.OpID {
		for canon[o] != o {
			o = canon[o]
		}
		return o
	}
	for changed := true; changed; {
		changed = false
		for _, p := range phis {
			if canon[p] != p {
				continue // already resolved away
			}
			uniq := dfg.NoOp
			trivial := true
			for _, in := range d.Ops[p].In {
				ca := canonical(resolve(in))
				if ca == p {
					continue // self-reference through the loop
				}
				if uniq == dfg.NoOp {
					uniq = ca
				} else if ca != uniq {
					trivial = false
					break
				}
			}
			if trivial && uniq != dfg.NoOp {
				canon[p] = uniq
				changed = true
			}
		}
	}

	// On irreducible graphs, *webs* of mutually-referencing φs can be
	// collectively trivial even though no single φ is: a strongly
	// connected set of φs whose only external input is one value v is
	// equivalent to v (the redundant-φ-web rule of Braun et al.). The
	// simple fixpoint above cannot see this, so collapse φ-SCCs
	// explicitly, innermost first.
	collapsePhiWebs(d, phis, canon, canonical, resolve)

	// Emit the surviving φs with canonicalized arguments, and uses mapped
	// through the canonical values.
	live := 0
	for _, p := range phis {
		if canon[p] == p {
			live++
		}
	}
	numUses := 0
	for i := range d.Uses {
		if d.Uses[i].Var != dfg.CtlVar {
			numUses++
		}
	}
	f := &Form{G: d.G, Phis: make(map[PhiKey]*Phi, live), UseDef: make(map[UseKey]Value, numUses)}
	out := make([]Phi, 0, live)
	for _, p := range phis {
		if canon[p] != p {
			continue // eliminated as trivial
		}
		op := &d.Ops[p]
		out = append(out, Phi{Node: op.Node, Var: op.Var, Args: make(map[cfg.EdgeID]Value, len(op.In))})
		np := &out[len(out)-1]
		for i, in := range op.In {
			np.Args[op.InEdges[i]] = value(canonical(resolve(in)))
		}
		f.Phis[PhiKey{op.Node, op.Var}] = np
	}
	for _, u := range d.Uses {
		if u.Var == dfg.CtlVar {
			continue
		}
		f.UseDef[UseKey{u.Node, u.Var}] = value(canonical(resolve(u.Src)))
	}
	return f
}

// collapsePhiWebs resolves strongly connected components of φ-functions
// (merge operators) whose arguments, outside the component, are all one
// value: the whole web canonicalizes to that value. Components are
// processed in dependency order (arguments before the φs that use them),
// so chained webs collapse in one pass.
func collapsePhiWebs(d *dfg.Graph, phis []dfg.OpID, canon []dfg.OpID, canonical func(dfg.OpID) dfg.OpID, resolve func(dfg.Src) dfg.OpID) {
	// Number the φs still canonical to themselves; idx[o] is -1 for every
	// other operator.
	keys := make([]dfg.OpID, 0, len(phis))
	idx := make([]int, len(d.Ops))
	for i := range idx {
		idx[i] = -1
	}
	for _, p := range phis {
		if canon[p] == p {
			idx[p] = len(keys)
			keys = append(keys, p)
		}
	}
	if len(keys) == 0 {
		return
	}
	// Argument graph among live φs: at most one edge per argument.
	deg := make([]int, len(keys))
	for i, k := range keys {
		deg[i] = len(d.Ops[k].In)
	}
	g := graph.NewDirectedDegrees(deg)
	for i, k := range keys {
		for _, in := range d.Ops[k].In {
			if j := idx[canonical(resolve(in))]; j >= 0 {
				g.AddEdge(i, j)
			}
		}
	}
	comp, n := graph.SCC(g)
	memOff, members := graph.Group(n, len(comp), func(i int) int { return comp[i] })
	// SCC numbering has successors (arguments) in lower-numbered
	// components; process them first.
	for c := 0; c < n; c++ {
		external := dfg.NoOp
		uniform := true
		for _, i := range members[memOff[c]:memOff[c+1]] {
			for _, in := range d.Ops[keys[i]].In {
				ca := canonical(resolve(in))
				if j := idx[ca]; j >= 0 && comp[j] == c {
					continue // internal reference
				}
				if external == dfg.NoOp {
					external = ca
				} else if ca != external {
					uniform = false
				}
			}
		}
		if external != dfg.NoOp && uniform {
			for _, i := range members[memOff[c]:memOff[c+1]] {
				canon[keys[i]] = external
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Equivalence

// EquivalentOnUses reports whether two SSA forms resolve every real use to
// the same value graph: identical use→value mapping, and for every φ
// reachable from a use (transitively), identical arguments. Unreachable
// (dead) φs are ignored, which makes minimal and pruned SSA comparable.
// A non-nil error describes the first difference.
func EquivalentOnUses(a, b *Form) error {
	if len(a.UseDef) != len(b.UseDef) {
		return fmt.Errorf("ssa: use counts differ: %d vs %d", len(a.UseDef), len(b.UseDef))
	}
	var queue []PhiKey
	seen := map[PhiKey]bool{}
	enqueue := func(v Value) {
		if v.Kind == ValPhi {
			k := PhiKey{v.Node, v.Var}
			if !seen[k] {
				seen[k] = true
				queue = append(queue, k)
			}
		}
	}
	for k, va := range a.UseDef {
		vb, ok := b.UseDef[k]
		if !ok {
			return fmt.Errorf("ssa: use %v missing in second form", k)
		}
		if va != vb {
			return fmt.Errorf("ssa: use %v resolves to %v vs %v", k, va, vb)
		}
		enqueue(va)
	}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		pa, oka := a.Phis[k]
		pb, okb := b.Phis[k]
		if !oka || !okb {
			return fmt.Errorf("ssa: φ %v present=%v/%v", k, oka, okb)
		}
		if len(pa.Args) != len(pb.Args) {
			return fmt.Errorf("ssa: φ %v arg counts differ: %d vs %d", k, len(pa.Args), len(pb.Args))
		}
		for e, va := range pa.Args {
			vb, ok := pb.Args[e]
			if !ok {
				return fmt.Errorf("ssa: φ %v missing arg for edge e%d", k, e)
			}
			if va != vb {
				return fmt.Errorf("ssa: φ %v arg e%d: %v vs %v", k, e, va, vb)
			}
			enqueue(va)
		}
	}
	return nil
}

// String renders the SSA form: φs then use→def bindings, sorted.
func (f *Form) String() string {
	var b strings.Builder
	var phiKeys []PhiKey
	for k := range f.Phis {
		phiKeys = append(phiKeys, k)
	}
	sort.Slice(phiKeys, func(i, j int) bool {
		if phiKeys[i].Node != phiKeys[j].Node {
			return phiKeys[i].Node < phiKeys[j].Node
		}
		return phiKeys[i].Var < phiKeys[j].Var
	})
	for _, k := range phiKeys {
		phi := f.Phis[k]
		var es []cfg.EdgeID
		for e := range phi.Args {
			es = append(es, e)
		}
		sort.Slice(es, func(i, j int) bool { return es[i] < es[j] })
		parts := make([]string, len(es))
		for i, e := range es {
			parts[i] = fmt.Sprintf("e%d:%s", e, phi.Args[e])
		}
		fmt.Fprintf(&b, "phi %s @n%d = φ(%s)\n", k.Var, k.Node, strings.Join(parts, ", "))
	}
	var useKeys []UseKey
	for k := range f.UseDef {
		useKeys = append(useKeys, k)
	}
	sort.Slice(useKeys, func(i, j int) bool {
		if useKeys[i].Node != useKeys[j].Node {
			return useKeys[i].Node < useKeys[j].Node
		}
		return useKeys[i].Var < useKeys[j].Var
	})
	for _, k := range useKeys {
		fmt.Fprintf(&b, "use %s @n%d <- %s\n", k.Var, k.Node, f.UseDef[k])
	}
	return b.String()
}
