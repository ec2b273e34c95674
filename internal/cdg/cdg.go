// Package cdg computes control dependence two ways:
//
//   - FOW: the classic Ferrante–Ottenstein–Warren construction via
//     postdominance frontiers on the ENTRY-augmented CFG. This is the
//     baseline the paper improves on; its output is the full control
//     dependence relation (node → set of controlling branch edges) and can
//     be Θ(N·E) in size and time.
//
//   - Factored: the paper's O(E) construction (§3.1, "this algorithm can be
//     used to build a program's control dependence graph in O(E) time").
//     Control-dependence-equivalent nodes are grouped into region classes
//     using cycle equivalence — without computing dominators or
//     postdominance frontiers — and each class appears once in the factored
//     graph. The full relation is recovered per class rather than per node.
//
// Both produce comparable signatures so tests can check them against each
// other.
package cdg

import (
	"fmt"
	"sort"
	"strings"

	"dfg/internal/cfg"
	"dfg/internal/graph"
	"dfg/internal/regions"
)

// Dep identifies one control dependence: the branch edge that decides
// execution. The virtual ENTRY branch is encoded as Edge == cfg.NoEdge.
type Dep struct {
	Edge cfg.EdgeID // controlling branch edge, or cfg.NoEdge for ENTRY
}

// String renders the dependence.
func (d Dep) String() string {
	if d.Edge == cfg.NoEdge {
		return "ENTRY"
	}
	return fmt.Sprintf("e%d", d.Edge)
}

// FOW holds the full control dependence relation for every node.
type FOW struct {
	// Deps[n] lists the branch edges node n is control dependent on,
	// sorted; the virtual ENTRY dependence marks unconditionally executed
	// nodes.
	Deps map[cfg.NodeID][]Dep
}

// BuildFOW computes the classic CDG on the ENTRY-augmented CFG: node x is
// control dependent on branch edge (s→m) iff x postdominates m but not s.
// Implemented via the postdominator tree the standard way: for each branch
// edge (s, m), walk the postdominator tree from m up to (exclusive)
// ipostdom(s), marking every visited node as dependent on the edge.
func BuildFOW(g *cfg.Graph) *FOW {
	// Augmented positional graph: index N is the virtual ENTRY node with
	// edges ENTRY→start and ENTRY→end, so that postdominance is computed in
	// the standard augmented form.
	n := g.NumNodes()
	entry := n
	d := graph.NewDirected(n + 1)
	for _, e := range g.Edges {
		if !e.Dead {
			d.AddEdge(int(e.Src), int(e.Dst))
		}
	}
	d.AddEdge(entry, int(g.Start))
	d.AddEdge(entry, int(g.End))

	pidom := graph.Dominators(d.Reverse(), int(g.End))

	out := &FOW{Deps: map[cfg.NodeID][]Dep{}}
	mark := func(from, stop int, dep Dep) {
		for x := from; x != stop && x != -1; x = pidom[x] {
			if x < n { // skip the virtual entry
				id := cfg.NodeID(x)
				out.Deps[id] = append(out.Deps[id], dep)
			}
			if pidom[x] == x {
				break
			}
		}
	}
	// Real branch edges: out-edges of nodes with >1 successor.
	for _, nd := range g.Nodes {
		outs := g.OutEdges(nd.ID)
		if len(outs) < 2 {
			continue
		}
		for _, eid := range outs {
			e := g.Edge(eid)
			mark(int(e.Dst), pidom[int(nd.ID)], Dep{Edge: eid})
		}
	}
	// Virtual ENTRY branch: everything postdominating start but not ENTRY.
	mark(int(g.Start), pidom[entry], Dep{Edge: cfg.NoEdge})

	for id := range out.Deps {
		sortDeps(out.Deps[id])
	}
	return out
}

func sortDeps(deps []Dep) {
	sort.Slice(deps, func(i, j int) bool { return deps[i].Edge < deps[j].Edge })
}

// Signature returns a canonical string for n's control dependence set.
func (f *FOW) Signature(n cfg.NodeID) string {
	parts := make([]string, len(f.Deps[n]))
	for i, d := range f.Deps[n] {
		parts[i] = d.String()
	}
	return strings.Join(parts, ",")
}

// ---------------------------------------------------------------------------
// Factored CDG via cycle equivalence

// Factored is the paper's factored control dependence graph: nodes with the
// same control dependence share a class, and the relation is stored once
// per class.
type Factored struct {
	// ClassOf maps every CFG node to its control-dependence class.
	ClassOf map[cfg.NodeID]int
	// NumClasses is the number of distinct classes.
	NumClasses int
	// Members lists the nodes of each class.
	Members [][]cfg.NodeID
	// ClassDeps lists, per class, the controlling branch edges (computed
	// once per class from a representative).
	ClassDeps [][]Dep
}

// BuildFactored groups CFG nodes by control dependence in O(E) using edge
// cycle equivalence: a node with a single in-edge shares its in-edge's
// class (switches, assignments); a node with a single out-edge shares its
// out-edge's class (merges); start/end belong to the class of start's
// out-edge. Per-class dependence sets are then copied from one
// representative per class out of the full FOW relation, which BuildFOW
// computes over every node. It runs regions.EdgeClasses itself; a caller
// that already holds the classes (the pipeline's regions stage) passes them
// to BuildFactoredWithClasses instead.
func BuildFactored(g *cfg.Graph) *Factored {
	edgeClass, _ := regions.EdgeClasses(g)
	return BuildFactoredWithClasses(g, edgeClass)
}

// BuildFactoredWithClasses is BuildFactored over precomputed edge classes:
// edgeClass maps every live edge of g to its control dependence class, as
// regions.EdgeClasses (or regions.Info.ClassOf) does. It reads edgeClass
// and never modifies it.
func BuildFactoredWithClasses(g *cfg.Graph, edgeClass []int) *Factored {
	f := &Factored{ClassOf: make(map[cfg.NodeID]int, g.NumNodes())}
	// renum[ec] is the node class of edge class ec, numbered in node order.
	renum := make([]int, len(edgeClass))
	for i := range renum {
		renum[i] = -1
	}
	for _, nd := range g.Nodes {
		var rep cfg.EdgeID = cfg.NoEdge
		// A node is cycle equivalent to its unique in-edge or unique
		// out-edge: every cycle (in the end→start-augmented graph) through
		// the node passes through that edge and vice versa.
		if ins := g.InEdges(nd.ID); len(ins) == 1 {
			rep = ins[0]
		} else if outs := g.OutEdges(nd.ID); len(outs) == 1 {
			rep = outs[0]
		} else if nd.ID == g.Start {
			if outs := g.OutEdges(nd.ID); len(outs) > 0 {
				rep = outs[0]
			}
		} else if nd.ID == g.End {
			if ins := g.InEdges(nd.ID); len(ins) > 0 {
				rep = ins[0]
			}
		}
		if rep == cfg.NoEdge {
			// A node with multiple in-edges and multiple out-edges cannot
			// occur under the switch/merge discipline.
			panic(fmt.Sprintf("cdg: node %d has no representative edge", nd.ID))
		}
		ec := edgeClass[rep]
		if renum[ec] < 0 {
			renum[ec] = f.NumClasses
			f.NumClasses++
		}
		f.ClassOf[nd.ID] = renum[ec]
	}
	f.Members = make([][]cfg.NodeID, f.NumClasses)
	for _, nd := range g.Nodes {
		c := f.ClassOf[nd.ID]
		f.Members[c] = append(f.Members[c], nd.ID)
	}

	// Fill per-class dependence sets from one representative node each. The
	// end node is skipped as representative: classic FOW leaves its set
	// empty by convention even when it shares a class with unconditional
	// nodes.
	fow := BuildFOW(g)
	f.ClassDeps = make([][]Dep, f.NumClasses)
	for c, members := range f.Members {
		for _, m := range members {
			if m != g.End {
				f.ClassDeps[c] = fow.Deps[m]
				break
			}
		}
	}
	return f
}

// PartitionOnly computes just the control-dependence partition of the
// nodes — the O(E) part of the construction, with no postdominators at all
// and no dependence sets. This is what experiment E8 benchmarks against
// BuildFOW.
func PartitionOnly(g *cfg.Graph) map[cfg.NodeID]int {
	edgeClass, _ := regions.EdgeClasses(g)
	out := make(map[cfg.NodeID]int, g.NumNodes())
	for _, nd := range g.Nodes {
		if ins := g.InEdges(nd.ID); len(ins) == 1 {
			out[nd.ID] = edgeClass[ins[0]]
		} else if outs := g.OutEdges(nd.ID); len(outs) == 1 {
			out[nd.ID] = edgeClass[outs[0]]
		} else if ins := g.InEdges(nd.ID); len(ins) > 0 {
			out[nd.ID] = edgeClass[ins[0]]
		} else if outs := g.OutEdges(nd.ID); len(outs) > 0 {
			out[nd.ID] = edgeClass[outs[0]]
		}
	}
	return out
}

// String renders the factored CDG, one class per line.
func (f *Factored) String() string {
	var b strings.Builder
	for c, members := range f.Members {
		ids := make([]string, len(members))
		for i, m := range members {
			ids[i] = fmt.Sprintf("n%d", m)
		}
		deps := make([]string, len(f.ClassDeps[c]))
		for i, d := range f.ClassDeps[c] {
			deps[i] = d.String()
		}
		fmt.Fprintf(&b, "class %d: {%s} deps {%s}\n", c, strings.Join(ids, ","), strings.Join(deps, ","))
	}
	return b.String()
}
