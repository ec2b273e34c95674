// Package cdg computes control dependence two ways:
//
//   - Factored: the paper's O(E) construction (§3.1, "this algorithm can be
//     used to build a program's control dependence graph in O(E) time").
//     Control-dependence-equivalent nodes are grouped into classes using
//     cycle equivalence — without computing dominators or postdominance
//     frontiers — and each class appears once in the factored graph. This
//     partition is what the pipeline's cdg stage serves.
//
//   - FOW: the classic Ferrante–Ottenstein–Warren construction via
//     postdominance frontiers on the ENTRY-augmented CFG. This is the
//     baseline the paper improves on; its output is the full control
//     dependence relation (node → set of controlling branch edges) and can
//     be Θ(N·E) in size and time.
//
// The per-class dependence sets come from postdominators: ClassDeps reads
// each class's set off the FOW relation at one representative member.
// Deriving them in O(E) from the program structure tree would be a further
// algorithm; nothing served needs the sets, only the partition.
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

// ---------------------------------------------------------------------------
// Factored CDG via cycle equivalence

// Factored is the paper's factored control dependence graph as a
// partition: nodes with the same control dependence share a class.
type Factored struct {
	// ClassOf maps every CFG node, indexed by NodeID, to its
	// control-dependence class.
	ClassOf []int
	// NumClasses is the number of distinct classes.
	NumClasses int
	// Members lists the nodes of each class, ascending.
	Members [][]cfg.NodeID
}

// BuildFactored groups CFG nodes by control dependence in O(E). It runs
// regions.EdgeClasses itself; a caller that already holds the classes (the
// pipeline's regions stage) passes them to BuildFactoredWithClasses
// instead.
func BuildFactored(g *cfg.Graph) *Factored {
	edgeClass, _ := regions.EdgeClasses(g)
	return BuildFactoredWithClasses(g, edgeClass)
}

// BuildFactoredWithClasses groups CFG nodes by control dependence using
// edge cycle equivalence: a node with a single in-edge shares its in-edge's
// class (switches, assignments); a node with a single out-edge shares its
// out-edge's class (merges); start/end belong to the class of start's
// out-edge. edgeClass maps every live edge of g to its control dependence
// class, as regions.EdgeClasses (or regions.Info.ClassOf) does; it is read
// and never modified.
func BuildFactoredWithClasses(g *cfg.Graph, edgeClass []int) *Factored {
	f := &Factored{ClassOf: make([]int, g.NumNodes())}
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
	for id, c := range f.ClassOf {
		f.Members[c] = append(f.Members[c], cfg.NodeID(id))
	}
	return f
}

// ClassDeps returns each class's control dependence set, read off the FOW
// relation at one representative member: every member of a class has the
// same set, which is what lets the factored graph store it once. The end
// node is never the representative, since classic FOW leaves its set empty
// by convention even when it shares a class with the unconditional nodes.
func ClassDeps(g *cfg.Graph, f *Factored, fow *FOW) [][]Dep {
	deps := make([][]Dep, f.NumClasses)
	for c, members := range f.Members {
		for _, m := range members {
			if m != g.End {
				deps[c] = fow.Deps[m]
				break
			}
		}
	}
	return deps
}

// String renders the partition, one class per line.
func (f *Factored) String() string { return f.Format(nil) }

// Format renders the factored CDG, one class per line, followed on each
// line by the class's dependence set when deps (as ClassDeps returns) is
// non-nil.
func (f *Factored) Format(deps [][]Dep) string {
	var b strings.Builder
	for c, members := range f.Members {
		ids := make([]string, len(members))
		for i, m := range members {
			ids[i] = fmt.Sprintf("n%d", m)
		}
		fmt.Fprintf(&b, "class %d: {%s}", c, strings.Join(ids, ","))
		if deps != nil {
			ds := make([]string, len(deps[c]))
			for i, d := range deps[c] {
				ds[i] = d.String()
			}
			fmt.Fprintf(&b, " deps {%s}", strings.Join(ds, ","))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
