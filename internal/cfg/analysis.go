package cfg

import (
	"dfg/internal/graph"
)

// Positional projects the CFG onto a positional directed graph over node IDs
// (live edges only), suitable for the algorithms in internal/graph.
func (g *Graph) Positional() *graph.Directed { return g.positional(false) }

// ReversePositional projects the transpose CFG (for postdominance).
func (g *Graph) ReversePositional() *graph.Directed { return g.positional(true) }

func (g *Graph) positional(reverse bool) *graph.Directed {
	deg := make([]int, len(g.Nodes))
	for _, e := range g.Edges {
		if !e.Dead {
			if reverse {
				deg[e.Dst]++
			} else {
				deg[e.Src]++
			}
		}
	}
	d := graph.NewDirectedDegrees(deg)
	for _, e := range g.Edges {
		if !e.Dead {
			if reverse {
				d.AddEdge(int(e.Dst), int(e.Src))
			} else {
				d.AddEdge(int(e.Src), int(e.Dst))
			}
		}
	}
	return d
}

// SplitGraph builds the paper's "dummy node on each edge" graph (§3.1: "note
// that we can insert a dummy node on each edge and then compute the property
// for nodes"). Positions 0..len(Nodes)-1 are the CFG nodes; position
// len(Nodes)+i is edge i. Dead edges get an isolated dummy node so indices
// stay dense.
func (g *Graph) SplitGraph() *graph.Directed {
	n := len(g.Nodes)
	d := graph.NewDirected(n + len(g.Edges))
	for _, e := range g.Edges {
		if e.Dead {
			continue
		}
		mid := n + int(e.ID)
		d.AddEdge(int(e.Src), mid)
		d.AddEdge(mid, int(e.Dst))
	}
	return d
}

// SplitIndexNode returns the split-graph index of CFG node n.
func (g *Graph) SplitIndexNode(n NodeID) int { return int(n) }

// SplitIndexEdge returns the split-graph index of CFG edge e.
func (g *Graph) SplitIndexEdge(e EdgeID) int { return len(g.Nodes) + int(e) }

// Dominance bundles dominator and postdominator information over the split
// graph, so that dominance queries apply uniformly to nodes and edges
// (Definition 2 extends dominance and postdominance to edges).
type Dominance struct {
	g *Graph
	// Idom and PostIdom are over split-graph indices.
	Idom      []int
	PostIdom  []int
	domDepth  []int
	pdomDepth []int
}

// NewDominance computes dominators (rooted at start) and postdominators
// (rooted at end) over the split graph of g.
func NewDominance(g *Graph) *Dominance {
	split := g.SplitGraph()
	idom := graph.Dominators(split, g.SplitIndexNode(g.Start))

	rsplit := split.Reverse()
	pidom := graph.Dominators(rsplit, g.SplitIndexNode(g.End))

	return &Dominance{
		g:         g,
		Idom:      idom,
		PostIdom:  pidom,
		domDepth:  graph.DominatorDepths(idom),
		pdomDepth: graph.DominatorDepths(pidom),
	}
}

// NodeDominatesNode reports whether node a dominates node b.
func (d *Dominance) NodeDominatesNode(a, b NodeID) bool {
	return graph.Dominates(d.Idom, d.g.SplitIndexNode(a), d.g.SplitIndexNode(b))
}

// NodePostdominatesNode reports whether node a postdominates node b.
func (d *Dominance) NodePostdominatesNode(a, b NodeID) bool {
	return graph.Dominates(d.PostIdom, d.g.SplitIndexNode(a), d.g.SplitIndexNode(b))
}

// EdgeDominatesEdge reports whether edge a dominates edge b (every path from
// start to b passes through a).
func (d *Dominance) EdgeDominatesEdge(a, b EdgeID) bool {
	return graph.Dominates(d.Idom, d.g.SplitIndexEdge(a), d.g.SplitIndexEdge(b))
}

// EdgePostdominatesEdge reports whether edge a postdominates edge b (every
// path from b to end passes through a).
func (d *Dominance) EdgePostdominatesEdge(a, b EdgeID) bool {
	return graph.Dominates(d.PostIdom, d.g.SplitIndexEdge(a), d.g.SplitIndexEdge(b))
}

// EdgePostdominatesNode reports whether edge a postdominates node b.
func (d *Dominance) EdgePostdominatesNode(a EdgeID, b NodeID) bool {
	return graph.Dominates(d.PostIdom, d.g.SplitIndexEdge(a), d.g.SplitIndexNode(b))
}

// NodePostdominatesEdge reports whether node a postdominates edge b.
func (d *Dominance) NodePostdominatesEdge(a NodeID, b EdgeID) bool {
	return graph.Dominates(d.PostIdom, d.g.SplitIndexNode(a), d.g.SplitIndexEdge(b))
}

// EdgePreorder returns, for each edge ID, its discovery index in a
// depth-first traversal from start (-1 for dead or unreached edges). Within
// any set of edges that is totally ordered by dominance (e.g. the heads of
// one DFG multiedge, or a cycle equivalence class), preorder index order
// equals dominance order, because a dominator is discovered before
// everything it dominates.
func (g *Graph) EdgePreorder() []int {
	pre := make([]int, g.NumEdges())
	for i := range pre {
		pre[i] = -1
	}
	visited := make([]bool, g.NumNodes())
	count := 0
	type frame struct {
		node NodeID
		iter int
	}
	stack := []frame{{g.Start, 0}}
	visited[g.Start] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		outs := g.OutEdges(f.node)
		if f.iter < len(outs) {
			eid := outs[f.iter]
			f.iter++
			if pre[eid] < 0 {
				pre[eid] = count
				count++
			}
			dst := g.Edge(eid).Dst
			if !visited[dst] {
				visited[dst] = true
				stack = append(stack, frame{dst, 0})
			}
			continue
		}
		stack = stack[:len(stack)-1]
	}
	return pre
}

// ---------------------------------------------------------------------------
// Brute-force oracles (used by tests and by the FOW-style baselines)

// ReachableNodes returns the set of nodes reachable from n (inclusive).
func (g *Graph) ReachableNodes(n NodeID) map[NodeID]bool { return g.reachable(n, false) }

// CoReachableNodes returns the set of nodes that can reach n (inclusive).
func (g *Graph) CoReachableNodes(n NodeID) map[NodeID]bool { return g.reachable(n, true) }

// EdgesOnSomeCycle reports, for each live edge, whether it lies on a cycle
// (computed via SCCs of the CFG: an edge is on a cycle iff both endpoints
// are in the same nontrivial SCC... more precisely iff the edge connects two
// nodes of the same SCC).
func (g *Graph) EdgesOnSomeCycle() map[EdgeID]bool {
	comp, _ := graph.SCC(g.Positional())
	out := map[EdgeID]bool{}
	for _, e := range g.Edges {
		if e.Dead {
			continue
		}
		if comp[int(e.Src)] == comp[int(e.Dst)] {
			out[e.ID] = true
		}
	}
	return out
}
