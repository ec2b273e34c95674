// Package cfg implements the control flow graph representation of
// Definition 1 in Johnson & Pingali (PLDI 1993):
//
//	"A control flow graph (CFG) is a directed graph with distinguished
//	 nodes start and end such that all nodes are reachable from start and
//	 all nodes have a path to end. start is the only node with no
//	 predecessors, and end is the only node with no successors."
//
// Following the paper, branching and merging of control flow are separated
// from computation by explicit switch and merge nodes:
//
//   - a switch node evaluates a predicate and redirects control to its
//     true or false out-edge;
//   - a merge node performs no computation and is the target of multiple
//     control flow edges;
//   - assignment/read/print nodes perform non-branching computation and
//     have exactly one in-edge and one out-edge.
//
// Every edge carries a stable EdgeID; the paper's algorithms (cycle
// equivalence, DFG construction, anticipatability) are all edge-oriented,
// so edges are first-class here.
package cfg

import (
	"fmt"
	"sort"
	"strings"

	"dfg/internal/lang/ast"
)

// NodeID indexes Graph.Nodes.
type NodeID int

// EdgeID indexes Graph.Edges.
type EdgeID int

// None is the sentinel for "no node" / "no edge".
const (
	NoNode NodeID = -1
	NoEdge EdgeID = -1
)

// NodeKind discriminates the node types of the CFG.
type NodeKind int

// Node kinds.
const (
	KindStart  NodeKind = iota // unique entry; no predecessors
	KindEnd                    // unique exit; no successors
	KindAssign                 // Var := Expr
	KindRead                   // read Var (runtime-unknown definition of Var)
	KindPrint                  // print Expr (observable effect)
	KindSwitch                 // branch on Expr; out-edges labelled true/false
	KindMerge                  // control flow join; no computation
	KindNop                    // placeholder; no computation (used by transforms)
)

// String returns the lower-case kind name.
func (k NodeKind) String() string {
	switch k {
	case KindStart:
		return "start"
	case KindEnd:
		return "end"
	case KindAssign:
		return "assign"
	case KindRead:
		return "read"
	case KindPrint:
		return "print"
	case KindSwitch:
		return "switch"
	case KindMerge:
		return "merge"
	case KindNop:
		return "nop"
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// Branch labels a switch out-edge.
type Branch int

// Branch values.
const (
	BranchNone  Branch = iota // not a switch out-edge
	BranchTrue                // taken when the switch predicate is true
	BranchFalse               // taken when the switch predicate is false
)

// String renders the branch label.
func (b Branch) String() string {
	switch b {
	case BranchTrue:
		return "T"
	case BranchFalse:
		return "F"
	}
	return ""
}

// Node is a CFG node. Var and Expr are meaningful per kind:
//
//	KindAssign: Var := Expr
//	KindRead:   Var defined from input
//	KindPrint:  Expr printed
//	KindSwitch: Expr is the predicate
type Node struct {
	ID   NodeID
	Kind NodeKind
	Var  string
	Expr ast.Expr
	// Comment is an optional annotation shown in dumps (e.g. source label
	// names or "loop header").
	Comment string

	In  []EdgeID // incoming edges, in insertion order
	Out []EdgeID // outgoing edges; for a switch, true edge then false edge
}

// Edge is a directed control flow edge.
type Edge struct {
	ID     EdgeID
	Src    NodeID
	Dst    NodeID
	Branch Branch // BranchTrue/BranchFalse for switch out-edges
	// Dead marks edges removed by transformations without renumbering.
	Dead bool
}

// Graph is a control flow graph. Construct with New and AddNode/AddEdge, or
// lower an AST with Build. Nodes and edges are never physically deleted;
// dead ones are flagged so IDs remain stable across transformations.
type Graph struct {
	Nodes []*Node
	Edges []*Edge
	Start NodeID
	End   NodeID
	// VarNames lists the program's variables in a stable order (set by
	// Build; kept current by transformations that introduce temporaries).
	VarNames []string
}

// New returns an empty graph with start and end nodes created.
func New() *Graph {
	g := &Graph{Start: NoNode, End: NoNode}
	g.Start = g.AddNode(KindStart)
	g.End = g.AddNode(KindEnd)
	return g
}

// AddNode appends a node of the given kind and returns its ID.
func (g *Graph) AddNode(kind NodeKind) NodeID {
	id := NodeID(len(g.Nodes))
	g.Nodes = append(g.Nodes, &Node{ID: id, Kind: kind})
	return id
}

// AddEdge appends an edge src→dst with branch label b and returns its ID.
func (g *Graph) AddEdge(src, dst NodeID, b Branch) EdgeID {
	id := EdgeID(len(g.Edges))
	g.Edges = append(g.Edges, &Edge{ID: id, Src: src, Dst: dst, Branch: b})
	g.Nodes[src].Out = append(g.Nodes[src].Out, id)
	g.Nodes[dst].In = append(g.Nodes[dst].In, id)
	return id
}

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) *Node { return g.Nodes[id] }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) *Edge { return g.Edges[id] }

// Ends returns edge id's source and destination nodes.
func (g *Graph) Ends(id EdgeID) (src, dst NodeID) {
	e := g.Edges[id]
	return e.Src, e.Dst
}

// NumNodes returns the total node count including dead-end placeholders.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumEdges returns the total edge count including dead edges.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// LiveEdges returns the IDs of all non-dead edges, ascending.
func (g *Graph) LiveEdges() []EdgeID {
	var out []EdgeID
	for _, e := range g.Edges {
		if !e.Dead {
			out = append(out, e.ID)
		}
	}
	return out
}

// Succs returns the successor node IDs of n over live edges, in out-edge
// order.
func (g *Graph) Succs(n NodeID) []NodeID {
	var out []NodeID
	for _, eid := range g.Nodes[n].Out {
		if e := g.Edges[eid]; !e.Dead {
			out = append(out, e.Dst)
		}
	}
	return out
}

// Preds returns the predecessor node IDs of n over live edges, in in-edge
// order.
func (g *Graph) Preds(n NodeID) []NodeID {
	var out []NodeID
	for _, eid := range g.Nodes[n].In {
		if e := g.Edges[eid]; !e.Dead {
			out = append(out, e.Src)
		}
	}
	return out
}

// OutEdges returns n's live out-edge IDs in order. When every out-edge is
// live (the common case) the node's own slice is returned; callers must not
// mutate the result.
func (g *Graph) OutEdges(n NodeID) []EdgeID {
	return liveEdgeList(g, g.Nodes[n].Out)
}

// InEdges returns n's live in-edge IDs in order. When every in-edge is live
// the node's own slice is returned; callers must not mutate the result.
func (g *Graph) InEdges(n NodeID) []EdgeID {
	return liveEdgeList(g, g.Nodes[n].In)
}

func liveEdgeList(g *Graph, all []EdgeID) []EdgeID {
	for i, eid := range all {
		if g.Edges[eid].Dead {
			out := make([]EdgeID, i, len(all)-1)
			copy(out, all[:i])
			for _, eid := range all[i+1:] {
				if !g.Edges[eid].Dead {
					out = append(out, eid)
				}
			}
			return out
		}
	}
	return all
}

// SwitchEdge returns the out-edge of switch node n with the given branch
// label, or NoEdge.
func (g *Graph) SwitchEdge(n NodeID, b Branch) EdgeID {
	for _, eid := range g.OutEdges(n) {
		if g.Edges[eid].Branch == b {
			return eid
		}
	}
	return NoEdge
}

// Defs returns the variable defined at node n ("" if none). In this IR only
// assign and read nodes define variables.
func (g *Graph) Defs(n NodeID) string {
	nd := g.Nodes[n]
	if nd.Kind == KindAssign || nd.Kind == KindRead {
		return nd.Var
	}
	return ""
}

// Uses returns the distinct variables used (read) at node n.
func (g *Graph) Uses(n NodeID) []string {
	nd := g.Nodes[n]
	switch nd.Kind {
	case KindAssign, KindPrint, KindSwitch:
		return ast.ExprVars(nd.Expr)
	}
	return nil
}

// UsesByNode returns Uses(n) for every node, indexed by NodeID. The rows
// share one backing array, so the table costs a few allocations where a
// Uses call per node costs one per node that reads a variable. Callers must
// not mutate the rows.
func (g *Graph) UsesByNode() [][]string {
	all := make([]string, 0, len(g.Nodes))
	ends := make([]int, len(g.Nodes))
	for i, nd := range g.Nodes {
		switch nd.Kind {
		case KindAssign, KindPrint, KindSwitch:
			all = ast.AppendExprVars(all, nd.Expr)
		}
		ends[i] = len(all)
	}
	rows := make([][]string, len(g.Nodes))
	start := 0
	for i, end := range ends {
		if end > start {
			rows[i] = all[start:end:end]
		}
		start = end
	}
	return rows
}

// Validate checks the structural invariants of Definition 1 and of the
// switch/merge discipline. It returns a non-nil error describing every
// violation found.
func (g *Graph) Validate() error {
	var errs []string
	bad := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }

	if g.Start == NoNode || g.End == NoNode {
		return fmt.Errorf("cfg: graph missing start/end")
	}
	for _, n := range g.Nodes {
		in, out := len(g.InEdges(n.ID)), len(g.OutEdges(n.ID))
		switch n.Kind {
		case KindStart:
			if in != 0 {
				bad("start node has %d in-edges", in)
			}
			if out != 1 {
				bad("start node has %d out-edges, want 1", out)
			}
		case KindEnd:
			if out != 0 {
				bad("end node has %d out-edges", out)
			}
		case KindSwitch:
			if out != 2 {
				bad("switch node %d has %d out-edges, want 2", n.ID, out)
			} else {
				t, f := g.SwitchEdge(n.ID, BranchTrue), g.SwitchEdge(n.ID, BranchFalse)
				if t == NoEdge || f == NoEdge {
					bad("switch node %d lacks labelled true/false out-edges", n.ID)
				}
			}
			if in != 1 {
				bad("switch node %d has %d in-edges, want 1", n.ID, in)
			}
		case KindMerge:
			if in < 2 {
				bad("merge node %d has %d in-edges, want >=2", n.ID, in)
			}
			if out != 1 {
				bad("merge node %d has %d out-edges, want 1", n.ID, out)
			}
		case KindAssign, KindRead, KindPrint, KindNop:
			if in != 1 || out != 1 {
				bad("%s node %d has %d in / %d out edges, want 1/1", n.Kind, n.ID, in, out)
			}
		}
	}

	// Reachability from start and co-reachability to end.
	fromStart := g.reachable(g.Start, false)
	toEnd := g.reachable(g.End, true)
	for _, n := range g.Nodes {
		if !fromStart[n.ID] {
			bad("node %d (%s) unreachable from start", n.ID, n.Kind)
		}
		if !toEnd[n.ID] {
			bad("node %d (%s) has no path to end", n.ID, n.Kind)
		}
	}

	if len(errs) > 0 {
		return fmt.Errorf("cfg: invalid graph:\n  %s", strings.Join(errs, "\n  "))
	}
	return nil
}

// reachable returns the set of nodes reachable from n following live edges
// forward (reverse=false) or backward (reverse=true).
func (g *Graph) reachable(n NodeID, reverse bool) map[NodeID]bool {
	seen := map[NodeID]bool{n: true}
	stack := []NodeID{n}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		var next []NodeID
		if reverse {
			next = g.Preds(cur)
		} else {
			next = g.Succs(cur)
		}
		for _, m := range next {
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	return seen
}

// NodeLabel renders a short human-readable label for node n, used in dumps
// and DOT output.
func (g *Graph) NodeLabel(n NodeID) string {
	nd := g.Nodes[n]
	switch nd.Kind {
	case KindStart:
		return "start"
	case KindEnd:
		return "end"
	case KindAssign:
		return fmt.Sprintf("%s := %s", nd.Var, nd.Expr)
	case KindRead:
		return fmt.Sprintf("read %s", nd.Var)
	case KindPrint:
		return fmt.Sprintf("print %s", nd.Expr)
	case KindSwitch:
		return fmt.Sprintf("switch %s", nd.Expr)
	case KindMerge:
		return "merge"
	case KindNop:
		return "nop"
	}
	return "?"
}

// String renders the graph as an adjacency listing, one node per line, in
// node ID order. Dead edges are omitted.
func (g *Graph) String() string {
	var b strings.Builder
	for _, n := range g.Nodes {
		fmt.Fprintf(&b, "n%d [%s]", n.ID, g.NodeLabel(n.ID))
		if outs := g.OutEdges(n.ID); len(outs) > 0 {
			parts := make([]string, len(outs))
			for i, eid := range outs {
				e := g.Edges[eid]
				lbl := ""
				if e.Branch != BranchNone {
					lbl = ":" + e.Branch.String()
				}
				parts[i] = fmt.Sprintf("e%d%s->n%d", e.ID, lbl, e.Dst)
			}
			fmt.Fprintf(&b, "  %s", strings.Join(parts, " "))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// DOT renders the graph in Graphviz format. Dead edges are drawn dashed grey
// when includeDead is set, and omitted otherwise.
func (g *Graph) DOT(name string, includeDead bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  node [shape=box, fontname=\"monospace\"];\n", name)
	for _, n := range g.Nodes {
		shape := "box"
		switch n.Kind {
		case KindSwitch:
			shape = "diamond"
		case KindMerge:
			shape = "invtriangle"
		case KindStart, KindEnd:
			shape = "ellipse"
		}
		fmt.Fprintf(&b, "  n%d [label=%q, shape=%s];\n", n.ID, g.NodeLabel(n.ID), shape)
	}
	for _, e := range g.Edges {
		if e.Dead && !includeDead {
			continue
		}
		attrs := []string{fmt.Sprintf("label=\"e%d%s\"", e.ID, branchSuffix(e.Branch))}
		if e.Dead {
			attrs = append(attrs, "style=dashed", "color=gray")
		}
		fmt.Fprintf(&b, "  n%d -> n%d [%s];\n", e.Src, e.Dst, strings.Join(attrs, ", "))
	}
	b.WriteString("}\n")
	return b.String()
}

func branchSuffix(b Branch) string {
	if b == BranchNone {
		return ""
	}
	return " (" + b.String() + ")"
}

// SortedVarNames returns a sorted copy of the graph's variable names.
func (g *Graph) SortedVarNames() []string {
	out := append([]string(nil), g.VarNames...)
	sort.Strings(out)
	return out
}

// VarIndex returns a map from variable name to its index in VarNames.
func (g *Graph) VarIndex() map[string]int {
	m := make(map[string]int, len(g.VarNames))
	for i, v := range g.VarNames {
		m[v] = i
	}
	return m
}

// SplitEdge interposes node n (which must be freshly created, with no
// incident edges) on edge eid: the edge is rerouted to end at n, and a new
// edge n→(old destination) is added and returned. The original edge keeps
// its branch label, which preserves switch out-edge labelling. This is the
// edge-splitting primitive partial redundancy elimination uses for
// insertions — the paper notes that edge-based placement avoids the empty
// basic blocks node-based formulations must add and later remove (§5.2).
func (g *Graph) SplitEdge(eid EdgeID, n NodeID) EdgeID {
	e := g.Edges[eid]
	oldDst := e.Dst

	// Detach eid from the old destination's in-list.
	ins := g.Nodes[oldDst].In
	for i, id := range ins {
		if id == eid {
			g.Nodes[oldDst].In = append(ins[:i:i], ins[i+1:]...)
			break
		}
	}
	e.Dst = n
	g.Nodes[n].In = append(g.Nodes[n].In, eid)
	return g.AddEdge(n, oldDst, BranchNone)
}

// AddVar registers a variable name (e.g. an EPR temporary) if not present.
func (g *Graph) AddVar(name string) {
	for _, v := range g.VarNames {
		if v == name {
			return
		}
	}
	g.VarNames = append(g.VarNames, name)
}
