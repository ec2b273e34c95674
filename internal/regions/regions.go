package regions

import (
	"fmt"
	"sort"
	"strings"

	"dfg/internal/cfg"
	"dfg/internal/graph"
)

// EdgeClasses computes, for every live edge of g, its control dependence
// equivalence class (Claim 1 + Claim 2 + the bracket-set DFS), in O(E)
// time. Dead edges map to -1. Two edges receive the same class iff they
// have the same control dependence, which by Theorem 1 holds iff each
// dominance-consecutive pair of them bounds a single-entry single-exit
// region. Classes are numbered densely in order of first appearance over
// the live edges, ascending by edge ID.
func EdgeClasses(g *cfg.Graph) (classOf []int, numClasses int) {
	classOf, numClasses, _ = edgeClasses(g)
	return classOf, numClasses
}

// edgeClasses is EdgeClasses that also returns cycleEquiv's operation
// count, for the O(E) op-count tests.
func edgeClasses(g *cfg.Graph) (classOf []int, numClasses, ops int) {
	classOf = newEdgeTable(g)
	live := 0
	for _, e := range g.Edges {
		if !e.Dead {
			live++
		}
	}
	if live == 0 {
		return classOf, 0, 0
	}

	// Claims 1 and 2 give the undirected graph G': a dummy node per CFG
	// edge plus one for the augmenting edge end→start, every node x split
	// into the path x_in — x — x_out, each directed edge u→v undirected as
	// u_out — v_in. Every x and every dummy's split triple has degree 2 in
	// G', and replacing a path through degree-2 nodes by a single edge maps
	// cycles one-to-one, so it keeps every class. The graph built here is
	// G' with those paths contracted (the node expansion of Johnson,
	// Pearson & Pingali):
	//
	//   x_in = 2x, x_out = 2x+1              for each CFG node x
	//   edge x:      x_in — x_out            (the node itself)
	//   edge n+i:    u_out — v_in            (the i-th live edge u→v)
	//   edge n+live: end_out — start_in      (the augmenting edge)
	//
	// A CFG edge's class is the class of its contracted edge.
	n := g.NumNodes()
	und := graph.NewUndirected(2*n, n+live+1)
	for x := 0; x < n; x++ {
		und.AddEdge(2*x, 2*x+1)
	}
	for _, e := range g.Edges {
		if !e.Dead {
			und.AddEdge(2*int(e.Src)+1, 2*int(e.Dst))
		}
	}
	und.AddEdge(2*int(g.End)+1, 2*int(g.Start))

	off, half := und.Adjacency()
	classes := make([]int32, und.M)
	num, ops := cycleEquiv(und.N, off, half, classes)

	// Renumber densely over the classes that label live CFG edges.
	renum := make([]int32, num)
	for i := range renum {
		renum[i] = -1
	}
	i := n
	for _, e := range g.Edges {
		if e.Dead {
			continue
		}
		c := classes[i]
		i++
		if renum[c] < 0 {
			renum[c] = int32(numClasses)
			numClasses++
		}
		classOf[e.ID] = int(renum[c])
	}
	return classOf, numClasses, ops
}

// Region is a canonical single-entry single-exit region: the subgraph
// between Entry and Exit, where Entry dominates Exit, Exit postdominates
// Entry, and the two edges are cycle equivalent (Theorem 1).
type Region struct {
	ID       int
	Entry    cfg.EdgeID
	Exit     cfg.EdgeID
	Parent   int // index of the innermost enclosing region, or -1
	Children []int
	Depth    int // nesting depth; top-level regions have depth 0
}

// Info is the full result of SESE analysis: edge equivalence classes, the
// canonical regions, and the program structure tree (PST) that nests them.
// All per-edge and per-node tables are dense slices indexed by ID, with -1
// marking "no value" (dead edges, nodes outside every region, edges that
// bound no region).
type Info struct {
	G          *cfg.Graph
	ClassOf    []int // per edge ID; -1 for dead edges
	NumClasses int
	Regions    []*Region
	// EdgeRegion maps each live edge to the innermost region that strictly
	// contains it (boundary edges belong to the enclosing region), or -1.
	EdgeRegion []int
	// NodeRegion maps each node to the innermost region containing it, or
	// -1 for nodes outside every region (start, end, top-level spine).
	NodeRegion []int
	// EntryOf maps an edge to the canonical region it is the entry of, and
	// ExitOf to the region it is the exit of (at most one each); -1 means
	// the edge bounds no canonical region on that side.
	EntryOf []int
	ExitOf  []int
}

// newEdgeTable returns a per-edge int table initialized to -1.
func newEdgeTable(g *cfg.Graph) []int {
	t := make([]int, g.NumEdges())
	for i := range t {
		t[i] = -1
	}
	return t
}

// newNodeTable returns a per-node int table initialized to -1.
func newNodeTable(g *cfg.Graph) []int {
	t := make([]int, g.NumNodes())
	for i := range t {
		t[i] = -1
	}
	return t
}

// Analyze computes edge classes, canonical SESE regions, and the PST.
//
// Canonical regions are derived per the paper: within one equivalence
// class, edges are totally ordered by dominance; each consecutive pair is
// the (entry, exit) of a canonical SESE region. Nesting is recovered with a
// single forward propagation of open-region contexts over the CFG.
func Analyze(g *cfg.Graph) (*Info, error) {
	classOf, num := EdgeClasses(g)
	return AnalyzeWithClasses(g, classOf, num)
}

// AnalyzeWithClasses derives regions and the PST from a caller-supplied
// edge partition, which must be *finer than or equal to* control dependence
// equivalence (§3.3 "Region Bypassing": "any equivalence relation on CFG
// edges that is finer than control dependence equivalence can be used to
// construct the DFG"). Finer partitions yield fewer and smaller regions,
// hence less bypassing — see BasicBlockClasses and SingletonClasses.
func AnalyzeWithClasses(g *cfg.Graph, classOf []int, num int) (*Info, error) {
	info := &Info{
		G: g, ClassOf: classOf, NumClasses: num,
		EdgeRegion: newEdgeTable(g),
		NodeRegion: newNodeTable(g),
		EntryOf:    newEdgeTable(g),
		ExitOf:     newEdgeTable(g),
	}

	// Order the members of each class by dominance. In any DFS from start,
	// a dominator is visited before everything it dominates, and class
	// members are totally ordered by dominance, so sorting members by DFS
	// preorder of their dummy (here: preorder of discovery of the edge in a
	// CFG DFS) yields the dominance order.
	pre := g.EdgePreorder()
	byClass := make([][]cfg.EdgeID, num)
	for _, eid := range g.LiveEdges() {
		c := classOf[eid]
		byClass[c] = append(byClass[c], eid)
	}
	for _, members := range byClass {
		sort.Slice(members, func(i, j int) bool { return pre[members[i]] < pre[members[j]] })
	}

	regionWithEntry := info.EntryOf
	regionWithExit := info.ExitOf
	for _, members := range byClass {
		for i := 0; i+1 < len(members); i++ {
			r := &Region{ID: len(info.Regions), Entry: members[i], Exit: members[i+1], Parent: -1}
			info.Regions = append(info.Regions, r)
			regionWithEntry[r.Entry] = r.ID
			regionWithExit[r.Exit] = r.ID
		}
	}

	// Propagate open-region context over the CFG. ctx(node) = innermost
	// region open at that node. Crossing edge e: first close the region
	// whose exit is e, then open the region whose entry is e. Each region
	// is opened exactly once (its entry edge is unique), so context cells
	// are physically shared and contexts are equal iff the head pointers
	// are equal.
	nodeCtx := make([]*ctxCell, g.NumNodes())
	visited := make([]bool, g.NumNodes())
	visited[g.Start] = true
	info.NodeRegion[g.Start] = -1
	queue := []cfg.NodeID{g.Start}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, eid := range g.OutEdges(u) {
			e := g.Edge(eid)
			c := nodeCtx[u]
			if rid := regionWithExit[eid]; rid >= 0 {
				if c == nil || c.region != rid {
					return nil, fmt.Errorf("regions: inconsistent nesting closing region %d at edge %d", rid, eid)
				}
				c = c.parent
			}
			// The edge belongs to the region open after closing, before
			// opening (boundary edges belong to the parent of the region
			// they bound; interior edges to the innermost open region).
			if c != nil {
				info.EdgeRegion[eid] = c.region
			} else {
				info.EdgeRegion[eid] = -1
			}
			if rid := regionWithEntry[eid]; rid >= 0 {
				r := info.Regions[rid]
				if c != nil {
					r.Parent = c.region
				} else {
					r.Parent = -1
				}
				c = &ctxCell{region: rid, parent: c}
			}
			v := e.Dst
			if visited[v] {
				if nodeCtx[v] != c {
					return nil, fmt.Errorf("regions: inconsistent context at node %d", v)
				}
				continue
			}
			visited[v] = true
			nodeCtx[v] = c
			if c != nil {
				info.NodeRegion[v] = c.region
			} else {
				info.NodeRegion[v] = -1
			}
			queue = append(queue, v)
		}
	}

	// Parent links → children and depth.
	for _, r := range info.Regions {
		if r.Parent >= 0 {
			info.Regions[r.Parent].Children = append(info.Regions[r.Parent].Children, r.ID)
		}
	}
	var setDepth func(r *Region, d int)
	setDepth = func(r *Region, d int) {
		r.Depth = d
		for _, c := range r.Children {
			setDepth(info.Regions[c], d+1)
		}
	}
	for _, r := range info.Regions {
		if r.Parent == -1 {
			setDepth(r, 0)
		}
	}
	return info, nil
}

// MustAnalyze is Analyze, panicking on error; for fixed test inputs.
func MustAnalyze(g *cfg.Graph) *Info {
	info, err := Analyze(g)
	if err != nil {
		panic(err)
	}
	return info
}

// BasicBlockClasses partitions live edges by basic block: two edges are
// equivalent iff they are separated only by non-branching, non-merging
// computation. This is strictly finer than control dependence equivalence,
// so it is a valid (coarser-bypassing) basis for DFG construction — the
// paper's example of a relation that "will permit bypassing of assignment
// statements but not of control structures".
func BasicBlockClasses(g *cfg.Graph) ([]int, int) {
	classOf := newEdgeTable(g)
	next := 0
	for _, eid := range g.LiveEdges() {
		if classOf[eid] >= 0 {
			continue
		}
		// Walk back to the head of the straight-line chain.
		cur := eid
		for {
			src := g.Edge(cur).Src
			if len(g.InEdges(src)) != 1 || len(g.OutEdges(src)) != 1 {
				break
			}
			cur = g.InEdges(src)[0]
		}
		// Sweep forward, labelling the chain.
		class := next
		next++
		for {
			classOf[cur] = class
			dst := g.Edge(cur).Dst
			if len(g.InEdges(dst)) != 1 || len(g.OutEdges(dst)) != 1 {
				break
			}
			cur = g.OutEdges(dst)[0]
		}
	}
	return classOf, next
}

// SingletonClasses places every live edge in its own class: the finest
// partition, yielding no regions and therefore no bypassing at all — the
// base-level DFG of §3.2 (after dead-edge removal).
func SingletonClasses(g *cfg.Graph) ([]int, int) {
	classOf := newEdgeTable(g)
	live := g.LiveEdges()
	for i, eid := range live {
		classOf[eid] = i
	}
	return classOf, len(live)
}

// ctxCell is one frame of the persistent open-region stack used by Analyze.
type ctxCell struct {
	region int
	parent *ctxCell
}

// InRegion reports whether node n lies inside region r (between its entry
// and exit edges): n's innermost region must be r or a PST descendant of r.
func (info *Info) InRegion(n cfg.NodeID, r int) bool {
	if int(n) >= len(info.NodeRegion) {
		return false
	}
	rid := info.NodeRegion[n]
	for rid != -1 {
		if rid == r {
			return true
		}
		rid = info.Regions[rid].Parent
	}
	return false
}

// String renders the PST with one region per line, indented by depth.
func (info *Info) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d edge classes, %d canonical regions\n", info.NumClasses, len(info.Regions))
	var walk func(ids []int)
	walk = func(ids []int) {
		for _, id := range ids {
			r := info.Regions[id]
			fmt.Fprintf(&b, "%sR%d: entry e%d, exit e%d\n", strings.Repeat("  ", r.Depth), r.ID, r.Entry, r.Exit)
			walk(r.Children)
		}
	}
	var roots []int
	for _, r := range info.Regions {
		if r.Parent == -1 {
			roots = append(roots, r.ID)
		}
	}
	walk(roots)
	return b.String()
}
