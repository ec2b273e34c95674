// Package graph provides the generic directed-graph algorithms that the
// paper's constructions sit on: depth-first orderings, dominators and
// postdominators (Cooper–Harvey–Kennedy iterative algorithm over reverse
// postorder), dominance frontiers (Cytron et al.), and Tarjan's strongly
// connected components.
//
// Graphs are represented positionally: N nodes numbered 0..N-1 with
// successor adjacency lists. This keeps the package independent of the CFG
// node types; internal/cfg adapts its graphs (and the paper's edge-as-node
// "dummy node" trick) into this form.
package graph

import "fmt"

// Directed is a directed graph over nodes 0..N-1.
type Directed struct {
	N    int
	Succ [][]int
}

// NewDirected returns an empty graph with n nodes.
func NewDirected(n int) *Directed {
	return &Directed{N: n, Succ: make([][]int, n)}
}

// NewDirectedDegrees returns an empty graph whose node i has room for deg[i]
// successors: the adjacency lists share one backing array, so adding up to
// that many edges per node allocates nothing.
func NewDirectedDegrees(deg []int) *Directed {
	return &Directed{N: len(deg), Succ: rowsOf(deg)}
}

// rowsOf returns len(deg) empty rows carved from one backing array, row i
// with capacity deg[i].
func rowsOf(deg []int) [][]int {
	total := 0
	for _, k := range deg {
		total += k
	}
	back := make([]int, total)
	rows := make([][]int, len(deg))
	off := 0
	for i, k := range deg {
		rows[i] = back[off : off : off+k]
		off += k
	}
	return rows
}

// Group sorts the items 0…count-1 into groups 0…n-1 by key(i), stably,
// skipping items whose key is -1: group k is list[off[k]:off[k+1]], in
// ascending item order. It is the flat form of a [][]int built by appending
// i to row key(i), at three allocations instead of one per row.
func Group(n, count int, key func(i int) int) (off, list []int) {
	off = make([]int, n+1)
	for i := 0; i < count; i++ {
		if k := key(i); k >= 0 {
			off[k+1]++
		}
	}
	for k := 0; k < n; k++ {
		off[k+1] += off[k]
	}
	list = make([]int, off[n])
	fill := append([]int(nil), off[:n]...)
	for i := 0; i < count; i++ {
		if k := key(i); k >= 0 {
			list[fill[k]] = i
			fill[k]++
		}
	}
	return off, list
}

// AddEdge appends the edge u→v.
func (d *Directed) AddEdge(u, v int) {
	d.Succ[u] = append(d.Succ[u], v)
}

// Reverse returns the transpose graph.
func (d *Directed) Reverse() *Directed {
	r := NewDirected(d.N)
	for u, ss := range d.Succ {
		for _, v := range ss {
			r.AddEdge(v, u)
		}
	}
	return r
}

// Preds computes predecessor lists.
func (d *Directed) Preds() [][]int {
	deg := make([]int, d.N)
	for _, ss := range d.Succ {
		for _, v := range ss {
			deg[v]++
		}
	}
	p := rowsOf(deg)
	for u, ss := range d.Succ {
		for _, v := range ss {
			p[v] = append(p[v], u)
		}
	}
	return p
}

// NumEdges returns the number of edges.
func (d *Directed) NumEdges() int {
	n := 0
	for _, ss := range d.Succ {
		n += len(ss)
	}
	return n
}

// ---------------------------------------------------------------------------
// Depth-first orderings

// DFSResult holds the orderings produced by a depth-first traversal from a
// root. Nodes unreachable from the root have Pre/Post index -1.
type DFSResult struct {
	Preorder  []int // nodes in visit order
	Postorder []int // nodes in finish order
	PreNum    []int // node → preorder index, -1 if unreachable
	PostNum   []int // node → postorder index, -1 if unreachable
	Parent    []int // DFS tree parent, -1 for root/unreachable
}

// DFS performs an iterative depth-first traversal from root.
func DFS(d *Directed, root int) *DFSResult {
	res := &DFSResult{
		Preorder:  make([]int, 0, d.N),
		Postorder: make([]int, 0, d.N),
		PreNum:    make([]int, d.N),
		PostNum:   make([]int, d.N),
		Parent:    make([]int, d.N),
	}
	for i := range res.PreNum {
		res.PreNum[i] = -1
		res.PostNum[i] = -1
		res.Parent[i] = -1
	}
	type frame struct {
		node int
		next int // next successor index to explore
	}
	stack := []frame{{root, 0}}
	res.PreNum[root] = 0
	res.Preorder = append(res.Preorder, root)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(d.Succ[f.node]) {
			v := d.Succ[f.node][f.next]
			f.next++
			if res.PreNum[v] == -1 {
				res.PreNum[v] = len(res.Preorder)
				res.Preorder = append(res.Preorder, v)
				res.Parent[v] = f.node
				stack = append(stack, frame{v, 0})
			}
			continue
		}
		res.PostNum[f.node] = len(res.Postorder)
		res.Postorder = append(res.Postorder, f.node)
		stack = stack[:len(stack)-1]
	}
	return res
}

// ReversePostorder returns the nodes reachable from root in reverse
// postorder, the canonical iteration order for forward dataflow.
func ReversePostorder(d *Directed, root int) []int {
	post := DFS(d, root).Postorder
	out := make([]int, len(post))
	for i, n := range post {
		out[len(post)-1-i] = n
	}
	return out
}

// ---------------------------------------------------------------------------
// Dominators (Cooper, Harvey & Kennedy, "A Simple, Fast Dominance Algorithm")

// Dominators computes the immediate dominator of every node reachable from
// root. idom[root] == root; unreachable nodes have idom -1.
func Dominators(d *Directed, root int) []int {
	rpo := ReversePostorder(d, root)
	rpoNum := make([]int, d.N)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, n := range rpo {
		rpoNum[n] = i
	}
	preds := d.Preds()

	idom := make([]int, d.N)
	for i := range idom {
		idom[i] = -1
	}
	idom[root] = root

	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, n := range rpo {
			if n == root {
				continue
			}
			newIdom := -1
			for _, p := range preds[n] {
				if idom[p] == -1 {
					continue // not yet processed or unreachable
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != -1 && idom[n] != newIdom {
				idom[n] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether a dominates b under the immediate-dominator
// array idom (a node dominates itself). Both must be reachable.
func Dominates(idom []int, a, b int) bool {
	for {
		if a == b {
			return true
		}
		next := idom[b]
		if next == b || next == -1 {
			return false
		}
		b = next
	}
}

// DominatorDepths returns the depth of each node in the dominator tree
// (root = 0), or -1 for unreachable nodes. Useful for O(1)-ish ancestor
// walks and for level-based dominance queries.
func DominatorDepths(idom []int) []int {
	depth := make([]int, len(idom))
	for i := range depth {
		depth[i] = -2 // unknown
	}
	var get func(n int) int
	get = func(n int) int {
		if idom[n] == -1 {
			return -1
		}
		if depth[n] != -2 {
			return depth[n]
		}
		if idom[n] == n {
			depth[n] = 0
		} else {
			pd := get(idom[n])
			if pd < 0 {
				depth[n] = -1
			} else {
				depth[n] = pd + 1
			}
		}
		return depth[n]
	}
	for i := range idom {
		get(i)
	}
	return depth
}

// DominanceFrontiers computes DF(n) for every reachable node (Cytron et
// al.). The returned lists are unsorted and duplicate-free.
func DominanceFrontiers(d *Directed, idom []int) [][]int {
	df := make([][]int, d.N)
	// lastIn[r] is the last n appended to df[r]: every n is appended in one
	// outer iteration, so this is the whole duplicate check.
	lastIn := make([]int, d.N)
	for i := range lastIn {
		lastIn[i] = -1
	}
	preds := d.Preds()
	for n := 0; n < d.N; n++ {
		if idom[n] == -1 || len(preds[n]) < 2 {
			continue
		}
		for _, p := range preds[n] {
			if idom[p] == -1 {
				continue
			}
			runner := p
			for runner != idom[n] && runner != -1 {
				if lastIn[runner] != n {
					lastIn[runner] = n
					df[runner] = append(df[runner], n)
				}
				if runner == idom[runner] {
					break
				}
				runner = idom[runner]
			}
		}
	}
	return df
}

// ---------------------------------------------------------------------------
// Strongly connected components (Tarjan, iterative)

// SCC computes strongly connected components. It returns comp, the
// component index of each node, and the number of components. Components
// are numbered in reverse topological order of the condensation (i.e. a
// component's successors have smaller numbers).
func SCC(d *Directed) (comp []int, n int) {
	const unvisited = -1
	index := make([]int, d.N)
	low := make([]int, d.N)
	onStack := make([]bool, d.N)
	comp = make([]int, d.N)
	for i := range index {
		index[i] = unvisited
		comp[i] = -1
	}
	var stack []int
	next := 0

	type frame struct {
		node int
		iter int
	}
	for start := 0; start < d.N; start++ {
		if index[start] != unvisited {
			continue
		}
		callStack := []frame{{start, 0}}
		index[start] = next
		low[start] = next
		next++
		stack = append(stack, start)
		onStack[start] = true

		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			u := f.node
			if f.iter < len(d.Succ[u]) {
				v := d.Succ[u][f.iter]
				f.iter++
				if index[v] == unvisited {
					index[v] = next
					low[v] = next
					next++
					stack = append(stack, v)
					onStack[v] = true
					callStack = append(callStack, frame{v, 0})
				} else if onStack[v] {
					if index[v] < low[u] {
						low[u] = index[v]
					}
				}
				continue
			}
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := callStack[len(callStack)-1].node
				if low[u] < low[p] {
					low[p] = low[u]
				}
			}
			if low[u] == index[u] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = n
					if w == u {
						break
					}
				}
				n++
			}
		}
	}
	return comp, n
}

// ---------------------------------------------------------------------------
// Undirected graphs (for the cycle equivalence reduction of Claim 2)

// Undirected is an undirected multigraph over nodes 0..N-1. Parallel edges
// and self-loops are permitted and significant (cycle equivalence cares
// about them). Each edge has an index 0..M-1. The graph is a flat edge
// list; Adjacency derives the compressed (CSR) adjacency in one pass.
type Undirected struct {
	N    int
	M    int
	ends []int32 // edge e joins ends[2e] and ends[2e+1]
}

// Half is one endpoint's view of an undirected edge.
type Half struct {
	To   int32 // the other endpoint
	Edge int32 // edge index
}

// NewUndirected returns an empty undirected graph with n nodes and room
// for m edges (m is a capacity hint; AddEdge grows past it).
func NewUndirected(n, m int) *Undirected {
	return &Undirected{N: n, ends: make([]int32, 0, 2*m)}
}

// AddEdge appends an undirected edge a—b and returns its index.
func (u *Undirected) AddEdge(a, b int) int {
	id := u.M
	u.M++
	u.ends = append(u.ends, int32(a), int32(b))
	return id
}

// Adjacency returns the graph in compressed sparse row form: the halves
// incident to node x are half[off[x]:off[x+1]], in edge-index order. A
// self-loop contributes one half; every other edge one half per endpoint.
func (u *Undirected) Adjacency() (off []int32, half []Half) {
	off = make([]int32, u.N+1)
	for e := 0; e < u.M; e++ {
		a, b := u.ends[2*e], u.ends[2*e+1]
		off[a+1]++
		if a != b {
			off[b+1]++
		}
	}
	for x := 0; x < u.N; x++ {
		off[x+1] += off[x]
	}
	half = make([]Half, off[u.N])
	next := make([]int32, u.N)
	copy(next, off)
	for e := 0; e < u.M; e++ {
		a, b := u.ends[2*e], u.ends[2*e+1]
		half[next[a]] = Half{To: b, Edge: int32(e)}
		next[a]++
		if a != b {
			half[next[b]] = Half{To: a, Edge: int32(e)}
			next[b]++
		}
	}
	return off, half
}

// Connected reports whether the undirected graph is connected (ignoring
// isolated nodes is NOT done: every node must be reachable from node 0).
func (u *Undirected) Connected() bool {
	if u.N == 0 {
		return true
	}
	off, half := u.Adjacency()
	seen := make([]bool, u.N)
	stack := []int32{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range half[off[x]:off[x+1]] {
			if !seen[h.To] {
				seen[h.To] = true
				count++
				stack = append(stack, h.To)
			}
		}
	}
	return count == u.N
}

// Validate checks basic well-formedness of a positional directed graph.
func (d *Directed) Validate() error {
	for u, ss := range d.Succ {
		for _, v := range ss {
			if v < 0 || v >= d.N {
				return fmt.Errorf("graph: edge %d->%d out of range [0,%d)", u, v, d.N)
			}
		}
	}
	return nil
}
