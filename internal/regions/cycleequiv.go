// Package regions implements Section 3.1 of Johnson & Pingali (PLDI 1993):
// finding the sets of CFG edges that have the same control dependence, in
// O(E) time, by reduction to cycle equivalence.
//
// The reduction chain is exactly the paper's:
//
//	Claim 1: CFG edges a and b have the same control dependence iff their
//	  dummy nodes are cycle equivalent in the strongly connected graph
//	  formed by adding the edge end→start.
//
//	Claim 2: nodes a and b are cycle equivalent in a strongly connected
//	  directed graph S iff they are cycle equivalent in the undirected
//	  graph G' formed by splitting every node n of S into n_in, n, n_out
//	  (in-edges attach to n_in, out-edges leave n_out, plus n_in→n→n_out)
//	  and undirecting all edges.
//
// Undirected cycle equivalence is computed by the bracket-set depth-first
// search that the paper sketches ("our algorithm for finding undirected
// cycle equivalence is based on depth-first search and runs in O(E) time;
// the details are omitted") and that the same authors published in full as
// the Program Structure Tree paper (Johnson, Pearson & Pingali, PLDI 1994).
// Notably, the construction requires neither dominators nor postdominators.
// EdgeClasses builds G' in contracted form: the node n of each split and the
// dummy node of each CFG edge have degree 2, so the paths through them
// collapse to single edges without changing any class, leaving two
// undirected nodes per CFG node and one undirected edge per CFG edge.
//
// On top of the equivalence classes, the package derives canonical
// single-entry single-exit (SESE) regions — consecutive same-class edges in
// dominance order — and the program structure tree that nests them.
package regions

import (
	"fmt"

	"dfg/internal/graph"
)

// UndirectedCycleEquiv computes cycle-equivalence classes for the edges of a
// connected undirected multigraph: edges a and b are in the same class iff
// every cycle containing a also contains b and vice versa. Bridge edges
// (edges on no cycle) all share one class, matching the definition
// vacuously. The result maps edge index → class id, and the number of
// classes. Runs in O(N+M).
func UndirectedCycleEquiv(u *graph.Undirected) ([]int, int) {
	off, half := u.Adjacency()
	classes := make([]int32, u.M)
	num, _ := cycleEquiv(u.N, off, half, classes)
	out := make([]int, u.M)
	for e, c := range classes {
		out[e] = int(c)
	}
	return out, num
}

// cycleEquiv is the bracket-set depth-first search over a CSR adjacency
// (see graph.Undirected.Adjacency). It writes every edge's class into
// classOf and returns the number of classes, and the number of abstract
// operations it took: DFS steps (one per adjacency entry read) plus
// bracket-list pushes, deletes and concatenations. The paper's O(E) bound
// is a bound on that count, which tests check over size ladders.
//
// All working state lives in one int32 arena. Brackets are numbered, not
// allocated: a real backedge is bracket e (its edge index, e < M), and the
// capping backedge created at the node with preorder number i is bracket
// M+i. Bracket lists are doubly linked through the prev/next arrays and
// addressed by per-node head/tail/size, so push, delete and concat are O(1)
// index updates. Children and backedges are read straight off the
// adjacency: the tree edge to a child w is parentEdge[w], and every other
// non-loop edge joins a node to one of its DFS ancestors.
func cycleEquiv(n int, off []int32, half []graph.Half, classOf []int32) (numClasses, ops int) {
	if n == 0 {
		return 0, 0
	}
	m := len(classOf)
	nb := m + n // bracket slots: real backedges, then one capping slot per node
	arena := make([]int32, 9*n+6*nb)
	carve := func(k int) []int32 {
		s := arena[:k:k]
		arena = arena[k:]
		return s
	}
	const none = -1
	dfsnum := carve(n)     // node → preorder number
	order := carve(n)      // preorder number → node
	parentEdge := carve(n) // edge index of the tree edge to the DFS parent
	iter := carve(n)       // DFS cursor into the node's halves
	stack := carve(n)
	hi := carve(n) // highest (smallest dfsnum) node reached from the subtree
	head, tail, size := carve(n), carve(n), carve(n)
	prev, next := carve(nb), carve(nb)
	recentSize, recentClass := carve(nb), carve(nb)
	class := carve(nb)   // a bracket's own class once known
	capNext := carve(nb) // links the capping brackets that end at one node

	for i := range dfsnum {
		dfsnum[i] = none
		head[i], tail[i] = none, none
	}
	for i := range recentSize {
		recentSize[i] = none
		class[i] = none
	}
	for i := range classOf {
		classOf[i] = none
	}

	// --- undirected DFS from node 0, recording the tree ------------------
	dfsnum[0], order[0], parentEdge[0], iter[0] = 0, 0, none, off[0]
	stack[0] = 0
	sp, seen := 1, int32(1)
	for sp > 0 {
		v := stack[sp-1]
		if iter[v] == off[v+1] {
			sp--
			continue
		}
		h := half[iter[v]]
		iter[v]++
		ops++
		if dfsnum[h.To] == none {
			w := h.To
			dfsnum[w], order[seen], parentEdge[w], iter[w] = seen, w, h.Edge, off[w]
			seen++
			stack[sp] = w
			sp++
		}
	}
	if int(seen) != n {
		panic("regions: undirected graph not connected")
	}

	// The DFS is done with iter; it now heads each node's list of capping
	// brackets that end there.
	capTo := iter
	for i := range capTo {
		capTo[i] = none
	}

	nextClass := int32(0)
	newClass := func() int32 { c := nextClass; nextClass++; return c }
	bridgeClass := int32(none) // shared class of all bracket-less tree edges

	push := func(v, b int32) {
		ops++
		prev[b], next[b] = none, head[v]
		if head[v] != none {
			prev[head[v]] = b
		} else {
			tail[v] = b
		}
		head[v] = b
		size[v]++
	}
	remove := func(v, b int32) {
		ops++
		if prev[b] != none {
			next[prev[b]] = next[b]
		} else {
			head[v] = next[b]
		}
		if next[b] != none {
			prev[next[b]] = prev[b]
		} else {
			tail[v] = prev[b]
		}
		size[v]--
	}
	// concat moves c's list onto the bottom of v's.
	concat := func(v, c int32) {
		ops++
		if size[c] == 0 {
			return
		}
		if size[v] == 0 {
			head[v], tail[v] = head[c], tail[c]
		} else {
			next[tail[v]] = head[c]
			prev[head[c]] = tail[v]
			tail[v] = tail[c]
		}
		size[v] += size[c]
	}

	// --- main pass: nodes in reverse preorder (children before parents) --
	const maxInt = int32(^uint32(0) >> 1)
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		dv := int32(i)
		pe := parentEdge[v]
		adj := half[off[v]:off[v+1]]

		// hi0: highest backedge target from v; hi1, hi2: the two highest
		// child hi values. Children's bracket lists are concatenated as
		// they are met.
		hi0, hi1, hi2 := maxInt, maxInt, maxInt
		for _, h := range adj {
			w, e := h.To, h.Edge
			switch {
			case e == pe || w == v:
				// v's own tree edge; self loops bracket nothing.
			case e == parentEdge[w]:
				if hw := hi[w]; hw < hi1 {
					hi1, hi2 = hw, hi1
				} else if hw < hi2 {
					hi2 = hw
				}
				concat(v, w)
			case dfsnum[w] < dv && dfsnum[w] < hi0:
				hi0 = dfsnum[w]
			}
		}
		hi[v] = hi0
		if hi1 < hi0 {
			hi[v] = hi1
		}

		// Delete capping brackets and backedges ending here, then push
		// backedges starting here, then maybe a capping bracket.
		for b := capTo[v]; b != none; b = capNext[b] {
			remove(v, b)
		}
		for _, h := range adj {
			if w, e := h.To, h.Edge; dfsnum[w] > dv && e != parentEdge[w] {
				remove(v, e)
				if class[e] == none {
					class[e] = newClass()
				}
				classOf[e] = class[e]
			}
		}
		for _, h := range adj {
			if w, e := h.To, h.Edge; dfsnum[w] < dv && e != pe {
				push(v, e)
			}
		}
		if hi2 < dv {
			// Two children reach above v: cap with a virtual backedge from
			// v to the node at dfsnum hi2.
			b := int32(m) + dv
			target := order[hi2]
			capNext[b] = capTo[target]
			capTo[target] = b
			push(v, b)
		}

		// Assign the class of the tree edge (parent(v), v).
		if pe == none {
			continue
		}
		if size[v] == 0 {
			// Bridge edge: on no cycle; all bridges are (vacuously)
			// mutually cycle equivalent.
			if bridgeClass == none {
				bridgeClass = newClass()
			}
			classOf[pe] = bridgeClass
			continue
		}
		b := head[v]
		if recentSize[b] != size[v] {
			recentSize[b] = size[v]
			recentClass[b] = newClass()
		}
		classOf[pe] = recentClass[b]
		if recentSize[b] == 1 {
			// Tree edge and its sole bracket are cycle equivalent.
			class[b] = classOf[pe]
		}
	}

	// Self loops form exactly the one cycle consisting of themselves, so
	// each is alone in its class; every other edge was classified above.
	for e := range classOf {
		if classOf[e] == none {
			classOf[e] = newClass()
		}
	}
	return int(nextClass), ops
}

// sanity check helper exposed for tests.
func validateClasses(classOf []int, numClasses int) error {
	for e, c := range classOf {
		if c < 0 || c >= numClasses {
			return fmt.Errorf("edge %d has invalid class %d (num=%d)", e, c, numClasses)
		}
	}
	return nil
}
