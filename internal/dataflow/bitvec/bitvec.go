// Package bitvec is the word-parallel gen/kill solver behind every
// bit-vector dataflow problem over a control flow graph in this repository:
// anticipatability and availability of a candidate family (§5), reaching
// definitions (def-use chains), reaching uses (anti-dependences) and
// definite assignment. A problem is a direction, a meet, per-node gen and
// kill rows, a transfer order and an optional entry; every fact is one bit
// of a bitset.Matrix row, and the solution keeps one row per edge.
//
// The package sits below internal/cfg, which solves definite assignment
// with it, so it imports only internal/bitset and internal/graph.
// internal/dataflow re-exports its Counter.
package bitvec

import (
	"fmt"

	"dfg/internal/bitset"
	"dfg/internal/graph"
)

// Counter tallies the abstract operations of an analysis so experiments can
// compare algorithmic work (lattice joins, transfer evaluations, worklist
// pops) rather than just wall time.
type Counter struct {
	Joins     int // lattice join operations
	Transfers int // transfer-function/operator evaluations
	Visits    int // worklist pops
}

// Add accumulates another counter.
func (c *Counter) Add(o Counter) {
	c.Joins += o.Joins
	c.Transfers += o.Transfers
	c.Visits += o.Visits
}

// Total returns the sum of all counted operations.
func (c Counter) Total() int { return c.Joins + c.Transfers + c.Visits }

// String renders the counter.
func (c Counter) String() string {
	return fmt.Sprintf("visits=%d transfers=%d joins=%d (total %d)", c.Visits, c.Transfers, c.Joins, c.Total())
}

// Graph is the shape a problem propagates over: dense node and edge IDs,
// each node's live in- and out-edges, and each edge's ends. *cfg.Graph is
// one.
type Graph[N, E ~int] interface {
	NumNodes() int
	NumEdges() int
	InEdges(N) []E
	OutEdges(N) []E
	Ends(E) (src, dst N)
}

// Order says which of a node's rows applies last.
type Order int

// Transfer orders.
const (
	// KillThenGen: out = (in ∖ kill) ∨ gen. A node that kills and
	// generates a fact passes it on (anticipatability, reaching
	// definitions).
	KillThenGen Order = iota
	// GenThenKill: out = (in ∨ gen) ∖ kill. A node that generates a fact
	// and then kills it does not (availability, reaching uses).
	GenThenKill
)

// Problem is one gen/kill problem. Gen and Kill hold one row per node,
// Bits wide; a nil Kill kills nothing.
type Problem struct {
	Forward bool // facts flow along edges; false: against them
	// Must makes the meet ∧ and the solution the greatest fixpoint (live
	// edges start at ⊤); otherwise the meet is ∨ and the solution the least
	// fixpoint (edges start at ∅). Either way a node without edges flowing
	// in, such as the boundary node, reads ∅.
	Must      bool
	Bits      int
	Gen, Kill *bitset.Matrix
	Order     Order
	// Entry, when ≥ 0, restricts the solve to the nodes reachable from it
	// in the flow direction, seeded in reverse postorder. The other nodes
	// never run, so their edges keep the meet's identity (⊤ for must, ∅
	// for may). When < 0, every node is solved, seeded in ID order.
	Entry int
}

// Solution is a solved problem over one graph.
type Solution[N, E ~int] struct {
	// Edge holds one row per edge ID: the facts on the edge. Dead edges
	// read ∅.
	Edge *bitset.Matrix
	Cost Counter

	g       Graph[N, E]
	p       Problem
	reached bitset.Set // nodes reachable from p.Entry, when p.Entry ≥ 0
}

// Solve runs p over g to its fixpoint with a FIFO worklist of nodes.
func Solve[N, E ~int](g Graph[N, E], p Problem) *Solution[N, E] {
	s := &Solution[N, E]{Edge: bitset.NewMatrix(g.NumEdges(), p.Bits), g: g, p: p}
	wl := bitset.NewWorklist(g.NumNodes())
	if p.Entry < 0 {
		for n := range g.NumNodes() {
			wl.Push(n)
		}
	} else {
		flow := graph.NewDirected(g.NumNodes())
		for n := range g.NumNodes() {
			for _, e := range s.flowOut(N(n)) {
				flow.AddEdge(n, int(s.next(e)))
			}
		}
		for _, n := range graph.ReversePostorder(flow, p.Entry) {
			s.reached.Add(n)
			wl.Push(n)
		}
	}
	if p.Bits == 0 {
		return s
	}
	if p.Must {
		for n := range g.NumNodes() {
			for _, e := range g.OutEdges(N(n)) {
				bitset.WordsFill(s.Edge.Row(int(e)), p.Bits)
			}
		}
	}

	in := make([]uint64, s.Edge.Stride)
	out := make([]uint64, s.Edge.Stride)
	for {
		ni, ok := wl.Pop()
		if !ok {
			break
		}
		s.Cost.Visits++
		n := N(ni)
		s.Cost.Joins += s.meet(n, in)
		s.Cost.Transfers++
		copy(out, in)
		gen := p.Gen.Row(ni)
		if p.Order == GenThenKill {
			bitset.WordsOr(out, gen)
		}
		if p.Kill != nil {
			bitset.WordsAndNot(out, p.Kill.Row(ni))
		}
		if p.Order == KillThenGen {
			bitset.WordsOr(out, gen)
		}
		for _, e := range s.flowOut(n) {
			if row := s.Edge.Row(int(e)); !bitset.WordsEqual(row, out) {
				copy(row, out)
				wl.Push(int(s.next(e)))
			}
		}
	}
	return s
}

// In writes the facts flowing into node n into dst: the meet of the rows
// of its edges flowing in (in-edges for a forward problem, out-edges for a
// backward one), or ∅ when it has none.
func (s *Solution[N, E]) In(n N, dst []uint64) { s.meet(n, dst) }

// Reached reports whether the solve ran node n: always, unless the problem
// has an Entry that does not reach n.
func (s *Solution[N, E]) Reached(n N) bool { return s.p.Entry < 0 || s.reached.Has(int(n)) }

// meet writes the meet of n's flow-in rows into dst and returns the number
// of rows joined.
func (s *Solution[N, E]) meet(n N, dst []uint64) int {
	ins := s.flowIn(n)
	bitset.WordsZero(dst)
	if len(ins) == 0 || len(dst) == 0 {
		return 0
	}
	if s.p.Must {
		bitset.WordsFill(dst, s.p.Bits)
	}
	for _, e := range ins {
		if s.p.Must {
			bitset.WordsAnd(dst, s.Edge.Row(int(e)))
		} else {
			bitset.WordsOr(dst, s.Edge.Row(int(e)))
		}
	}
	return len(ins)
}

// flowIn and flowOut are n's edges against and along the flow direction;
// next is the node an edge's facts flow to.
func (s *Solution[N, E]) flowIn(n N) []E {
	if s.p.Forward {
		return s.g.InEdges(n)
	}
	return s.g.OutEdges(n)
}

func (s *Solution[N, E]) flowOut(n N) []E {
	if s.p.Forward {
		return s.g.OutEdges(n)
	}
	return s.g.InEdges(n)
}

func (s *Solution[N, E]) next(e E) N {
	src, dst := s.g.Ends(e)
	if s.p.Forward {
		return dst
	}
	return src
}
