package bitvec

import (
	"testing"

	"dfg/internal/bitset"
)

// testGraph is a minimal Graph over int node and edge IDs.
type testGraph struct {
	ends      [][2]int
	ins, outs [][]int
}

func newGraph(nodes int, edges ...[2]int) *testGraph {
	g := &testGraph{ends: edges, ins: make([][]int, nodes), outs: make([][]int, nodes)}
	for e, se := range edges {
		g.outs[se[0]] = append(g.outs[se[0]], e)
		g.ins[se[1]] = append(g.ins[se[1]], e)
	}
	return g
}

func (g *testGraph) NumNodes() int         { return len(g.ins) }
func (g *testGraph) NumEdges() int         { return len(g.ends) }
func (g *testGraph) InEdges(n int) []int   { return g.ins[n] }
func (g *testGraph) OutEdges(n int) []int  { return g.outs[n] }
func (g *testGraph) Ends(e int) (int, int) { return g.ends[e][0], g.ends[e][1] }

// rows builds a nodes×bits matrix with the listed (node, bit) pairs set.
func rows(nodes, bits int, set ...[2]int) *bitset.Matrix {
	m := bitset.NewMatrix(nodes, bits)
	for _, nb := range set {
		m.SetBit(nb[0], nb[1])
	}
	return m
}

// The loop graph: 0 → 1 → 2 → 1 (back edge), 2 → 3; node 4 is unreachable
// from 0 and flows into 3.
func loopGraph() *testGraph {
	return newGraph(5, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 1}, [2]int{2, 3}, [2]int{4, 3})
}

func TestForwardMayReachesAroundLoop(t *testing.T) {
	g := loopGraph()
	// Bit 0 is generated at 2 and killed at 1; bit 1 is generated at 4.
	p := Problem{Forward: true, Bits: 2, Gen: rows(5, 2, [2]int{2, 0}, [2]int{4, 1}), Kill: rows(5, 2, [2]int{1, 0}), Entry: -1}
	s := Solve[int, int](g, p)
	in := make([]uint64, 1)
	s.In(1, in)
	if !bitset.WordsBit(in, 0) {
		t.Error("bit 0 should reach node 1 around the back edge")
	}
	if s.Edge.Bit(1, 0) {
		t.Error("node 1 kills bit 0, so its out-edge must not carry it")
	}
	s.In(3, in)
	if !bitset.WordsBit(in, 1) {
		t.Error("without an entry, the unreachable node 4 runs and its bit reaches 3")
	}
	if s.Cost.Visits <= g.NumNodes() {
		t.Errorf("the back edge should force a revisit: %d visits", s.Cost.Visits)
	}

	p.Entry = 0
	s = Solve[int, int](g, p)
	s.In(3, in)
	if bitset.WordsBit(in, 1) || !bitset.WordsBit(in, 0) {
		t.Errorf("from entry 0, only bit 0 reaches node 3: got %b", in[0])
	}
	if s.Reached(4) || !s.Reached(3) {
		t.Error("Reached: node 4 is not reachable from 0, node 3 is")
	}
}

func TestForwardMustTreatsUnreachedAsTop(t *testing.T) {
	g := loopGraph()
	gen := rows(5, 1, [2]int{0, 0})
	s := Solve[int, int](g, Problem{Forward: true, Must: true, Bits: 1, Gen: gen, Entry: 0})
	in := make([]uint64, 1)
	s.In(3, in)
	if !bitset.WordsBit(in, 0) {
		t.Error("node 4 never runs: its edge keeps ⊤ and the meet at 3 is node 2's value")
	}
	s = Solve[int, int](g, Problem{Forward: true, Must: true, Bits: 1, Gen: gen, Entry: -1})
	s.In(3, in)
	if bitset.WordsBit(in, 0) {
		t.Error("node 4 runs with no in-edges, reads ∅, and so clears bit 0 at 3")
	}
}

func TestTransferOrder(t *testing.T) {
	g := newGraph(2, [2]int{0, 1})
	both := rows(2, 1, [2]int{0, 0})
	for _, tc := range []struct {
		order Order
		want  bool
	}{{KillThenGen, true}, {GenThenKill, false}} {
		s := Solve[int, int](g, Problem{Forward: true, Bits: 1, Gen: both, Kill: both, Order: tc.order, Entry: -1})
		if got := s.Edge.Bit(0, 0); got != tc.want {
			t.Errorf("order %d: a node that generates and kills a fact passes it on = %t, want %t", tc.order, got, tc.want)
		}
	}
}

func TestBackwardMust(t *testing.T) {
	// 0 → 1 → {2, 3}; bit 0 is generated at 2 only, bit 1 at 2 and 3.
	g := newGraph(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{1, 3})
	gen := rows(4, 2, [2]int{2, 0}, [2]int{2, 1}, [2]int{3, 1})
	s := Solve[int, int](g, Problem{Must: true, Bits: 2, Gen: gen, Entry: -1})
	if s.Edge.Bit(0, 0) || !s.Edge.Bit(0, 1) {
		t.Errorf("edge 0→1: want only bit 1 on every path below, got %b", s.Edge.Row(0)[0])
	}
	in := make([]uint64, 1)
	s.In(2, in)
	if in[0] != 0 {
		t.Error("a node without out-edges reads ∅")
	}
}

// TestZeroWidthFamily: a family with no members solves to empty rows, and
// reading a meet over them is a no-op rather than a panic.
func TestZeroWidthFamily(t *testing.T) {
	g := loopGraph()
	for _, must := range []bool{false, true} {
		s := Solve[int, int](g, Problem{Forward: true, Must: must, Bits: 0, Gen: rows(5, 0), Entry: 0})
		var in []uint64
		s.In(3, in)
		s.In(1, in)
	}
}
