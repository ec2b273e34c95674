package epr

import (
	"dfg/internal/anticip"
	"dfg/internal/bitset"
	"dfg/internal/cfg"
	"dfg/internal/dataflow"
	"dfg/internal/dataflow/bitvec"
	"dfg/internal/dfg"
)

// Batched availability: the word-wide counterparts of availability and
// dfgAV. Bit k of every result row equals the scalar solver's answer for
// candidate k exactly — the fixpoints are unique (greatest for AV, least
// for PAV, fixed boundary values), and the DFG projection's walk order is
// candidate-independent (ports in operator order, heads in edge preorder),
// so replacing per-edge booleans with words changes nothing but the cost.

// availabilityBatch solves AV (total) or PAV per CFG edge for every
// candidate of the family at once: out = (in ∨ COMP) ∖ KILL, so a node
// that computes e and then kills one of its variables does not make e
// available. Start has no in-edges, so its out-edge, the boundary, reads
// false. Rows are indexed by EdgeID.
func availabilityBatch(f *anticip.Family, total bool, cost *dataflow.Counter) *bitset.Matrix {
	s := bitvec.Solve[cfg.NodeID, cfg.EdgeID](f.G, bitvec.Problem{
		Forward: true, Must: total, Bits: len(f.Exprs), Gen: f.Comp, Kill: f.Kill,
		Order: bitvec.GenThenKill, Entry: -1,
	})
	cost.Add(s.Cost)
	return s.Edge
}

// dfgAVPAVBatch solves AV and PAV per CFG edge for every candidate of the
// family using the dependence flow graph, mirroring dfgAVCovered. Rows are
// indexed by EdgeID and live in sc.Av and sc.Pav.
func dfgAVPAVBatch(f *anticip.Family, d *dfg.Graph, opsOf map[string][]dfg.OpID, sc *anticip.Scratch, cost *dataflow.Counter) (av, pav *bitset.Matrix) {
	if sc == nil {
		sc = &anticip.Scratch{}
	}
	f.SolvePorts(d, opsOf, sc, avRule{}, &sc.Av, &sc.Pav, cost)
	return &sc.Av, &sc.Pav
}

// avRule is availability's share of a sparse solve, propagated forward
// along each variable x's dependences. A port's value is the value at its
// origin: init and def ports are false (a fresh x kills every candidate), a
// switch output copies its input, and a merge output meets its inputs (∧
// for AV, ∨ for PAV). Along a port, the value rises at every head whose
// node computes a candidate; heads are taken in edge preorder, which is
// dominance order.
type avRule struct{}

func (avRule) Forward() bool { return true }

func (avRule) Transfer(v *anticip.Ports, i int, dst []uint64) {
	op := &v.D.Ops[v.Src[i].Op]
	switch op.Kind {
	case dfg.OpSwitch:
		posValInto(v, dst, op.ID, 0)
	case dfg.OpMerge:
		bitset.WordsZero(dst)
		if v.Total {
			bitset.WordsFill(dst, len(v.F.Exprs))
		}
		for inIdx := range op.In {
			posValInto(v, v.Tmp, op.ID, inIdx)
			v.Cost.Joins++
			if v.Total {
				bitset.WordsAnd(dst, v.Tmp)
			} else {
				bitset.WordsOr(dst, v.Tmp)
			}
		}
	default:
		bitset.WordsZero(dst)
	}
}

// posValInto writes the value that reaches input inIdx of operator opID:
// the producing port's origin value raised by the COMP rows of the
// computing use heads before the operator among that port's heads.
func posValInto(v *anticip.Ports, dst []uint64, opID dfg.OpID, inIdx int) {
	i := v.At(v.D.Ops[opID].In[inIdx])
	if i < 0 {
		bitset.WordsZero(dst)
		return
	}
	copy(dst, v.Val.Row(i))
	for _, c := range v.Heads[i] {
		if c.UseIdx == -1 && c.Op == opID && c.InIdx == inIdx {
			return
		}
		if c.UseIdx >= 0 {
			bitset.WordsOr(dst, v.F.Comp.Row(int(v.D.Uses[c.UseIdx].Node)))
		}
	}
}

// Project walks each port's spans in head (dominance) order, the same walk
// as dfgAVVar. Edges from the span cursor up to and including a head's
// in-edge carry the value before that head's node executes; a computing
// head raises the value for the edges after its node. Two heads can share
// one head edge (a switch's predicate use and the switch operator's
// input), so each span is marked only once. A head at a node redefining x
// ends the old value's life there: its out-edge belongs to the def
// operator's span. The span structure and write order depend only on the
// graph, so assigning whole value words reproduces every candidate's
// scalar projection bit for bit.
func (avRule) Project(v *anticip.Ports) {
	g, vw := v.F.G, v.Tmp
	for i, src := range v.Src {
		copy(vw, v.Val.Row(i))
		prev := v.D.TailEdge(src)
		last := cfg.NoEdge
		for _, c := range v.Heads[i] {
			if he := v.D.HeadEdge(c); he != last {
				for _, e := range v.Span(prev, he) {
					copy(v.Proj.Row(int(e)), vw)
				}
				last = he
			}
			if c.UseIdx < 0 {
				continue // operator head: downstream handled by its ports
			}
			node := v.D.Uses[c.UseIdx].Node
			bitset.WordsOr(vw, v.F.Comp.Row(int(node)))
			if g.Defs(node) == v.Var {
				break // x redefined: this port's value dies here
			}
			if outs := g.OutEdges(node); len(outs) == 1 {
				prev = outs[0]
				copy(v.Proj.Row(int(prev)), vw)
				last = cfg.NoEdge
			}
		}
	}
}
