// Package defuse computes classic def-use chains (Definitions 3–4 of the
// paper) via an iterative reaching-definitions analysis with bit vectors.
// It is one of the two baselines the DFG is compared against: def-use
// chains support only forward problems, can lose precision (§2.2), and have
// worst-case size O(E²V) (Reif & Tarjan), which experiment E10 reproduces
// with the DiamondLadder family.
package defuse

import (
	"fmt"
	"sort"
	"strings"

	"dfg/internal/bitset"
	"dfg/internal/cfg"
	"dfg/internal/dataflow"
	"dfg/internal/dataflow/bitvec"
)

// Def identifies a definition site: a node defining a variable.
type Def struct {
	Node cfg.NodeID
	Var  string
}

// Chain is one def-use chain: the definition at Def reaches the use of the
// same variable at Use.
type Chain struct {
	Def cfg.NodeID
	Use cfg.NodeID
	Var string
}

// Chains is the result of the analysis.
type Chains struct {
	G *cfg.Graph
	// Defs lists all definition sites in node order.
	Defs []Def
	// ByUse maps (use node, var) to the definitions reaching that use.
	byUse map[useKey][]cfg.NodeID
	// All lists every chain.
	All []Chain
	// Cost is the reaching-definitions solver's work.
	Cost dataflow.Counter
}

type useKey struct {
	node cfg.NodeID
	v    string
}

// Compute runs reaching definitions over g and materializes all def-use
// chains. Uninitialized uses (no definition reaches them) simply have no
// chains, mirroring the classic formulation.
func Compute(g *cfg.Graph) *Chains {
	c := &Chains{G: g, byUse: map[useKey][]cfg.NodeID{}}

	// Enumerate definition sites: definition i is bit i. A node generates
	// its own definition and kills every definition of its variable.
	defAt := make([]int, g.NumNodes()) // node -> definition index, -1 for none
	byVar := map[string][]int{}
	for _, nd := range g.Nodes {
		defAt[nd.ID] = -1
		if v := g.Defs(nd.ID); v != "" {
			defAt[nd.ID] = len(c.Defs)
			byVar[v] = append(byVar[v], len(c.Defs))
			c.Defs = append(c.Defs, Def{Node: nd.ID, Var: v})
		}
	}
	gen := bitset.NewMatrix(g.NumNodes(), len(c.Defs))
	kill := bitset.NewMatrix(g.NumNodes(), len(c.Defs))
	for n, i := range defAt {
		if i < 0 {
			continue
		}
		gen.SetBit(n, i)
		for _, j := range byVar[c.Defs[i].Var] {
			kill.SetBit(n, j)
		}
	}
	sol := bitvec.Solve[cfg.NodeID, cfg.EdgeID](g, bitvec.Problem{
		Forward: true, Bits: len(c.Defs), Gen: gen, Kill: kill,
		Order: bitvec.KillThenGen, Entry: int(g.Start),
	})
	c.Cost = sol.Cost

	// Materialize chains: for each use of v at node n, the reaching defs of
	// v entering n.
	in := make([]uint64, gen.Stride)
	for _, nd := range g.Nodes {
		uses := g.Uses(nd.ID)
		if len(uses) == 0 {
			continue
		}
		sol.In(nd.ID, in)
		for _, v := range uses {
			key := useKey{nd.ID, v}
			for _, i := range byVar[v] {
				if bitset.WordsBit(in, i) {
					c.byUse[key] = append(c.byUse[key], c.Defs[i].Node)
					c.All = append(c.All, Chain{Def: c.Defs[i].Node, Use: nd.ID, Var: v})
				}
			}
		}
	}
	return c
}

// Reaching returns the definition nodes of v reaching the use at n, in
// definition order.
func (c *Chains) Reaching(n cfg.NodeID, v string) []cfg.NodeID {
	return c.byUse[useKey{n, v}]
}

// Size returns the total number of def-use chains (the representation size
// that experiment E10 charts against SSA and DFG sizes).
func (c *Chains) Size() int { return len(c.All) }

// String renders the chains grouped by use.
func (c *Chains) String() string {
	keys := make([]useKey, 0, len(c.byUse))
	for k := range c.byUse {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].node != keys[j].node {
			return keys[i].node < keys[j].node
		}
		return keys[i].v < keys[j].v
	})
	var b strings.Builder
	for _, k := range keys {
		defs := c.byUse[k]
		parts := make([]string, len(defs))
		for i, d := range defs {
			parts[i] = fmt.Sprintf("n%d", d)
		}
		fmt.Fprintf(&b, "use %s @n%d <- {%s}\n", k.v, k.node, strings.Join(parts, ","))
	}
	return b.String()
}
