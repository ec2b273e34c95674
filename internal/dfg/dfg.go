// Package dfg implements the dependence flow graph of Johnson & Pingali
// (PLDI 1993) — the paper's primary contribution.
//
// The DFG generalizes def-use chains and SSA form: a dependence for a
// variable x flows along control flow edges but may bypass any
// single-entry single-exit region that contains neither a definition nor a
// use of x. Where a dependence cannot bypass, it is intercepted by a
// switch operator (at CFG switches) or a merge operator (at CFG merges,
// playing the role SSA φ-functions play). Definition 6 characterizes every
// resulting dependence edge as a CFG edge pair (e1, e2) with:
//
//  1. a definition of x reaching e1,
//  2. a use of x reachable from e2,
//  3. no assignment to x on any path from e1 to e2,
//  4. e1 dominates e2,
//  5. e2 postdominates e1, and
//  6. e1 and e2 cycle equivalent.
//
// Construction follows §3.2: (1) compute variables defined/used within each
// SESE region (inside-out), (2) forward flow per variable maintaining the
// most recent dependence source, bypassing non-blocking regions, and
// (3) remove dead dependence edges by backward propagation. Multiedges —
// one tail feeding several heads — arise naturally as a source with its
// consumer list. A dummy control variable (CtlVar) defined at start and
// used by every statement without variable operands keeps the graph
// connected and rooted at start, encoding bare control dependence.
package dfg

import (
	"fmt"
	"sort"
	"strings"

	"dfg/internal/cfg"
	"dfg/internal/regions"
)

// CtlVar is the dummy control variable defined at start (§3.3 "Control
// edges"). The name is not a legal identifier in the source language, so it
// can never collide with a program variable.
const CtlVar = "$ctl"

// IOVar is the I/O state pseudo-variable threaded through every read and
// print node by BuildExec. A pure token-driven execution of the DFG fully
// determines all *values*, but the relative order of observable effects
// (input consumption, printed output) is not constrained by scalar data
// dependences alone — two prints of already-available values could fire in
// either order. Treating the external world as one more piece of state,
// defined and used by every effectful node, makes effect order an ordinary
// dependence and is what gives the DFG a sequential observable semantics
// (§2's executable representation; memory state is threaded the same way
// in the paper's load/store extension). Like CtlVar, the name cannot
// collide with a program variable.
const IOVar = "$io"

// OpID indexes Graph.Ops.
type OpID int

// NoOp is the sentinel for "no operator".
const NoOp OpID = -1

// OpKind discriminates dependence operators.
type OpKind int

// Operator kinds.
const (
	OpInit   OpKind = iota // initial value of a variable at start
	OpDef                  // output of an assign/read node
	OpMerge                // merge operator at a CFG merge node (≈ SSA φ)
	OpSwitch               // switch operator at a CFG switch node
)

// String returns the lower-case kind name.
func (k OpKind) String() string {
	switch k {
	case OpInit:
		return "init"
	case OpDef:
		return "def"
	case OpMerge:
		return "merge"
	case OpSwitch:
		return "switch"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Src identifies a dependence source: an output port of an operator. Merge,
// def and init operators have a single output (Out == BranchNone); switch
// operators have a true and a false output.
type Src struct {
	Op  OpID
	Out cfg.Branch
}

// NoSrc is the sentinel source.
var NoSrc = Src{Op: NoOp}

// Op is a dependence operator for one variable, attached to a CFG node.
type Op struct {
	ID   OpID
	Kind OpKind
	Var  string
	Node cfg.NodeID // attached CFG node (start for OpInit)

	// In lists the operator's dependence inputs: one entry per arriving
	// CFG in-edge for OpMerge (parallel to InEdges), exactly one for
	// OpSwitch, none for OpDef/OpInit.
	In      []Src
	InEdges []cfg.EdgeID // OpMerge only: CFG in-edge per input

	// LiveOut marks which outputs survived dead-edge removal; index 0 is
	// the single output (or the true output), index 1 the false output.
	LiveOut [2]bool

	// dead marks operators orphaned by an in-place patch (PatchEPR): their
	// inputs and consumer lists are cleared, they are excluded from the
	// node×variable operator tables, and their ports never become live
	// again. Live queries already skip them because LiveOut stays false.
	dead bool
}

// Dead reports whether the operator was orphaned by an in-place patch.
func (o *Op) Dead() bool { return o.dead }

// UseSite is a consumer of a dependence at a real CFG node: an operand of
// an assignment's right-hand side, a switch predicate, a print argument, or
// the control-variable use of a statement with no variable operands.
type UseSite struct {
	Node cfg.NodeID
	Var  string
	Src  Src
}

// Consumer identifies one head of a multiedge: either a use site (UseIdx
// >= 0) or an operator input (Op != NoOp, InIdx valid).
type Consumer struct {
	UseIdx int  // index into Graph.Uses, or -1
	Op     OpID // operator consuming the value, or NoOp
	InIdx  int  // input slot of Op
}

// Graph is a dependence flow graph built over a CFG. The hot lookup
// structures are dense slices indexed by the underlying integer IDs
// (NodeID, OpID, and the source-port index of srcIndex) rather than maps:
// construction and the solvers that run per candidate expression index them
// millions of times on the cold analysis path.
type Graph struct {
	G    *cfg.Graph
	Info *regions.Info

	Ops  []Op
	Uses []UseSite

	// DefOf maps an assign/read node to its def operator (NoOp for nodes
	// that define nothing), indexed by NodeID.
	DefOf []OpID
	// InitOf maps a variable to its init operator at start.
	InitOf map[string]OpID

	// execMode records whether this graph was built by BuildExec; ioDefOf
	// then maps every read/print node to its IOVar def operator (NoOp
	// elsewhere), indexed by NodeID.
	execMode bool
	ioDefOf  []OpID

	// varIdx numbers CtlVar (0) and the program variables (1..) densely;
	// mergeOf and switchOf are node×variable tables of operator IDs (NoOp
	// when absent), indexed by nvIndex.
	varIdx   map[string]int
	mergeOf  []OpID
	switchOf []OpID

	// consumers[srcIndex(s)] lists the heads of the multiedge rooted at s;
	// every operator owns two consecutive slots (single/true output, false
	// output).
	consumers [][]Consumer

	// visited/visitEpoch implement a reusable per-edge visited set for
	// flowVar: one allocation shared by all per-variable passes.
	visited    []int32
	visitEpoch int32

	// byVar caches OpsByVar: live operator IDs per variable in ID order.
	// Built lazily on first request, then maintained by newOp and PatchEPR.
	byVar map[string][]OpID
}

// srcIndex returns the dense index of a source port: each operator owns two
// consecutive slots, the second used only for a switch's false output.
func srcIndex(s Src) int {
	i := 2 * int(s.Op)
	if s.Out == cfg.BranchFalse {
		i++
	}
	return i
}

// NumSrcIndexes returns the size of the source-port index space (two slots
// per operator); srcIndex values are always below it.
func (d *Graph) NumSrcIndexes() int { return 2 * len(d.Ops) }

// SrcIndex exposes the dense port index of s for slice-backed per-port
// tables in the solvers.
func SrcIndex(s Src) int { return srcIndex(s) }

// srcAt reconstructs the source port stored at dense index i.
func (d *Graph) srcAt(i int) Src {
	op := OpID(i / 2)
	if i%2 == 1 {
		return Src{Op: op, Out: cfg.BranchFalse}
	}
	if d.Ops[op].Kind == OpSwitch {
		return Src{Op: op, Out: cfg.BranchTrue}
	}
	return Src{Op: op, Out: cfg.BranchNone}
}

// nvIndex flattens a (node, variable) pair into the mergeOf/switchOf tables.
func (d *Graph) nvIndex(n cfg.NodeID, v string) int {
	return int(n)*len(d.varIdx) + d.varIdx[v]
}

// Granularity selects the edge partition used for region bypassing (§3.3
// "Region Bypassing": the construction is correct for any partition finer
// than control dependence equivalence; coarser partitions bypass more).
type Granularity int

// Granularities, coarsest (most bypassing) first.
const (
	// GranRegions uses control dependence equivalence — the paper's DFG.
	GranRegions Granularity = iota
	// GranBasicBlocks bypasses straight-line statements but no control
	// structures.
	GranBasicBlocks
	// GranNone performs no bypassing: the base-level DFG of §3.2 (with
	// dead-edge removal still applied).
	GranNone
)

// String names the granularity.
func (gr Granularity) String() string {
	switch gr {
	case GranRegions:
		return "regions"
	case GranBasicBlocks:
		return "basic-blocks"
	case GranNone:
		return "none"
	}
	return fmt.Sprintf("Granularity(%d)", int(gr))
}

// Build constructs the dependence flow graph of g. The regions analysis is
// computed internally; use BuildWithInfo to share one.
func Build(g *cfg.Graph) (*Graph, error) {
	info, err := regions.Analyze(g)
	if err != nil {
		return nil, err
	}
	return BuildWithInfo(g, info)
}

// BuildGranularity constructs the DFG using the given bypass granularity.
// All analyses built on the result produce identical answers across
// granularities; only the dependence graph's size changes (the ablation of
// experiment E13).
func BuildGranularity(g *cfg.Graph, gran Granularity) (*Graph, error) {
	info, err := granInfo(g, gran)
	if err != nil {
		return nil, err
	}
	return buildWithInfo(g, info, false)
}

// granInfo runs the SESE analysis under the edge partition selected by gran.
func granInfo(g *cfg.Graph, gran Granularity) (*regions.Info, error) {
	var classOf []int
	var num int
	switch gran {
	case GranBasicBlocks:
		classOf, num = regions.BasicBlockClasses(g)
	case GranNone:
		classOf, num = regions.SingletonClasses(g)
	default:
		classOf, num = regions.EdgeClasses(g)
	}
	return regions.AnalyzeWithClasses(g, classOf, num)
}

// BuildExec constructs an executable DFG at the given bypass granularity:
// the ordinary dependence flow graph plus the IOVar state variable threaded
// through every read and print node. The extra variable reuses the whole
// construction pipeline unchanged — per-variable forward flow, region
// bypassing, switch/merge interception, and dead-edge removal — so an
// executable graph differentially tests the same machinery Build runs on
// program variables. internal/dfgexec runs the result; internal/oracle
// compares that run against the CFG interpreter.
func BuildExec(g *cfg.Graph, gran Granularity) (*Graph, error) {
	info, err := granInfo(g, gran)
	if err != nil {
		return nil, err
	}
	return buildWithInfo(g, info, true)
}

// MustBuild builds the DFG and panics on error (fixed inputs only).
func MustBuild(g *cfg.Graph) *Graph {
	d, err := Build(g)
	if err != nil {
		panic(err)
	}
	return d
}

// BuildWithInfo constructs the DFG using a precomputed SESE analysis.
func BuildWithInfo(g *cfg.Graph, info *regions.Info) (*Graph, error) {
	return buildWithInfo(g, info, false)
}

func buildWithInfo(g *cfg.Graph, info *regions.Info, exec bool) (*Graph, error) {
	d, vars := newGraphPrefix(g, info, exec)

	// Phase 1: which variables does each region block (define or use)?
	blocks := d.regionBlocks()

	// Phase 2: per-variable forward flow with region bypassing.
	for _, v := range vars {
		if err := d.flowVar(v, blocks); err != nil {
			return nil, err
		}
	}

	// Phase 3: dead-edge removal.
	d.removeDeadEdges()
	return d, nil
}

// newGraphPrefix allocates the graph and creates the deterministic operator
// prefix the per-variable flows start from: def operators per defining node
// in node order, then (exec graphs) IOVar def operators per effectful node.
func newGraphPrefix(g *cfg.Graph, info *regions.Info, exec bool) (*Graph, []string) {
	vars := append([]string{CtlVar}, g.VarNames...)
	if exec {
		vars = append(vars, IOVar)
	}
	varIdx := make(map[string]int, len(vars))
	for i, v := range vars {
		varIdx[v] = i
	}
	d := &Graph{
		G:        g,
		Info:     info,
		InitOf:   make(map[string]OpID, len(vars)),
		varIdx:   varIdx,
		visited:  make([]int32, g.NumEdges()),
		execMode: exec,
	}
	d.DefOf = make([]OpID, g.NumNodes())
	for i := range d.DefOf {
		d.DefOf[i] = NoOp
	}
	nv := g.NumNodes() * len(vars)
	d.mergeOf = make([]OpID, nv)
	d.switchOf = make([]OpID, nv)
	for i := 0; i < nv; i++ {
		d.mergeOf[i] = NoOp
		d.switchOf[i] = NoOp
	}

	// Def operators exist per defining node, shared across the per-variable
	// passes (created eagerly so DefOf is total).
	for _, nd := range g.Nodes {
		if v := g.Defs(nd.ID); v != "" {
			d.DefOf[nd.ID] = d.newOp(OpDef, v, nd.ID)
		}
	}

	// Executable graphs additionally give every effectful node an IOVar def
	// operator: a read or print both consumes and redefines the I/O state.
	if exec {
		d.ioDefOf = make([]OpID, g.NumNodes())
		for i := range d.ioDefOf {
			d.ioDefOf[i] = NoOp
		}
		for _, nd := range g.Nodes {
			if nd.Kind == cfg.KindRead || nd.Kind == cfg.KindPrint {
				d.ioDefOf[nd.ID] = d.newOp(OpDef, IOVar, nd.ID)
			}
		}
	}
	return d, vars
}

func (d *Graph) newOp(kind OpKind, v string, node cfg.NodeID) OpID {
	id := OpID(len(d.Ops))
	d.Ops = append(d.Ops, Op{ID: id, Kind: kind, Var: v, Node: node})
	d.consumers = append(d.consumers, nil, nil)
	if d.byVar != nil {
		d.byVar[v] = append(d.byVar[v], id)
	}
	return id
}

// usesVar reports whether CFG node n uses variable v, treating CtlVar as
// used by every computation node that has no variable operands.
func (d *Graph) usesVar(n cfg.NodeID, v string) bool {
	nd := d.G.Node(n)
	if v == IOVar {
		return d.execMode && (nd.Kind == cfg.KindRead || nd.Kind == cfg.KindPrint)
	}
	if v == CtlVar {
		switch nd.Kind {
		case cfg.KindAssign, cfg.KindRead, cfg.KindPrint, cfg.KindSwitch, cfg.KindNop:
			return len(d.G.Uses(n)) == 0
		}
		return false
	}
	for _, u := range d.G.Uses(n) {
		if u == v {
			return true
		}
	}
	return false
}

// defsVar reports whether CFG node n defines v. CtlVar is defined only at
// start; IOVar at every read/print of an executable graph.
func (d *Graph) defsVar(n cfg.NodeID, v string) bool {
	if v == IOVar {
		nd := d.G.Node(n)
		return d.execMode && (nd.Kind == cfg.KindRead || nd.Kind == cfg.KindPrint)
	}
	if v == CtlVar {
		return false
	}
	return d.G.Defs(n) == v
}

// defOp returns the operator that redefines v at node n: the node's IOVar
// def for the I/O state, its ordinary def otherwise.
func (d *Graph) defOp(n cfg.NodeID, v string) OpID {
	if v == IOVar {
		return d.ioDefOf[n]
	}
	return d.DefOf[n]
}

// Exec reports whether the graph was built by BuildExec (IOVar threaded).
func (d *Graph) Exec() bool { return d.execMode }

// IODef returns the IOVar def operator of read/print node n, or NoOp for
// other nodes and for graphs not built by BuildExec.
func (d *Graph) IODef(n cfg.NodeID) OpID {
	if !d.execMode {
		return NoOp
	}
	return d.ioDefOf[n]
}

// regionBlocks computes, for every canonical region, the set of variables
// defined or used by nodes in the region's subtree. A dependence for v may
// bypass region R iff v is not in blocks[R] (Definition 6: bypassing a
// region with a def would break condition 3; with a use, conditions 4–6
// would fail for the inner use's dependence edge, so the flow must descend
// and be intercepted).
// regionBlocks returns per-region variable-blocking tables indexed
// [region][varIdx].
func (d *Graph) regionBlocks() [][]bool {
	n := len(d.Info.Regions)
	nvars := len(d.varIdx)
	blocks := make([][]bool, n)
	store := make([]bool, n*nvars) // one backing array for all regions
	for i := range blocks {
		blocks[i] = store[i*nvars : (i+1)*nvars]
	}
	for _, nd := range d.G.Nodes {
		r := d.Info.NodeRegion[nd.ID]
		if r < 0 {
			continue
		}
		if v := d.G.Defs(nd.ID); v != "" {
			blocks[r][d.varIdx[v]] = true
		}
		for _, v := range d.G.Uses(nd.ID) {
			blocks[r][d.varIdx[v]] = true
		}
		if d.usesVar(nd.ID, CtlVar) {
			blocks[r][0] = true
		}
		if d.usesVar(nd.ID, IOVar) {
			blocks[r][d.varIdx[IOVar]] = true
		}
	}
	// Aggregate children into parents (regions are created before their
	// children only sometimes; iterate until fixpoint via depth order).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return d.Info.Regions[order[a]].Depth > d.Info.Regions[order[b]].Depth
	})
	for _, id := range order {
		r := d.Info.Regions[id]
		if r.Parent >= 0 {
			for vi, blocked := range blocks[id] {
				if blocked {
					blocks[r.Parent][vi] = true
				}
			}
		}
	}
	return blocks
}

// flowVar propagates dependence sources for variable v across the CFG.
func (d *Graph) flowVar(v string, blocks [][]bool) error {
	g := d.G
	init := d.newOp(OpInit, v, g.Start)
	d.InitOf[v] = init
	vi := d.varIdx[v]

	// Epoch-stamped visited set: one shared allocation across variables.
	d.visitEpoch++
	epoch := d.visitEpoch
	visited := d.visited

	// deliver hands the current source to the node at the far end of edge
	// eid; visit transports a source across an edge, bypassing regions.
	var visit func(eid cfg.EdgeID, src Src) error
	deliver := func(eid cfg.EdgeID, src Src) error {
		node := g.Edge(eid).Dst
		nd := g.Node(node)

		// Operand use at this node.
		if d.usesVar(node, v) {
			d.addUse(node, v, src)
		}

		switch nd.Kind {
		case cfg.KindEnd:
			return nil

		case cfg.KindMerge:
			key := int(node)*len(d.varIdx) + vi
			mid := d.mergeOf[key]
			first := mid == NoOp
			if first {
				mid = d.newOp(OpMerge, v, node)
				d.mergeOf[key] = mid
			}
			op := &d.Ops[mid]
			op.In = append(op.In, src)
			op.InEdges = append(op.InEdges, eid)
			d.addConsumer(src, Consumer{UseIdx: -1, Op: mid, InIdx: len(op.In) - 1})
			if first {
				return visit(g.OutEdges(node)[0], Src{Op: mid, Out: cfg.BranchNone})
			}
			return nil

		case cfg.KindSwitch:
			key := int(node)*len(d.varIdx) + vi
			if d.switchOf[key] != NoOp {
				return fmt.Errorf("dfg: switch node %d visited twice for %s", node, v)
			}
			sid := d.newOp(OpSwitch, v, node)
			d.switchOf[key] = sid
			op := &d.Ops[sid]
			op.In = []Src{src}
			d.addConsumer(src, Consumer{UseIdx: -1, Op: sid, InIdx: 0})
			tEdge := g.SwitchEdge(node, cfg.BranchTrue)
			fEdge := g.SwitchEdge(node, cfg.BranchFalse)
			if err := visit(tEdge, Src{Op: sid, Out: cfg.BranchTrue}); err != nil {
				return err
			}
			return visit(fEdge, Src{Op: sid, Out: cfg.BranchFalse})

		default: // assign, read, print, nop, (start cannot be a dst)
			out := src
			if d.defsVar(node, v) {
				out = Src{Op: d.defOp(node, v), Out: cfg.BranchNone}
			}
			return visit(g.OutEdges(node)[0], out)
		}
	}

	visit = func(eid cfg.EdgeID, src Src) error {
		for {
			if visited[eid] == epoch {
				return fmt.Errorf("dfg: edge %d visited twice for %s", eid, v)
			}
			visited[eid] = epoch
			// Patch mode (PatchEPR): no region table — the SESE analysis is
			// stale after a CFG mutation — so no bypassing either; the
			// re-flowed variable gets base-granularity (GranNone) operators,
			// which every analysis treats identically (granularity
			// invariance, experiment E13).
			if blocks == nil {
				return deliver(eid, src)
			}
			// Region bypassing: while eid is the entry of a canonical
			// region that does not block v, jump to its exit.
			rid := d.Info.EntryOf[eid]
			if rid < 0 || blocks[rid][vi] {
				return deliver(eid, src)
			}
			eid = d.Info.Regions[rid].Exit
		}
	}

	return visit(g.OutEdges(g.Start)[0], Src{Op: init, Out: cfg.BranchNone})
}

func (d *Graph) addUse(node cfg.NodeID, v string, src Src) {
	d.Uses = append(d.Uses, UseSite{Node: node, Var: v, Src: src})
	d.addConsumer(src, Consumer{UseIdx: len(d.Uses) - 1, Op: NoOp})
}

func (d *Graph) addConsumer(src Src, c Consumer) {
	i := srcIndex(src)
	d.consumers[i] = append(d.consumers[i], c)
}

// Consumers returns the heads of the multiedge rooted at src, in creation
// order. The returned slice is shared; do not mutate.
func (d *Graph) Consumers(src Src) []Consumer {
	if src.Op == NoOp {
		return nil
	}
	return d.consumers[srcIndex(src)]
}

// removeDeadEdges performs the backward pruning of §3.2 step 4: a source is
// live iff it reaches a use site through live operators. Merge and switch
// operators whose outputs are all dead are effectively removed (their
// LiveOut flags stay false and their input edges are not counted).
func (d *Graph) removeDeadEdges() {
	// Work backwards from use sites. The LiveOut flags double as the
	// visited set: a port's flag is set exactly when the port is live.
	var mark func(src Src)
	mark = func(src Src) {
		if src.Op == NoOp {
			return
		}
		op := &d.Ops[src.Op]
		slot := 0
		if src.Out == cfg.BranchFalse {
			slot = 1
		}
		if op.LiveOut[slot] {
			return
		}
		op.LiveOut[slot] = true
		switch op.Kind {
		case OpMerge:
			for _, in := range op.In {
				mark(in)
			}
		case OpSwitch:
			// A switch input is live if either output is; mark once.
			mark(op.In[0])
		}
	}
	for _, u := range d.Uses {
		mark(u.Src)
	}
}

// LiveSrc reports whether the source port survived dead-edge removal.
func (d *Graph) LiveSrc(src Src) bool {
	if src.Op == NoOp {
		return false
	}
	if src.Out == cfg.BranchFalse {
		return d.Ops[src.Op].LiveOut[1]
	}
	return d.Ops[src.Op].LiveOut[0]
}

// LiveConsumer reports whether a particular dependence edge (src → c) is
// live: the head must itself lead to a use.
func (d *Graph) LiveConsumer(src Src, c Consumer) bool {
	if !d.LiveSrc(src) {
		return false
	}
	if c.UseIdx >= 0 {
		return true
	}
	op := &d.Ops[c.Op]
	switch op.Kind {
	case OpMerge:
		return op.LiveOut[0]
	case OpSwitch:
		return op.LiveOut[0] || op.LiveOut[1]
	}
	return false
}

// ---------------------------------------------------------------------------
// Edge-pair view (Definition 6) and metrics

// TailEdge returns the CFG edge at which the value produced by src becomes
// available: the defining node's out-edge for defs and inits, the merge's
// out-edge for merges, and the corresponding branch edge for switch
// outputs.
func (d *Graph) TailEdge(src Src) cfg.EdgeID {
	op := d.Ops[src.Op]
	switch op.Kind {
	case OpSwitch:
		return d.G.SwitchEdge(op.Node, src.Out)
	default:
		outs := d.G.OutEdges(op.Node)
		if len(outs) == 0 {
			return cfg.NoEdge
		}
		return outs[0]
	}
}

// HeadEdge returns the CFG edge at which the consumer receives the value:
// the consuming node's in-edge for use sites and switch inputs, and the
// matching merge in-edge for merge inputs.
func (d *Graph) HeadEdge(c Consumer) cfg.EdgeID {
	if c.UseIdx >= 0 {
		u := d.Uses[c.UseIdx]
		ins := d.G.InEdges(u.Node)
		if len(ins) == 0 {
			return cfg.NoEdge
		}
		return ins[0]
	}
	op := d.Ops[c.Op]
	switch op.Kind {
	case OpMerge:
		return op.InEdges[c.InIdx]
	default:
		ins := d.G.InEdges(op.Node)
		if len(ins) == 0 {
			return cfg.NoEdge
		}
		return ins[0]
	}
}

// Stats summarizes DFG size.
type Stats struct {
	Ops         int // operators of all kinds (live ones)
	Merges      int
	Switches    int
	Dependences int // live source→head links
	Multiedges  int // live sources (multiedge tails)
	DeadRemoved int // links removed by dead-edge pruning
}

// ComputeStats counts live operators and dependences.
func (d *Graph) ComputeStats() Stats {
	var s Stats
	for i := range d.Ops {
		op := &d.Ops[i]
		if !op.LiveOut[0] && !op.LiveOut[1] {
			continue
		}
		s.Ops++
		switch op.Kind {
		case OpMerge:
			s.Merges++
		case OpSwitch:
			s.Switches++
		}
	}
	for i, cs := range d.consumers {
		if len(cs) == 0 {
			continue
		}
		src := d.srcAt(i)
		liveHere := 0
		for _, c := range cs {
			if d.LiveConsumer(src, c) {
				liveHere++
			} else {
				s.DeadRemoved++
			}
		}
		if liveHere > 0 {
			s.Multiedges++
			s.Dependences += liveHere
		}
	}
	return s
}

// String renders the DFG, one operator per line plus use sites.
func (d *Graph) String() string {
	var b strings.Builder
	srcStr := func(s Src) string {
		if s.Op == NoOp {
			return "_"
		}
		suffix := ""
		if s.Out == cfg.BranchTrue {
			suffix = ".T"
		} else if s.Out == cfg.BranchFalse {
			suffix = ".F"
		}
		return fmt.Sprintf("op%d%s", s.Op, suffix)
	}
	for i := range d.Ops {
		op := &d.Ops[i]
		if !op.LiveOut[0] && !op.LiveOut[1] && op.Kind != OpDef {
			continue
		}
		fmt.Fprintf(&b, "op%d [%s %s @n%d]", op.ID, op.Kind, op.Var, op.Node)
		if len(op.In) > 0 {
			parts := make([]string, len(op.In))
			for i, in := range op.In {
				parts[i] = srcStr(in)
			}
			fmt.Fprintf(&b, " in(%s)", strings.Join(parts, ","))
		}
		b.WriteByte('\n')
	}
	for _, u := range d.Uses {
		fmt.Fprintf(&b, "use %s @n%d <- %s\n", u.Var, u.Node, srcStr(u.Src))
	}
	return b.String()
}

// DOT renders the live part of the DFG in Graphviz format, overlaid on CFG
// node identities.
func (d *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  node [fontname=\"monospace\"];\n", name)
	for i := range d.Ops {
		op := &d.Ops[i]
		if !op.LiveOut[0] && !op.LiveOut[1] {
			continue
		}
		shape := "box"
		switch op.Kind {
		case OpMerge:
			shape = "invtriangle"
		case OpSwitch:
			shape = "diamond"
		case OpInit:
			shape = "ellipse"
		}
		fmt.Fprintf(&b, "  op%d [label=\"%s %s\\nn%d\", shape=%s];\n", op.ID, op.Kind, op.Var, op.Node, shape)
	}
	for i, u := range d.Uses {
		fmt.Fprintf(&b, "  use%d [label=\"use %s\\nn%d\", shape=plaintext];\n", i, u.Var, u.Node)
	}
	edge := func(src Src, to string) {
		style := ""
		if d.Ops[src.Op].Var == CtlVar {
			style = " [style=dotted]"
		}
		lbl := ""
		if src.Out == cfg.BranchTrue {
			lbl = "T"
		} else if src.Out == cfg.BranchFalse {
			lbl = "F"
		}
		if lbl != "" {
			style = fmt.Sprintf(" [label=%q]", lbl)
		}
		fmt.Fprintf(&b, "  op%d -> %s%s;\n", src.Op, to, style)
	}
	for i, cs := range d.consumers {
		if len(cs) == 0 {
			continue
		}
		src := d.srcAt(i)
		for _, c := range cs {
			if !d.LiveConsumer(src, c) {
				continue
			}
			if c.UseIdx >= 0 {
				edge(src, fmt.Sprintf("use%d", c.UseIdx))
			} else {
				edge(src, fmt.Sprintf("op%d", c.Op))
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}
