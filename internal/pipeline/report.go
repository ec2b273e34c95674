package pipeline

import "dfg/internal/oracle"

// Report is the wire-format summary of a Result: plain data, deterministic,
// and cheap to marshal. cmd/dfg-serve returns it from POST /analyze, and
// the parallel-safety tests compare Reports to prove batch and serial
// execution agree.
type Report struct {
	Parse     *ParseReport     `json:"parse,omitempty"`
	Bytecode  *BytecodeReport  `json:"bytecode,omitempty"`
	CFG       *CFGReport       `json:"cfg,omitempty"`
	Regions   *RegionsReport   `json:"regions,omitempty"`
	CDG       *CDGReport       `json:"cdg,omitempty"`
	DFG       *DFGReport       `json:"dfg,omitempty"`
	SSA       *SSAReport       `json:"ssa,omitempty"`
	Constprop *ConstpropReport `json:"constprop,omitempty"`
	Anticip   []ExprAnticip    `json:"anticip,omitempty"`
	EPR       *EPRReport       `json:"epr,omitempty"`
	Exec      *oracle.Report   `json:"exec,omitempty"`
}

type ParseReport struct {
	Stmts int `json:"stmts"`
}

// BytecodeReport summarizes the bytecode frontend's work on a KindBytecode
// request: the assembled program's size and the CFG recovery statistics.
// Present only when the request's SourceKind is KindBytecode.
type BytecodeReport struct {
	CodeBytes     int `json:"code_bytes"`
	Vars          int `json:"vars"`
	Instrs        int `json:"instrs"`
	Reached       int `json:"reached"`
	Blocks        int `json:"blocks"`
	ResolvedJumps int `json:"resolved_jumps"`
	SynthVars     int `json:"synth_vars"`
}

type CFGReport struct {
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	Vars  int `json:"vars"`
}

type RegionsReport struct {
	Classes int `json:"classes"`
	Regions int `json:"regions"`
}

type CDGReport struct {
	Partitions int `json:"partitions"`
}

type DFGReport struct {
	Ops         int `json:"ops"`
	Merges      int `json:"merges"`
	Switches    int `json:"switches"`
	Dependences int `json:"dependences"`
	DeadRemoved int `json:"dead_removed"`
}

type SSAReport struct {
	Phis       int    `json:"phis"`
	Size       int    `json:"size"`
	Equivalent bool   `json:"equivalent"`
	Mismatch   string `json:"mismatch,omitempty"`
}

// ConstpropReport omits the algorithms' cost counters. They are
// deterministic (TestDFGCostDeterministic and TestPinnedOpCounts pin them),
// but adding fields would change every report's bytes and the schema. Cost
// lives on Result.Cprop for callers that want it (cmd/dfg prints it).
type ConstpropReport struct {
	ConstUses int  `json:"const_uses"`
	Agree     bool `json:"agree"`
}

// EPRReport deliberately omits the convergence counters (Rounds,
// Converged, patch/rebuild tallies): they depend on the round cap and the
// DFG patch strategy, so surfacing them here would churn the pinned golden
// reports on every knob change. Only redundancies staged deeper than the
// cap reach it (EPR transforms a candidate only for a strict saving, so
// typical workloads converge); non-convergence is observable on
// Result.EPR.Stats and aggregated across requests in the engine Snapshot
// (EPRStats.NonConverged), which cmd/dfg-serve exports via expvar.
type EPRReport struct {
	Exprs    int       `json:"exprs"`
	Inserted int       `json:"inserted"`
	Replaced int       `json:"replaced"`
	PerExpr  []EPRExpr `json:"per_expr,omitempty"`
}

// Report summarizes the result's populated stages. Artifacts absent from
// the result (stages that were not requested) are omitted.
func (r *Result) Report() Report {
	var rep Report
	if r.Program != nil {
		rep.Parse = &ParseReport{Stmts: len(r.Program.Stmts)}
	}
	if r.Bytecode != nil {
		rep.Bytecode = &BytecodeReport{
			CodeBytes: len(r.Bytecode.Code),
			Vars:      len(r.Bytecode.Vars),
		}
		if r.BCInfo != nil {
			rep.Bytecode.Instrs = r.BCInfo.Instrs
			rep.Bytecode.Reached = r.BCInfo.Reached
			rep.Bytecode.Blocks = r.BCInfo.Blocks
			rep.Bytecode.ResolvedJumps = r.BCInfo.ResolvedJumps
			rep.Bytecode.SynthVars = r.BCInfo.SynthVars
		}
	}
	if r.CFG != nil {
		rep.CFG = &CFGReport{
			Nodes: r.CFG.NumNodes(),
			Edges: r.CFG.NumEdges(),
			Vars:  len(r.CFG.VarNames),
		}
	}
	if r.Regions != nil {
		rep.Regions = &RegionsReport{Classes: r.Regions.NumClasses, Regions: len(r.Regions.Regions)}
	}
	if r.CDG != nil {
		rep.CDG = &CDGReport{Partitions: r.CDG.NumClasses}
	}
	if r.DFG != nil {
		st := r.DFG.ComputeStats()
		rep.DFG = &DFGReport{
			Ops:         st.Ops,
			Merges:      st.Merges,
			Switches:    st.Switches,
			Dependences: st.Dependences,
			DeadRemoved: st.DeadRemoved,
		}
	}
	if r.SSA != nil {
		rep.SSA = &SSAReport{
			Phis:       r.SSA.Base.NumPhis(),
			Size:       r.SSA.Base.Size(),
			Equivalent: r.SSA.Equivalent,
			Mismatch:   r.SSA.Mismatch,
		}
	}
	if r.Cprop != nil {
		rep.Constprop = &ConstpropReport{
			ConstUses: r.Cprop.ConstUses,
			Agree:     r.Cprop.Agree,
		}
	}
	if r.Anticip != nil {
		rep.Anticip = r.Anticip.PerExpr
	}
	rep.Exec = r.Exec
	if r.EPR != nil {
		rep.EPR = &EPRReport{
			Exprs:    r.EPR.Stats.Exprs,
			Inserted: r.EPR.Stats.Inserted,
			Replaced: r.EPR.Stats.Replaced,
			PerExpr:  r.EPR.PerExpr,
		}
	}
	return rep
}
