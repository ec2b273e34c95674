// Package pipeline wraps the repository's analysis packages behind a single
// staged engine. An Engine runs the stages of one request, caches finished
// Reports (as canonical JSON bytes) in a bounded, content-addressed LRU with
// an optional persistent store behind it, admits at most Config.Workers
// analyses at once, fans batches of requests across them, and exposes
// per-stage run/latency/allocation counters. The
// CLI (cmd/dfg), the bench harness (cmd/dfg-bench), the worker
// (cmd/dfg-worker) and the HTTP service (cmd/dfg-serve) all route through
// it, so there is exactly one code path from source text to analysis
// results.
//
// Stages form a fixed DAG:
//
//	parse ─ cfg ─┬─ regions ─┬─ cdg
//	             │           └─ dfg ─┬─ ssa
//	             ├─ exec             ├─ constprop
//	             │                   └─ anticip ─ epr
//
// Requesting a stage implies its dependencies. The regions stage computes
// the program's cycle-equivalence classes and PST once: cdg and dfg both
// build on them, and epr starts from the dfg stage's graph and the anticip
// stage's candidates and ANT/PAN rows, so a request runs
// regions.EdgeClasses once, solves ANT/PAN once, and builds one DFG unless
// EPR edits the program. The exec stage — the
// differential execution oracle of internal/oracle — is on-demand only:
// it is excluded from AllStages because its artifact depends on the
// request's input vector, not on the program alone. Every stage result is
// immutable once computed: later stages of the same request read it, so
// consumers that need to transform a graph (constprop.Apply, epr.Apply)
// clone it first. Live artifacts are never kept across requests; only
// Reports are cached (see AnalyzeReport).
package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"time"

	"dfg/internal/anticip"
	"dfg/internal/bcfront"
	"dfg/internal/bytecode"
	"dfg/internal/cdg"
	"dfg/internal/cfg"
	"dfg/internal/constprop"
	"dfg/internal/dataflow"
	"dfg/internal/dfg"
	"dfg/internal/epr"
	"dfg/internal/lang/ast"
	"dfg/internal/lang/parser"
	"dfg/internal/oracle"
	"dfg/internal/regions"
	"dfg/internal/ssa"
	"dfg/internal/store"
)

// Stage names one step of the analysis pipeline.
type Stage string

// The stages, in canonical (topological) order.
const (
	StageParse     Stage = "parse"
	StageCFG       Stage = "cfg"
	StageRegions   Stage = "regions"
	StageCDG       Stage = "cdg"
	StageDFG       Stage = "dfg"
	StageSSA       Stage = "ssa"
	StageConstprop Stage = "constprop"
	StageAnticip   Stage = "anticip"
	StageEPR       Stage = "epr"
	StageExec      Stage = "exec"
)

// stageOrder fixes the canonical execution order; stageDeps records direct
// dependencies (transitively closed by expandStages).
var stageOrder = []Stage{
	StageParse, StageCFG, StageRegions, StageCDG, StageDFG,
	StageSSA, StageConstprop, StageAnticip, StageEPR, StageExec,
}

var stageDeps = map[Stage][]Stage{
	StageParse:     nil,
	StageCFG:       {StageParse},
	StageRegions:   {StageCFG},
	StageCDG:       {StageCFG, StageRegions},
	StageDFG:       {StageCFG, StageRegions},
	StageSSA:       {StageCFG, StageDFG},
	StageConstprop: {StageCFG, StageDFG},
	StageAnticip:   {StageCFG, StageDFG},
	StageEPR:       {StageCFG, StageDFG, StageAnticip},
	StageExec:      {StageCFG},
}

// AllStages returns every on-by-default stage in canonical order. StageExec
// is excluded: executing a program is parameterized by an input vector, so
// it runs only when requested explicitly.
func AllStages() []Stage {
	out := make([]Stage, 0, len(stageOrder)-1)
	for _, s := range stageOrder {
		if s != StageExec {
			out = append(out, s)
		}
	}
	return out
}

// ValidStage reports whether s names a known stage.
func ValidStage(s Stage) bool {
	_, ok := stageDeps[s]
	return ok
}

// expandStages closes req over dependencies and returns the result in
// canonical order. Unknown stages are reported as an error.
func expandStages(req []Stage) ([]Stage, error) {
	want := map[Stage]bool{}
	var add func(s Stage) error
	add = func(s Stage) error {
		deps, ok := stageDeps[s]
		if !ok {
			return fmt.Errorf("unknown stage %q", s)
		}
		if want[s] {
			return nil
		}
		want[s] = true
		for _, d := range deps {
			if err := add(d); err != nil {
				return err
			}
		}
		return nil
	}
	for _, s := range req {
		if err := add(s); err != nil {
			return nil, err
		}
	}
	var out []Stage
	for _, s := range stageOrder {
		if want[s] {
			out = append(out, s)
		}
	}
	return out, nil
}

// SourceKind says which frontend interprets Request.Source.
type SourceKind string

// The source kinds. The zero value is the toy-language frontend.
const (
	// KindSource: Source is toy-language text, parsed and lowered by
	// parser.Parse + cfg.Build.
	KindSource SourceKind = ""
	// KindBytecode: Source is bytecode assembly text (bytecode.Assemble's
	// syntax); the CFG comes from abstract-interpretation recovery
	// (bcfront.Recover). Binary containers are disassembled to this form at
	// the edges (cmd/dfg, the wire protocol), keeping Request.Source a
	// string everywhere.
	KindBytecode SourceKind = "bytecode"
)

// ValidSourceKind reports whether k names a known frontend.
func ValidSourceKind(k SourceKind) bool { return k == KindSource || k == KindBytecode }

// Options parameterize the analyses of one request. The zero value is the
// default configuration.
type Options struct {
	// Predicates enables the §4-extension predicate analysis (x == c
	// refinement) in the constprop stage.
	Predicates bool

	// SourceKind selects the frontend for Request.Source. It is part of
	// the content address: the same bytes mean different programs under
	// different frontends.
	SourceKind SourceKind

	// ExecInputs is the input stream for the exec stage's differential
	// execution oracle. It is folded into the report key only when the exec
	// stage is requested, so varying inputs never splits the cached Reports
	// of the pure analysis stages.
	ExecInputs []int64
}

// fingerprint folds the options into the content address.
func (o Options) fingerprint() string {
	return fmt.Sprintf("pred=%t/kind=%s", o.Predicates, o.SourceKind)
}

// Request is one unit of work for the engine: a program plus the stages to
// run on it.
type Request struct {
	Source  string
	Stages  []Stage // empty means all stages
	Options Options
	Timeout time.Duration // per-request; 0 means the engine default
}

// StageInfo records one stage's computation for one request.
type StageInfo struct {
	Duration time.Duration // compute time
}

// SSAResult is the ssa stage artifact: both constructions plus their
// equivalence verdict.
type SSAResult struct {
	Base       *ssa.Form // Cytron's algorithm (minimal SSA)
	Derived    *ssa.Form // derived from the DFG (pruned SSA)
	Equivalent bool
	Mismatch   string // explanation when not equivalent
}

// ConstpropResult is the constprop stage artifact: both algorithms plus
// their agreement verdict (constprop.Agree).
type ConstpropResult struct {
	CFG       *constprop.Result
	DFG       *constprop.Result
	Agree     bool
	Mismatch  string // explanation when they disagree
	ConstUses int    // use sites proved constant (CFG algorithm)
}

// ExprAnticip summarizes anticipatability of one candidate expression.
type ExprAnticip struct {
	Expr     string `json:"expr"`
	AntEdges int    `json:"ant_edges"` // CFG edges where the expression is anticipatable
	PanEdges int    `json:"pan_edges"` // CFG edges where it is partially anticipatable
}

// AnticipResult is the anticip stage artifact: the candidate family of the
// input CFG with its ANT/PAN rows from one batched DFG solve, which the epr
// stage's first round reads, and the per-expression summary the report
// shows.
type AnticipResult struct {
	Solution *anticip.Solution
	PerExpr  []ExprAnticip
}

// EPRExpr is the per-expression outcome of partial redundancy elimination:
// the INSERT edge set and DELETE node set of the earliest down-safe
// placement.
type EPRExpr struct {
	Expr      string `json:"expr"`
	Redundant bool   `json:"redundant"`
	Insert    []int  `json:"insert,omitempty"` // cfg.EdgeID, sorted
	Delete    []int  `json:"delete,omitempty"` // cfg.NodeID, sorted
}

// EPRResult is the epr stage artifact.
type EPRResult struct {
	Stats     epr.Stats
	PerExpr   []EPRExpr
	Optimized *cfg.Graph // the transformed clone (original CFG untouched)
}

// Result carries the artifacts of one request. Only the stages that were
// requested (or required as dependencies) are non-nil. Later stages read
// the artifacts of earlier ones, so all of them must be treated as
// read-only; clone before transforming (see epr.Clone).
type Result struct {
	src     string // request source, for the parse stage
	Program *ast.Program
	// Bytecode and BCInfo are populated instead of Program when the request's
	// SourceKind is KindBytecode: the assembled program and the CFG-recovery
	// statistics.
	Bytecode *bytecode.Program
	BCInfo   *bcfront.Info
	CFG      *cfg.Graph
	Regions  *regions.Info
	CDG      *cdg.Factored
	DFG      *dfg.Graph
	SSA      *SSAResult
	Cprop    *ConstpropResult
	Anticip  *AnticipResult
	EPR      *EPRResult
	Exec     *oracle.Report

	Stages map[Stage]StageInfo
}

// StageError wraps a failure inside one stage, distinguishing recovered
// panics from ordinary analysis errors.
type StageError struct {
	Stage    Stage
	Panicked bool
	Err      error
}

func (e *StageError) Error() string {
	if e.Panicked {
		return fmt.Sprintf("stage %s panicked: %v", e.Stage, e.Err)
	}
	return fmt.Sprintf("stage %s: %v", e.Stage, e.Err)
}

func (e *StageError) Unwrap() error { return e.Err }

// Config configures an Engine. The zero value gives GOMAXPROCS workers, a
// 512-entry report LRU, no persistent store, and a 30-second default
// request timeout. Parallelism is across programs only: each program's
// stages run serially.
type Config struct {
	// Workers bounds the analyses the engine runs at once, process-wide:
	// Analyze takes one of Workers slots before its first stage and holds
	// it until its last, waiting no longer than the request's timeout or
	// context. Every compute path shares it (a batch, a wire worker's
	// items, dfg-serve's requests), while AnalyzeReport's cache tiers
	// answer without a slot. <=0 means GOMAXPROCS.
	Workers        int
	DefaultTimeout time.Duration // per-request timeout when Request.Timeout is 0; <=0 means 30s

	// Deprecated: the engine keeps no stage-artifact cache, so
	// CacheEntries is ignored. ReportCacheEntries sizes the only cache.
	CacheEntries int
	// Deprecated: the engine keeps no stage-artifact cache, so every
	// Analyze call computes and DisableCache is ignored.
	DisableCache bool

	// Deprecated: every stage runs serially within one program, so
	// IntraWorkers is ignored. Workers parallelizes across programs.
	IntraWorkers int

	// Store, when set, adds the persistent tier behind AnalyzeReport's
	// in-memory report LRU: computed reports are written through to it and
	// survive process restarts. Open it with schema ReportSchemaVersion.
	Store *store.Store
	// ReportCacheEntries sizes AnalyzeReport's in-memory report LRU, with
	// or without a Store; <=0 means 512.
	ReportCacheEntries int

	// StageHook, when set, runs before each stage computation. It exists
	// for tracing and fault injection in tests: a hook that panics
	// exercises the engine's panic isolation.
	StageHook func(Stage, string)
}

// Engine is a concurrent analysis pipeline with a report-level cache. It is
// safe for use by multiple goroutines.
type Engine struct {
	cfg       Config
	slots     chan struct{} // compute admission: capacity cfg.Workers
	reportLRU *lruCache     // AnalyzeReport's in-memory tier
	metrics   *metrics
}

// New returns an Engine with the given configuration.
func New(c Config) *Engine {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ReportCacheEntries <= 0 {
		c.ReportCacheEntries = 512
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	return &Engine{
		cfg:       c,
		slots:     make(chan struct{}, c.Workers),
		reportLRU: newLRU(c.ReportCacheEntries),
		metrics:   newMetrics(),
	}
}

// Workers reports how many analyses the engine runs at once.
func (e *Engine) Workers() int { return e.cfg.Workers }

// key returns the content address of (source, options), the prefix of every
// report key for that pair.
func key(source string, o Options) string {
	sum := sha256.Sum256([]byte(source))
	return hex.EncodeToString(sum[:]) + "/" + o.fingerprint()
}

// Analyze runs the requested stages (plus dependencies) on req.Source and
// returns their live artifacts. Every call computes: the engine keeps no
// artifact across calls (AnalyzeReport caches finished Reports). A stage
// that panics is recovered and reported as a *StageError with Panicked
// set; the process is never taken down by a malformed program.
// Analyze waits for one of the engine's Workers slots before its first
// stage. Cancellation and deadlines on ctx (the request's timeout
// included) end that wait, and are observed at stage boundaries after it.
func (e *Engine) Analyze(ctx context.Context, req Request) (*Result, error) {
	e.metrics.requests.Add(1)
	stages := req.Stages
	if len(stages) == 0 {
		stages = AllStages()
	}
	plan, err := expandStages(stages)
	if err != nil {
		return nil, err
	}
	if !ValidSourceKind(req.Options.SourceKind) {
		return nil, fmt.Errorf("unknown source kind %q", req.Options.SourceKind)
	}
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = e.cfg.DefaultTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	select {
	case e.slots <- struct{}{}:
		defer func() { <-e.slots }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}

	res := &Result{
		src:    req.Source,
		Stages: make(map[Stage]StageInfo, len(plan)),
	}
	for _, st := range plan {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := e.runStage(st, req, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runStage computes one stage of one request and updates its metrics.
func (e *Engine) runStage(st Stage, req Request, res *Result) error {
	ab0, ao0 := heapAllocs()
	start := time.Now()
	v, err := e.computeStage(st, req, res)
	elapsed := time.Since(start)
	ab1, ao1 := heapAllocs()
	m := e.metrics.stage(st)
	m.runs.Add(1)
	m.nanos.Add(elapsed.Nanoseconds())
	m.allocBytes.Add(ab1 - ab0)
	m.allocObjs.Add(ao1 - ao0)
	if err != nil {
		m.errors.Add(1)
		if se, ok := err.(*StageError); ok && se.Panicked {
			m.panics.Add(1)
		}
		return err
	}
	res.install(st, v)
	res.Stages[st] = StageInfo{Duration: elapsed}
	return nil
}

// computeStage dispatches to the analysis packages with panic isolation.
func (e *Engine) computeStage(st Stage, req Request, res *Result) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &StageError{Stage: st, Panicked: true, Err: fmt.Errorf("%v", r)}
		}
	}()
	if e.cfg.StageHook != nil {
		e.cfg.StageHook(st, req.Source)
	}
	v, cerr := compute(st, req.Options, res)
	if cerr != nil {
		return nil, &StageError{Stage: st, Err: cerr}
	}
	if st == StageEPR {
		e.metrics.epr.note(v.(*EPRResult).Stats)
	}
	return v, nil
}

// compute produces the artifact of one stage from its (already installed)
// dependencies. It must not mutate anything reachable from res.
func compute(st Stage, opts Options, res *Result) (any, error) {
	switch st {
	case StageParse:
		switch opts.SourceKind {
		case KindSource:
			return parser.Parse(res.source())
		case KindBytecode:
			return bytecode.Assemble(res.source())
		}
		return nil, fmt.Errorf("unknown source kind %q", opts.SourceKind)
	case StageCFG:
		if res.Bytecode != nil {
			return bcfront.Recover(res.Bytecode)
		}
		return cfg.Build(res.Program)
	case StageRegions:
		return regions.Analyze(res.CFG)
	case StageCDG:
		return cdg.BuildFactoredWithClasses(res.CFG, res.Regions.ClassOf), nil
	case StageDFG:
		return dfg.BuildWithInfo(res.CFG, res.Regions)
	case StageSSA:
		out := &SSAResult{Base: ssa.Cytron(res.CFG), Derived: ssa.FromDFG(res.DFG)}
		if err := ssa.EquivalentOnUses(out.Base, out.Derived); err != nil {
			out.Mismatch = err.Error()
		} else {
			out.Equivalent = true
		}
		return out, nil
	case StageConstprop:
		copts := constprop.Options{Predicates: opts.Predicates}
		out := &ConstpropResult{
			CFG: constprop.CFGOpt(res.CFG, copts),
			DFG: constprop.DFGOpt(res.DFG, copts),
		}
		if err := constprop.Agree(out.CFG, out.DFG); err != nil {
			out.Mismatch = err.Error()
		} else {
			out.Agree = true
		}
		out.ConstUses = out.CFG.ConstUses()
		return out, nil
	case StageAnticip:
		// One batched fixpoint covers every candidate (bit k of each row is
		// candidate k's ANT/PAN).
		fam := anticip.NewFamily(res.CFG, epr.CandidateExprs(res.CFG))
		var cost dataflow.Counter
		ant, pan := fam.SolveDFG(res.DFG, &cost)
		out := &AnticipResult{Solution: &anticip.Solution{Family: fam, ANT: ant, PAN: pan}}
		for k, ex := range fam.Exprs {
			ea := ExprAnticip{Expr: ex.String()}
			for eid := 0; eid < res.CFG.NumEdges(); eid++ {
				if ant.Bit(eid, k) {
					ea.AntEdges++
				}
				if pan.Bit(eid, k) {
					ea.PanEdges++
				}
			}
			out.PerExpr = append(out.PerExpr, ea)
		}
		return out, nil
	case StageEPR:
		// PerExpr reports the first round's analyses, which the
		// transformation solves anyway before its first edit. They are
		// solved on the dfg stage's graph and take their candidates and
		// ANT/PAN rows from the anticip stage; EPR reads both and changes
		// neither: only an edit makes it build a DFG and a family of its
		// own.
		out := &EPRResult{}
		opt, st2, err := epr.ApplyObserved(res.CFG, res.DFG, res.Anticip.Solution, func(as []*epr.Analysis) {
			for _, a := range as {
				pe := EPRExpr{Expr: a.Expr.String(), Redundant: a.Redundant()}
				for _, eid := range a.Insert {
					pe.Insert = append(pe.Insert, int(eid))
				}
				for _, nid := range a.Delete {
					pe.Delete = append(pe.Delete, int(nid))
				}
				sort.Ints(pe.Insert)
				sort.Ints(pe.Delete)
				out.PerExpr = append(out.PerExpr, pe)
			}
		})
		if err != nil {
			return nil, err
		}
		out.Stats = st2
		out.Optimized = opt
		return out, nil
	case StageExec:
		// Check never mutates the graph, so the request's CFG is safe to
		// execute in place.
		return oracle.Check(res.CFG, oracle.Config{Inputs: opts.ExecInputs}), nil
	}
	return nil, fmt.Errorf("unknown stage %q", st)
}

// source recovers the request source for the parse stage.
func (r *Result) source() string { return r.src }

// install records a computed stage artifact on the result.
func (r *Result) install(st Stage, v any) {
	switch st {
	case StageParse:
		switch p := v.(type) {
		case *ast.Program:
			r.Program = p
		case *bytecode.Program:
			r.Bytecode = p
		}
	case StageCFG:
		switch g := v.(type) {
		case *cfg.Graph:
			r.CFG = g
		case *bcfront.Info:
			r.BCInfo = g
			r.CFG = g.CFG
		}
	case StageRegions:
		r.Regions = v.(*regions.Info)
	case StageCDG:
		r.CDG = v.(*cdg.Factored)
	case StageDFG:
		r.DFG = v.(*dfg.Graph)
	case StageSSA:
		r.SSA = v.(*SSAResult)
	case StageConstprop:
		r.Cprop = v.(*ConstpropResult)
	case StageAnticip:
		r.Anticip = v.(*AnticipResult)
	case StageEPR:
		r.EPR = v.(*EPRResult)
	case StageExec:
		r.Exec = v.(*oracle.Report)
	}
}
