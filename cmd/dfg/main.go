// Command dfg is the front door to the dependence-based program analysis
// toolkit: it parses a program in the analysis language, builds its control
// flow graph and dependence flow graph, and runs the paper's analyses and
// optimizations on it. All analyses route through the shared pipeline
// engine (internal/pipeline), the same code path cmd/dfg-bench and
// cmd/dfg-serve use.
//
// Usage:
//
//	dfg [flags] [file]
//
// With no file, the program is read from standard input.
//
// Modes (choose one; default is a summary):
//
//	-dot cfg|dfg    emit Graphviz for the CFG or DFG
//	-regions        print edge equivalence classes and the program structure tree
//	-chains         print def-use chains
//	-deps           print flow, anti, and output dependences (§6 extension)
//	-ssa            print SSA form (Cytron and DFG-derived, with equivalence check)
//	-cdg            print the factored control dependence graph: the classes
//	                from cycle equivalence, each with its dependence set
//	                from the postdominator baseline
//	-constprop      run constant propagation (CFG and DFG algorithms, compared)
//	-epr            run partial redundancy elimination
//	-run            interpret the program (inputs from -input)
//	-run-dfg        execute the program's DFG with the token-driven executor,
//	                cross-checked against the CFG interpreter (exit 1 with a
//	                diff on divergence)
//	-verify         check the DFG against Definition 6 and multiedge ordering
//	-verify-opt     differentially verify the optimizers via internal/xform:
//	                alone it checks every standard pipeline; combined with
//	                -constprop or -epr it checks that mode's pipelines before
//	                printing the optimized program. Exits non-zero with a
//	                minimized divergence report if a transformation is wrong.
//
// Bytecode frontend:
//
//	-bytecode        treat the input as stack bytecode — a binary container
//	                 (magic "DFGB") or assembly text — and recover its CFG by
//	                 abstract interpretation; every other mode then runs on
//	                 the recovered graph. Malformed bytecode and unresolvable
//	                 jumps print a one-line "offset: opcode: reason"
//	                 diagnostic and exit 1.
//	-emit-bytecode   compile the source program (or, with -bytecode, assemble
//	                 the text) and write the binary container to stdout
//
// Shared flags:
//
//	-input  comma-separated integers consumed by read statements (also added
//	        to the -verify-opt input sweep)
//	-pred   enable predicate analysis (x == c refinement) in -constprop
//
// Exit status is 0 on success, 1 on analysis errors (a parse error prints a
// one-line file:line:col diagnostic), and 2 on usage errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dfg/internal/bccompile"
	"dfg/internal/bcfront"
	"dfg/internal/bytecode"
	"dfg/internal/cdg"
	"dfg/internal/constprop"
	"dfg/internal/defuse"
	"dfg/internal/deps"
	"dfg/internal/interp"
	"dfg/internal/pipeline"
	"dfg/internal/xform"
)

var (
	flagDot       = flag.String("dot", "", "emit Graphviz: cfg or dfg")
	flagRegions   = flag.Bool("regions", false, "print edge classes and the program structure tree")
	flagChains    = flag.Bool("chains", false, "print def-use chains")
	flagDeps      = flag.Bool("deps", false, "print flow, anti, and output dependences")
	flagSSA       = flag.Bool("ssa", false, "print SSA form (both constructions)")
	flagCDG       = flag.Bool("cdg", false, "print the factored control dependence graph")
	flagConstprop = flag.Bool("constprop", false, "run constant propagation and print the optimized graph")
	flagEPR       = flag.Bool("epr", false, "run partial redundancy elimination and print the optimized graph")
	flagRun       = flag.Bool("run", false, "interpret the program")
	flagRunDFG    = flag.Bool("run-dfg", false, "execute the DFG, cross-checked against the interpreter")
	flagVerify    = flag.Bool("verify", false, "verify the DFG against Definition 6")
	flagVerifyOpt = flag.Bool("verify-opt", false, "differentially verify the optimizers (with -constprop/-epr: that mode's pipeline; alone: all pipelines)")
	flagBytecode  = flag.Bool("bytecode", false, "treat input as bytecode (binary container or assembly text)")
	flagEmitBC    = flag.Bool("emit-bytecode", false, "compile (or assemble) the input and write a bytecode container to stdout")
	flagInput     = flag.String("input", "", "comma-separated integers for read statements")
	flagPred      = flag.Bool("pred", false, "enable predicate analysis in -constprop")
)

// options captures one invocation's mode and parameters, decoupled from
// global flags so tests can drive the tool in-process.
type options struct {
	dot       string
	regions   bool
	chains    bool
	deps      bool
	ssa       bool
	cdg       bool
	constprop bool
	epr       bool
	run       bool
	runDFG    bool
	verify    bool
	verifyOpt bool
	bytecode  bool
	emitBC    bool
	inputs    []int64
	pred      bool
}

// eng is the process-wide analysis engine. Sharing it keeps the CLI on the
// same code path as dfg-serve and dfg-bench.
var eng = pipeline.New(pipeline.Config{})

func main() {
	flag.Parse()
	opts := options{
		dot:       *flagDot,
		regions:   *flagRegions,
		chains:    *flagChains,
		deps:      *flagDeps,
		ssa:       *flagSSA,
		cdg:       *flagCDG,
		constprop: *flagConstprop,
		epr:       *flagEPR,
		run:       *flagRun,
		runDFG:    *flagRunDFG,
		verify:    *flagVerify,
		verifyOpt: *flagVerifyOpt,
		bytecode:  *flagBytecode,
		emitBC:    *flagEmitBC,
		inputs:    parseInputs(*flagInput),
		pred:      *flagPred,
	}
	os.Exit(realMain(opts, flag.Args(), os.Stdin, os.Stdout, os.Stderr))
}

// realMain is main minus globals: it returns the exit code instead of
// calling os.Exit, so tests can cover the failure paths.
func realMain(opts options, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	src, name, err := readSource(args, stdin)
	if err != nil {
		fmt.Fprintln(stderr, "dfg:", err)
		return 2
	}
	if err := runTool(opts, src, stdout); err != nil {
		fmt.Fprintln(stderr, diagnose(name, err))
		return 1
	}
	return 0
}

// diagnose renders err as a single diagnostic line. Parse errors become
// "dfg: file:line:col: message" (plus a count of any further errors); other
// errors keep their first line.
func diagnose(name string, err error) string {
	// Bytecode-frontend failures carry an offset-addressed one-liner:
	// "offset: opcode: reason" for decode/run traps and unresolvable jumps,
	// "file:line: reason" for assembler errors.
	var be *bytecode.Error
	if errors.As(err, &be) {
		return "dfg: " + be.Diagnostic()
	}
	var re *bcfront.RecoverError
	if errors.As(err, &re) {
		return "dfg: " + re.Diagnostic()
	}
	var ae *bytecode.AsmError
	if errors.As(err, &ae) {
		return fmt.Sprintf("dfg: %s:%d: %s", name, ae.Line, ae.Reason)
	}
	msg := err.Error()
	var se *pipeline.StageError
	prefix := ""
	if errors.As(err, &se) && se.Stage == pipeline.StageParse && !se.Panicked {
		msg = se.Err.Error()
		prefix = name + ":"
	}
	lines := strings.Split(msg, "\n")
	out := "dfg: " + prefix + lines[0]
	if extra := len(lines) - 1; extra > 0 {
		out += fmt.Sprintf(" (and %d more error(s))", extra)
	}
	return out
}

// runTool executes one tool invocation, writing human-readable output to w.
func runTool(opts options, src []byte, w io.Writer) error {
	source := string(src)
	kind := pipeline.KindSource
	if opts.bytecode {
		kind = pipeline.KindBytecode
		if bytecode.IsBinary(src) {
			// The pipeline speaks assembly text; binary containers are
			// disassembled at this edge (and on the serving edge), so cache
			// keys and wire items stay printable.
			p, err := bytecode.DecodeBinary(src)
			if err != nil {
				return err
			}
			asm, err := bytecode.Disassemble(p)
			if err != nil {
				return err
			}
			source = asm
		}
	}
	analyze := func(stages ...pipeline.Stage) (*pipeline.Result, error) {
		return eng.Analyze(context.Background(), pipeline.Request{
			Source:  source,
			Stages:  stages,
			Options: pipeline.Options{Predicates: opts.pred, SourceKind: kind, ExecInputs: opts.inputs},
		})
	}

	if opts.emitBC {
		res, err := analyze(pipeline.StageParse)
		if err != nil {
			return err
		}
		bc := res.Bytecode
		if bc == nil {
			if bc, err = bccompile.Compile(res.Program); err != nil {
				return err
			}
		}
		_, err = w.Write(bc.EncodeBinary())
		return err
	}

	// verifyOpt cross-checks the named optimizer pipelines through the
	// transformation oracle; the returned error carries the minimized
	// divergence report, so the caller's non-zero exit is actionable.
	xcfg := xform.Config{}
	if len(opts.inputs) > 0 {
		xcfg.Inputs = append([][]int64{opts.inputs}, xform.DefaultInputs()...)
	}
	verifyOpt := func(names ...string) error {
		res, err := analyze(pipeline.StageCFG)
		if err != nil {
			return err
		}
		for _, name := range names {
			p, ok := xform.PipelineByName(name)
			if !ok {
				return fmt.Errorf("verify-opt: unknown pipeline %q", name)
			}
			if rep := xform.Check(res.CFG, p, xcfg); !rep.OK {
				return fmt.Errorf("verify-opt: pipeline %s diverged:\n%s", name, xform.Diagnose(string(src), p, xcfg))
			}
			fmt.Fprintf(w, "verify-opt %s: ok\n", name)
		}
		return nil
	}

	switch {
	case opts.dot == "cfg":
		res, err := analyze(pipeline.StageCFG)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.CFG.DOT("cfg", false))
		return nil
	case opts.dot == "dfg":
		res, err := analyze(pipeline.StageDFG)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.DFG.DOT("dfg"))
		return nil
	case opts.dot != "":
		return fmt.Errorf("unknown -dot target %q (want cfg or dfg)", opts.dot)

	case opts.regions:
		res, err := analyze(pipeline.StageRegions)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Regions)
		return nil

	case opts.chains:
		res, err := analyze(pipeline.StageCFG)
		if err != nil {
			return err
		}
		fmt.Fprint(w, defuse.Compute(res.CFG))
		return nil

	case opts.deps:
		res, err := analyze(pipeline.StageCFG)
		if err != nil {
			return err
		}
		fmt.Fprint(w, deps.Compute(res.CFG))
		return nil

	case opts.ssa:
		res, err := analyze(pipeline.StageSSA)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Cytron (minimal SSA) ==")
		fmt.Fprint(w, res.SSA.Base)
		fmt.Fprintln(w, "== DFG-derived (pruned SSA) ==")
		fmt.Fprint(w, res.SSA.Derived)
		if !res.SSA.Equivalent {
			return fmt.Errorf("forms disagree: %s", res.SSA.Mismatch)
		}
		fmt.Fprintln(w, "equivalent on all uses: yes")
		return nil

	case opts.cdg:
		res, err := analyze(pipeline.StageCDG)
		if err != nil {
			return err
		}
		// The stage serves the partition; the per-class dependence sets
		// printed beside it come from the postdominator baseline.
		fmt.Fprint(w, res.CDG.Format(cdg.ClassDeps(res.CFG, res.CDG, cdg.BuildFOW(res.CFG))))
		return nil

	case opts.constprop:
		if opts.verifyOpt {
			name := "constprop"
			if opts.pred {
				name = "constprop-pred"
			}
			if err := verifyOpt(name); err != nil {
				return err
			}
		}
		res, err := analyze(pipeline.StageConstprop)
		if err != nil {
			return err
		}
		cp := res.Cprop
		if !cp.Agree {
			fmt.Fprintf(w, "DISAGREEMENT: %s\n", cp.Mismatch)
		}
		fmt.Fprintf(w, "constant uses: %d (CFG algorithm cost %v; DFG algorithm cost %v; agree: %v)\n",
			cp.ConstUses, cp.CFG.Cost, cp.DFG.Cost, cp.Agree)
		opt, err := constprop.Apply(cp.CFG)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== optimized ==")
		fmt.Fprint(w, opt)
		return nil

	case opts.epr:
		if opts.verifyOpt {
			if err := verifyOpt("epr-cfg", "epr-dfg", "epr-lazy"); err != nil {
				return err
			}
		}
		res, err := analyze(pipeline.StageEPR)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "epr: %v\n== optimized ==\n", res.EPR.Stats)
		fmt.Fprint(w, res.EPR.Optimized)
		return nil

	case opts.run:
		res, err := analyze(pipeline.StageCFG)
		if err != nil {
			return err
		}
		ir, err := interp.Run(res.CFG, opts.inputs, 0)
		if err != nil {
			return err
		}
		for _, v := range ir.Output {
			fmt.Fprintln(w, v)
		}
		fmt.Fprintf(os.Stderr, "steps=%d binops=%d reads=%d\n", ir.Steps, ir.BinOps, ir.Reads)
		return nil

	case opts.runDFG:
		res, err := analyze(pipeline.StageExec)
		if err != nil {
			return err
		}
		rep := res.Exec
		if !rep.Agree {
			return fmt.Errorf("DFG execution diverges from the CFG interpreter:\n%s", rep.Diff())
		}
		if rep.CFGErr != "" {
			return fmt.Errorf("execution failed (interpreter and executor agree): %s", rep.CFGErr)
		}
		// Agreement proven; print the executor's output (identical to the
		// interpreter's) and per-granularity firing stats.
		for _, v := range rep.CFGOutput {
			fmt.Fprintln(w, v)
		}
		for _, run := range rep.Runs {
			fmt.Fprintf(os.Stderr, "dfg(%s): firings=%d stuck=%d\n", run.Gran, run.Firings, run.Stuck)
		}
		fmt.Fprintf(os.Stderr, "agree with interpreter: binops=%d reads=%d\n", rep.BinOps, rep.Reads)
		return nil

	case opts.verifyOpt:
		// Standalone: check every standard pipeline and summarize.
		reps, err := xform.CheckSource(string(src), xcfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, xform.Summary(reps))
		for _, rep := range reps {
			if !rep.OK {
				p, _ := xform.PipelineByName(rep.Pipeline)
				return fmt.Errorf("verify-opt: pipeline %s diverged:\n%s", rep.Pipeline, xform.Diagnose(string(src), p, xcfg))
			}
		}
		return nil

	case opts.verify:
		res, err := analyze(pipeline.StageDFG)
		if err != nil {
			return err
		}
		if err := res.DFG.VerifyDefinition6(); err != nil {
			return err
		}
		if err := res.DFG.VerifyMultiedgeOrder(); err != nil {
			return err
		}
		st := res.DFG.ComputeStats()
		fmt.Fprintf(w, "ok: %d dependences across %d multiedges satisfy Definition 6\n", st.Dependences, st.Multiedges)
		return nil
	}

	// Default summary.
	res, err := analyze(pipeline.StageRegions, pipeline.StageDFG)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== CFG ==")
	fmt.Fprint(w, res.CFG)
	fmt.Fprintf(w, "== regions: %d classes, %d canonical SESE regions ==\n",
		res.Regions.NumClasses, len(res.Regions.Regions))
	st := res.DFG.ComputeStats()
	fmt.Fprintf(w, "== DFG: %d operators (%d merges, %d switches), %d dependences, %d dead links removed ==\n",
		st.Ops, st.Merges, st.Switches, st.Dependences, st.DeadRemoved)
	fmt.Fprint(w, res.DFG)
	return nil
}

func readSource(args []string, stdin io.Reader) (src []byte, name string, err error) {
	if len(args) > 1 {
		return nil, "", fmt.Errorf("at most one input file expected")
	}
	if len(args) == 1 {
		b, err := os.ReadFile(args[0])
		return b, args[0], err
	}
	b, err := io.ReadAll(stdin)
	return b, "<stdin>", err
}

func parseInputs(s string) []int64 {
	if s == "" {
		return nil
	}
	var out []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dfg: bad -input element %q ignored\n", part)
			continue
		}
		out = append(out, v)
	}
	return out
}
