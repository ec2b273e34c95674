package pipeline

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"dfg/internal/bccompile"
	"dfg/internal/bytecode"
	"dfg/internal/lang/parser"
)

// bytecodeAsm compiles sampleSrc and renders it as assembly text — the form
// a KindBytecode request carries.
func bytecodeAsm(t *testing.T) string {
	t.Helper()
	prog, err := parser.Parse(sampleSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	bc, err := bccompile.Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	asm, err := bytecode.Disassemble(bc)
	if err != nil {
		t.Fatalf("disassemble: %v", err)
	}
	return asm
}

func TestAnalyzeBytecodeKind(t *testing.T) {
	e := New(Config{})
	res := mustAnalyze(t, e, Request{
		Source:  bytecodeAsm(t),
		Options: Options{SourceKind: KindBytecode, ExecInputs: []int64{5}},
	})
	if res.Bytecode == nil || res.BCInfo == nil {
		t.Fatal("bytecode artifacts missing on a KindBytecode request")
	}
	if res.Program != nil {
		t.Fatal("bytecode requests have no AST; recovery emits the CFG directly")
	}
	if res.CFG == nil || res.DFG == nil || res.SSA == nil || res.EPR == nil {
		t.Fatalf("missing downstream artifacts: %+v", res)
	}
	if !res.SSA.Equivalent {
		t.Errorf("SSA forms disagree on recovered CFG: %s", res.SSA.Mismatch)
	}
	rep := res.Report()
	if rep.Bytecode == nil {
		t.Fatal("Report.Bytecode missing")
	}
	if rep.Bytecode.Instrs == 0 || rep.Bytecode.Blocks == 0 || rep.Bytecode.CodeBytes == 0 {
		t.Errorf("implausible bytecode report: %+v", rep.Bytecode)
	}
	if rep.Bytecode.Reached > rep.Bytecode.Instrs {
		t.Errorf("reached %d > instrs %d", rep.Bytecode.Reached, rep.Bytecode.Instrs)
	}
}

func TestAnalyzeBytecodeExecAgrees(t *testing.T) {
	e := New(Config{})
	res := mustAnalyze(t, e, Request{
		Source:  bytecodeAsm(t),
		Stages:  []Stage{StageExec},
		Options: Options{SourceKind: KindBytecode, ExecInputs: []int64{5}},
	})
	if res.Exec == nil {
		t.Fatal("exec report missing")
	}
	if !res.Exec.Agree {
		t.Fatalf("CFG interpreter and DFG executor disagree on recovered program: %+v", res.Exec)
	}
}

func TestAnalyzeSourceReportHasNoBytecodeSection(t *testing.T) {
	e := New(Config{})
	res := mustAnalyze(t, e, Request{Source: sampleSrc})
	if res.Bytecode != nil || res.BCInfo != nil {
		t.Fatal("source-kind request must not carry bytecode artifacts")
	}
	if rep := res.Report(); rep.Bytecode != nil {
		t.Fatal("source-kind Report must omit the bytecode section")
	}
}

func TestAnalyzeUnknownSourceKind(t *testing.T) {
	e := New(Config{})
	_, err := e.Analyze(context.Background(), Request{
		Source:  "print 1;",
		Options: Options{SourceKind: SourceKind("wasm")},
	})
	if err == nil || !strings.Contains(err.Error(), "unknown source kind") {
		t.Fatalf("want unknown-source-kind error, got %v", err)
	}
}

func TestAnalyzeBytecodeAssemblyErrorIsStageError(t *testing.T) {
	e := New(Config{})
	_, err := e.Analyze(context.Background(), Request{
		Source:  "pushi nope\n",
		Options: Options{SourceKind: KindBytecode},
	})
	if err == nil {
		t.Fatal("malformed assembly must fail the parse stage")
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != StageParse {
		t.Fatalf("want StageError{parse}, got %v", err)
	}
}

func TestReportKeySeparatesSourceKinds(t *testing.T) {
	src := "print 1;"
	k1, err := ReportKey(src, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := ReportKey(src, Options{SourceKind: KindBytecode}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatalf("cache keys must separate source kinds: %q", k1)
	}
}

// TestAnalyzeBytecodeCachesByKind: a repeated bytecode request is answered
// from the report LRU with the computed bytes.
func TestAnalyzeBytecodeCachesByKind(t *testing.T) {
	e := New(Config{})
	req := Request{Source: bytecodeAsm(t), Options: Options{SourceKind: KindBytecode}}
	first := mustReport(t, e, req)
	second := mustReport(t, e, req)
	if first.Tier != TierCompute || second.Tier != TierLRU {
		t.Fatalf("tiers = %s, %s; want compute, lru", first.Tier, second.Tier)
	}
	if !bytes.Equal(first.Raw, second.Raw) {
		t.Fatal("cached bytecode report diverged from the computed one")
	}
}
