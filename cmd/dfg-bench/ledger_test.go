package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEvalGates pins the sweep's two gate verdicts: batch-parity against
// the 103% ceiling, and batch-scaling, which needs a p>1 point faster than
// p=1 on a multi-core host and reads SKIP on a single-core one.
func TestEvalGates(t *testing.T) {
	slowerAt2 := []sweepPoint{{GOMAXPROCS: 1, NSPerOp: 80e6, Speedup: 1}, {GOMAXPROCS: 2, NSPerOp: 120e6, Speedup: 0.667}}
	fasterAt2 := []sweepPoint{{GOMAXPROCS: 1, NSPerOp: 80e6, Speedup: 1}, {GOMAXPROCS: 2, NSPerOp: 50e6, Speedup: 1.6}}
	for _, tc := range []struct {
		name            string
		ratio           float64
		points          []sweepPoint
		numCPU          int
		parity, scaling string
	}{
		{"parity within gate", 1.02, fasterAt2, 2, "PASS (parallel entry at GOMAXPROCS=1 is 102.0%", "PASS (1.60x at GOMAXPROCS=2)"},
		{"parity over gate", 1.04, fasterAt2, 2, "FAIL (parallel entry at GOMAXPROCS=1 is 104.0%", "PASS"},
		{"p=1 best", 1.0, slowerAt2, 2, "PASS", "FAIL (no p>1 point beat p=1: best 80.0ms at p=1)"},
		{"single core", 1.0, slowerAt2[:1], 1, "PASS", "SKIP"},
	} {
		s := &parallelSection{ParityBatchRatio: tc.ratio, BatchCold: tc.points, Gates: map[string]string{}}
		evalGates(s, tc.numCPU)
		if len(s.Gates) != 2 {
			t.Errorf("%s: gates %v, want exactly batch-parity and batch-scaling", tc.name, s.Gates)
		}
		if got := s.Gates["batch-parity"]; !strings.HasPrefix(got, tc.parity) {
			t.Errorf("%s: batch-parity = %q, want prefix %q", tc.name, got, tc.parity)
		}
		if got := s.Gates["batch-scaling"]; !strings.HasPrefix(got, tc.scaling) {
			t.Errorf("%s: batch-scaling = %q, want prefix %q", tc.name, got, tc.scaling)
		}
	}
}

// TestLedgerSchema writes a one-repeat ledger and checks the fields CI's
// ledger smoke reads. Gate verdicts are timing-dependent and left to CI;
// only their presence is checked here.
func TestLedgerSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	if _, err := runLedger(path, 1); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var l struct {
		Environment struct {
			NumCPU int `json:"num_cpu"`
		} `json:"environment"`
		Stages struct {
			Stages map[string]int64 `json:"stage_cold_ns_per_op_10_programs"`
			Sizes  map[string]any   `json:"sizes"`
		} `json:"stages"`
		Bytecode struct {
			Programs          int   `json:"programs"`
			Instrs            int   `json:"instrs"`
			Blocks            int   `json:"blocks"`
			CompileNS         int64 `json:"compile_ns_per_corpus_pass"`
			RecoverNS         int64 `json:"recover_ns_per_corpus_pass"`
			AnalyzeBytecodeNS int64 `json:"analyze_bytecode_ns_per_corpus_pass"`
			AnalyzeSourceNS   int64 `json:"analyze_source_ns_per_corpus_pass"`
		} `json:"bytecode"`
		Parallel struct {
			BatchCold []sweepPoint      `json:"batch_cold"`
			Gates     map[string]string `json:"gates"`
		} `json:"parallel"`
	}
	if err := json.Unmarshal(b, &l); err != nil {
		t.Fatal(err)
	}
	if l.Environment.NumCPU < 1 {
		t.Errorf("environment.num_cpu = %d", l.Environment.NumCPU)
	}
	if len(l.Stages.Stages) == 0 || l.Stages.Stages["dfg"] <= 0 {
		t.Errorf("stages: per-stage times %v, want a positive dfg entry", l.Stages.Stages)
	}
	for _, k := range []string{"cfg_edges", "cfg_vars", "dfg_dependences", "constprop_cfg_cost", "constprop_dfg_cost"} {
		if _, ok := l.Stages.Sizes[k]; !ok {
			t.Errorf("stages.sizes lacks %s: %v", k, l.Stages.Sizes)
		}
	}
	bc := l.Bytecode
	if bc.Programs < 10 || bc.Instrs <= 0 || bc.Blocks <= 0 {
		t.Errorf("bytecode: programs=%d instrs=%d blocks=%d, want >=10 and >0", bc.Programs, bc.Instrs, bc.Blocks)
	}
	for name, ns := range map[string]int64{
		"compile":          bc.CompileNS,
		"recover":          bc.RecoverNS,
		"analyze_bytecode": bc.AnalyzeBytecodeNS,
		"analyze_source":   bc.AnalyzeSourceNS,
	} {
		if ns <= 0 {
			t.Errorf("bytecode: %s ns = %d, want > 0", name, ns)
		}
	}
	if len(l.Parallel.BatchCold) == 0 {
		t.Error("parallel.batch_cold is empty")
	}
	for _, name := range []string{"batch-parity", "batch-scaling"} {
		if l.Parallel.Gates[name] == "" {
			t.Errorf("parallel.gates lacks %s: %v", name, l.Parallel.Gates)
		}
	}
}
