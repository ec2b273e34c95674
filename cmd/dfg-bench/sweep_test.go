package main

import (
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
		rec := &sweepRecord{ParityBatchRatio: tc.ratio, BatchCold: tc.points, Gates: map[string]string{}}
		evalGates(rec, tc.numCPU)
		if len(rec.Gates) != 2 {
			t.Errorf("%s: gates %v, want exactly batch-parity and batch-scaling", tc.name, rec.Gates)
		}
		if got := rec.Gates["batch-parity"]; !strings.HasPrefix(got, tc.parity) {
			t.Errorf("%s: batch-parity = %q, want prefix %q", tc.name, got, tc.parity)
		}
		if got := rec.Gates["batch-scaling"]; !strings.HasPrefix(got, tc.scaling) {
			t.Errorf("%s: batch-scaling = %q, want prefix %q", tc.name, got, tc.scaling)
		}
	}
}
