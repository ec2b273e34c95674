package xform

import (
	"fmt"
	"testing"

	"dfg/internal/cfg"
	"dfg/internal/epr"
	"dfg/internal/lang/ast"
	"dfg/internal/workload"
)

// sweepProgram is one generated program with its provenance.
type sweepProgram struct {
	name string
	prog *ast.Program
}

// sweepPrograms returns the deterministic corpus for the transformation
// sweep: mixed structured programs, goto-heavy unstructured programs,
// switch chains, and planted partial redundancies — the only family on
// which EPR reliably edits, since it transforms only for a strict saving.
// Sizes are kept modest so the full sweep (programs × pipelines × input
// vectors) stays inside the CI budget.
func sweepPrograms(short bool) []sweepProgram {
	var out []sweepProgram
	mixed, gotos, wide, planted := 60, 20, 15, 25
	if short {
		mixed, gotos, wide, planted = 12, 5, 4, 6
	}
	for seed := 0; seed < mixed; seed++ {
		out = append(out, sweepProgram{
			name: fmt.Sprintf("Mixed(12,%d)", seed),
			prog: workload.Mixed(12, int64(seed)),
		})
	}
	for seed := 0; seed < gotos; seed++ {
		out = append(out, sweepProgram{
			name: fmt.Sprintf("GotoMess(6,%d)", seed),
			prog: workload.GotoMess(6, int64(seed)),
		})
	}
	for seed := 0; seed < wide; seed++ {
		out = append(out, sweepProgram{
			name: fmt.Sprintf("WideSwitch(8,4,%d)", seed),
			prog: workload.WideSwitch(8, 4, int64(seed)),
		})
	}
	for seed := 0; seed < planted; seed++ {
		out = append(out, sweepProgram{
			name: fmt.Sprintf("Redundant(6,%d)", seed),
			prog: workload.Redundant(6, int64(seed)),
		})
	}
	return out
}

// minSweepEPREdits is the floor on EPR edits (accepted candidates, each one
// in-place dfg.PatchEPR under DriverDFG) across the full sweep corpus.
const minSweepEPREdits = 200

// TestTransformSweep is the acceptance sweep: every program × pipeline pair
// must pass output/read/termination equivalence and the metamorphic
// invariants on the default input sweep. In full mode it covers ≥500 pairs
// (120 programs × 7 pipelines) and at least minSweepEPREdits EPR edits;
// -short runs a smaller subset.
func TestTransformSweep(t *testing.T) {
	progs := sweepPrograms(testing.Short())
	pipes := Pipelines()
	pairs, eprEdits := 0, 0
	for _, sp := range progs {
		g, err := cfg.Build(sp.prog)
		if err != nil {
			t.Fatalf("%s: cfg build: %v", sp.name, err)
		}
		_, st, err := epr.ApplyPlaced(g, epr.DriverDFG, epr.PlaceBusy)
		if err != nil {
			t.Fatalf("%s: epr: %v", sp.name, err)
		}
		eprEdits += st.DFGPatches
		for _, p := range pipes {
			pairs++
			rep := Check(g, p, Config{})
			if !rep.OK {
				t.Errorf("%s × %s diverged:\n%s", sp.name, p.Name, Diagnose(sp.prog.String(), p, Config{}))
			}
		}
	}
	if !testing.Short() && pairs < 500 {
		t.Fatalf("sweep covered only %d program × pipeline pairs, want >= 500", pairs)
	}
	if !testing.Short() && eprEdits < minSweepEPREdits {
		t.Fatalf("sweep drove only %d EPR edits, want >= %d: the oracle is not exercising the transformation", eprEdits, minSweepEPREdits)
	}
	t.Logf("sweep: %d program × pipeline pairs, %d EPR edits", pairs, eprEdits)
}
