package pipeline

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzEngineAnalyze feeds arbitrary sources through every stage of a shared
// engine. The contract under test: a malformed program fails its own
// request with an error — the parse stage in particular must never panic
// (panics from deeper stages are recovered by the engine and surface as
// *StageError, which is tolerated but counted) — and a program that
// analyzes gets equivalent SSA forms and agreeing constant propagations.
func FuzzEngineAnalyze(f *testing.F) {
	for _, seed := range []string{
		"",
		"read a; print a;",
		"x := 1; while (x < 3) { x := x + 1; } print x;",
		"read p;\nif (p > 0) { goto B; }\nlabel A:\nx := 1;\nlabel B:\nx := x + 1;\nif (x < p) { goto A; }\nprint x;",
		"if (", "goto nowhere;",
	} {
		f.Add(seed)
	}
	if files, err := filepath.Glob("../../examples/programs/*.dfg"); err == nil {
		for _, file := range files {
			if b, err := os.ReadFile(file); err == nil {
				f.Add(string(b))
			}
		}
	}
	eng := New(Config{})
	f.Fuzz(func(t *testing.T, src string) {
		res, err := eng.Analyze(context.Background(), Request{
			Source:  src,
			Timeout: 10 * time.Second,
		})
		if err != nil {
			var se *StageError
			if errors.As(err, &se) && se.Panicked && se.Stage == StageParse {
				t.Fatalf("parser panicked instead of returning an error: %v", se)
			}
			return
		}
		if res.CFG == nil || res.DFG == nil || res.SSA == nil || res.Cprop == nil {
			t.Fatal("successful analysis with missing artifacts")
		}
		// The two SSA constructions and the two constant propagations must
		// agree on every program that analyzes.
		if !res.SSA.Equivalent {
			t.Errorf("Cytron and DFG-derived SSA differ: %s", res.SSA.Mismatch)
		}
		if !res.Cprop.Agree {
			t.Errorf("CFG and DFG constant propagation disagree: %s", res.Cprop.Mismatch)
		}
	})
}
