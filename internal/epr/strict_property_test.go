package epr

import (
	"fmt"
	"testing"

	"dfg/internal/anticip"
	"dfg/internal/cfg"
	"dfg/internal/dataflow"
	"dfg/internal/dfg"
	"dfg/internal/interp"
	"dfg/internal/lang/ast"
	"dfg/internal/workload"
)

type sweepCase struct {
	name string
	prog *ast.Program
}

// strictCorpus is the property-test corpus: the random Mixed family (whose
// loops once made EPR churn to the round cap), the loop, irreducible and
// breadth-heavy scaling families, and planted genuine redundancies.
func strictCorpus(short bool) []sweepCase {
	mixed, planted := 40, 24
	if short {
		mixed, planted = 10, 8
	}
	var out []sweepCase
	for seed := int64(0); seed < int64(mixed); seed++ {
		out = append(out, sweepCase{fmt.Sprintf("Mixed(15,%d)", seed), workload.Mixed(15, seed)})
	}
	for seed := int64(0); seed < int64(planted); seed++ {
		out = append(out, sweepCase{fmt.Sprintf("Redundant(6,%d)", seed), workload.Redundant(6, seed)})
	}
	for seed := int64(0); seed < 3; seed++ {
		out = append(out,
			sweepCase{fmt.Sprintf("LoopNest(3,3,%d)", seed), workload.LoopNest(3, 3, seed)},
			sweepCase{fmt.Sprintf("Irreducible(6,%d)", seed), workload.Irreducible(6, seed)},
			sweepCase{fmt.Sprintf("Wide(40,%d)", seed), workload.Wide(40, seed)})
	}
	return out
}

// totalEvals sums a counting run's per-expression evaluation counts.
func totalEvals(r *interp.Result) int {
	n := 0
	for _, c := range r.ExprEvals {
		n += c
	}
	return n
}

// TestEPRStrictSavingProperties pins what the strict-saving gate of
// Redundant guarantees, for both placements and both drivers:
//
//   - idempotence: EPR applied to its own output makes no edit, so the
//     transformation has converged rather than moving code around;
//   - never costlier: on every input, the transformed program evaluates no
//     more operator subexpressions in total than the original;
//   - equivalence: the outputs match.
//
// It also checks that the corpus exercises real edits, so the properties
// are not vacuous.
func TestEPRStrictSavingProperties(t *testing.T) {
	inputs := [][]int64{nil, {1, 2, 3, 4, 5}, {-7, 0, 13, 2, 8}, {6, 6, 6, 6}, {9, -3, 1}}
	edits := 0
	for _, sc := range strictCorpus(testing.Short()) {
		g, err := cfg.Build(sc.prog)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		for _, placement := range []Placement{PlaceBusy, PlaceLazy} {
			for _, driver := range []Driver{DriverCFG, DriverDFG} {
				label := fmt.Sprintf("%s/%v/driver%d", sc.name, placement, driver)
				opt, st, err := ApplyPlaced(g, driver, placement)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !st.Converged {
					t.Errorf("%s: hit the round cap: %v", label, st)
				}
				edits += st.Replaced
				again, st2, err := ApplyPlaced(opt, driver, placement)
				if err != nil {
					t.Fatalf("%s: re-apply: %v", label, err)
				}
				if st2.Inserted != 0 || st2.Replaced != 0 || st2.Rounds != 1 {
					t.Errorf("%s: EPR is not idempotent: re-applying edits again (%v)\nfirst output:\n%s\nsecond output:\n%s",
						label, st2, opt, again)
				}
				for _, in := range inputs {
					a, errA := interp.RunCounting(g, in, 500000)
					b, errB := interp.RunCounting(opt, in, 500000)
					if (errA == nil) != (errB == nil) {
						t.Errorf("%s on %v: termination differs: %v vs %v", label, in, errA, errB)
						continue
					}
					if errA != nil {
						continue
					}
					if !interp.SameOutput(a, b) {
						t.Errorf("%s on %v: outputs differ: %v vs %v", label, in, a.Outputs(), b.Outputs())
					}
					if ea, eb := totalEvals(a), totalEvals(b); eb > ea {
						t.Errorf("%s on %v: transformed program evaluates more (%d > %d)\n%s", label, in, eb, ea, opt)
					}
				}
			}
		}
	}
	if edits == 0 {
		t.Fatal("no EPR edit across the corpus: the properties are vacuous")
	}
}

// TestLoopMotionWithoutSavingRejected is the regression for the churn the
// strict gate removed: in a zero-trip while loop, a loop-invariant
// computation is partially available at its own input only through the
// previous iteration, and its earliest down-safe edge is the body's entry.
// Moving it there saves nothing, so EPR must converge in one round with no
// edit — not re-hoist its own temporary every round until the cap.
func TestLoopMotionWithoutSavingRejected(t *testing.T) {
	g := build(t, `
		read v3; read n;
		c := 0;
		while (c < n) { c := c + 1; x := v3 * 15; }
		print x;`)
	for _, placement := range []Placement{PlaceBusy, PlaceLazy} {
		for _, driver := range []Driver{DriverCFG, DriverDFG} {
			opt, st, err := ApplyPlaced(g, driver, placement)
			if err != nil {
				t.Fatal(err)
			}
			if st.Inserted != 0 || st.Replaced != 0 || st.Rounds != 1 || !st.Converged {
				t.Errorf("%v/driver%d: pure code motion accepted: %v\n%s", placement, driver, st, opt)
			}
		}
	}
	a, err := AnalyzeExpr(g, expr(t, "v3 * 15"), DriverCFG, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Delete) == 0 || a.Redundant() {
		t.Errorf("want a deletion the gate rejects, got Delete=%v Redundant=%t\n%s", a.Delete, a.Redundant(), a)
	}
}

// TestApplyObservedMatchesAnalyzeBatch: the first-round analyses handed to
// ApplyObserved's callback are the ones a separate AnalyzeBatch solve
// returns for the input graph, whether the round is solved on a private
// DFG, on one the caller passes in, or from an ANT/PAN solution the caller
// passes in with it; observing changes nothing about the transformation,
// and the passed-in DFG and solution come back unmodified.
func TestApplyObservedMatchesAnalyzeBatch(t *testing.T) {
	for _, sc := range strictCorpus(true) {
		g, err := cfg.Build(sc.prog)
		if err != nil {
			t.Fatal(err)
		}
		b, err := AnalyzeBatch(g, CandidateExprs(g), DriverDFG, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for k := 0; k < b.Len(); k++ {
			a := b.Analysis(k)
			want = append(want, fmt.Sprintf("%s redundant=%t", a, a.Redundant()))
		}
		plain, plainSt, err := ApplyPlaced(g, DriverDFG, PlaceBusy)
		if err != nil {
			t.Fatal(err)
		}
		shared := dfg.MustBuild(g)
		before := shared.String()
		fam := anticip.NewFamily(g, CandidateExprs(g))
		var cost dataflow.Counter
		ant, pan := fam.SolveDFG(shared, &cost)
		pre := &anticip.Solution{Family: fam, ANT: ant, PAN: pan}
		preBefore := solutionWords(pre)
		for _, in := range []struct {
			d   *dfg.Graph
			pre *anticip.Solution
		}{{nil, nil}, {shared, nil}, {shared, pre}} {
			label := fmt.Sprintf("%s (passed-in DFG %t, solution %t)", sc.name, in.d != nil, in.pre != nil)
			var got []string
			opt, st, err := ApplyObserved(g, in.d, in.pre, func(as []*Analysis) {
				for _, a := range as {
					got = append(got, fmt.Sprintf("%s redundant=%t", a, a.Redundant()))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: observed analyses differ from AnalyzeBatch:\n%v\nvs\n%v", label, got, want)
			}
			if opt.String() != plain.String() {
				t.Fatalf("%s: observing changed the transformation", label)
			}
			if in.d == nil {
				if st != plainSt {
					t.Fatalf("%s: observing changed the stats: %v vs %v", label, st, plainSt)
				}
				continue
			}
			// The passed-in graph saves exactly one DFG construction: the
			// initial build when nothing is edited, else the first patch
			// (the first edit builds the private graph instead).
			work, plainWork := st.DFGRebuilds+st.DFGPatches, plainSt.DFGRebuilds+plainSt.DFGPatches
			st.DFGRebuilds, st.DFGPatches = plainSt.DFGRebuilds, plainSt.DFGPatches
			if st != plainSt || work != plainWork-1 {
				t.Fatalf("%s: stats %v, want %v with one DFG construction fewer", label, st, plainSt)
			}
			if after := shared.String(); after != before {
				t.Fatalf("%s: ApplyObserved modified the passed-in DFG:\n%s\nvs\n%s", label, after, before)
			}
			if after := solutionWords(pre); after != preBefore {
				t.Fatalf("%s: ApplyObserved modified the passed-in solution", label)
			}
		}
	}
}

// solutionWords renders a solution's transfer and result rows.
func solutionWords(s *anticip.Solution) string {
	return fmt.Sprint(s.Family.Comp.W, s.Family.Kill.W, s.ANT.W, s.PAN.W)
}

// TestApplyObservedRejectsForeignDFG: a DFG or an ANT/PAN solution built
// over another graph is refused rather than silently solved against, and so
// is a solution without the DFG it was solved on.
func TestApplyObservedRejectsForeignDFG(t *testing.T) {
	g, err := cfg.Build(workload.NestedSum(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ApplyObserved(g, dfg.MustBuild(Clone(g)), nil, nil); err == nil {
		t.Fatal("want an error for a DFG of a different graph")
	}
	other := Clone(g)
	var cost dataflow.Counter
	fam := anticip.NewFamily(other, CandidateExprs(other))
	ant, pan := fam.SolveDFG(dfg.MustBuild(other), &cost)
	foreign := &anticip.Solution{Family: fam, ANT: ant, PAN: pan}
	if _, _, err := ApplyObserved(g, dfg.MustBuild(g), foreign, nil); err == nil {
		t.Fatal("want an error for a solution over a different graph")
	}
	own := anticip.NewFamily(g, CandidateExprs(g))
	ant, pan = own.SolveDFG(dfg.MustBuild(g), &cost)
	if _, _, err := ApplyObserved(g, nil, &anticip.Solution{Family: own, ANT: ant, PAN: pan}, nil); err == nil {
		t.Fatal("want an error for a solution passed without its DFG")
	}
}
