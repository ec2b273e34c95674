package pipeline

import (
	"fmt"
	"testing"

	"dfg/internal/anticip"
	"dfg/internal/bitset"
	"dfg/internal/cdg"
	"dfg/internal/dataflow"
	"dfg/internal/dfg"
	"dfg/internal/epr"
	"dfg/internal/regions"
	"dfg/internal/workload"
)

// TestSharedArtifactsStayUnmodified pins compute's "must not mutate res"
// contract for the artifacts later stages share: the epr stage solves its
// first round on the dfg stage's graph and the anticip stage's candidates
// and ANT/PAN rows, and the cdg stage reads the regions stage's classes;
// after a full request all of them still equal a fresh build. It also pins
// the saving: a program EPR does not edit builds no second DFG, and
// NestedSum, which it edits, builds at most one.
func TestSharedArtifactsStayUnmodified(t *testing.T) {
	type input struct {
		name  string
		src   string
		edits bool // EPR is known to transform this program
	}
	inputs := []input{{name: "NestedSum(12)", src: workload.NestedSum(12).String(), edits: true}}
	for seed := int64(0); seed < 4; seed++ {
		inputs = append(inputs, input{name: fmt.Sprintf("Redundant(6,%d)", seed), src: workload.Redundant(6, seed).String()})
	}
	for seed := int64(1); seed <= 8; seed++ {
		inputs = append(inputs, input{name: fmt.Sprintf("Mixed(15,%d)", seed), src: workload.Mixed(15, seed).String()})
	}

	eng := New(Config{Workers: 1})
	edited, unedited := 0, 0
	for _, in := range inputs {
		res := mustAnalyze(t, eng, Request{Source: in.src})

		fresh, err := dfg.BuildWithInfo(res.CFG, res.Regions)
		if err != nil {
			t.Fatalf("%s: fresh DFG build: %v", in.name, err)
		}
		if diff := dfg.DiffFlows(res.DFG, fresh); diff != "" {
			t.Errorf("%s: the dfg stage's graph changed during the request: %s", in.name, diff)
		}
		if got, want := res.DFG.String(), fresh.String(); got != want {
			t.Errorf("%s: the dfg stage's graph no longer renders as a fresh build", in.name)
		}
		classOf, num := regions.EdgeClasses(res.CFG)
		if fmt.Sprint(res.Regions.ClassOf) != fmt.Sprint(classOf) || res.Regions.NumClasses != num {
			t.Errorf("%s: the regions stage's classes changed during the request", in.name)
		}
		fact, fow := cdg.BuildFactored(res.CFG), cdg.BuildFOW(res.CFG)
		got := res.CDG.Format(cdg.ClassDeps(res.CFG, res.CDG, fow))
		if want := fact.Format(cdg.ClassDeps(res.CFG, fact, fow)); got != want {
			t.Errorf("%s: cdg stage over the shared classes differs from BuildFactored:\n%s\nvs\n%s", in.name, got, want)
		}

		fam := anticip.NewFamily(res.CFG, epr.CandidateExprs(res.CFG))
		var cost dataflow.Counter
		ant, pan := fam.SolveDFG(fresh, &cost)
		sol := res.Anticip.Solution
		if fmt.Sprint(sol.Family.Exprs) != fmt.Sprint(fam.Exprs) || sol.Family.G != res.CFG {
			t.Errorf("%s: the anticip stage's family changed during the request", in.name)
		}
		for _, m := range []struct {
			name        string
			stage, want *bitset.Matrix
		}{{"COMP", sol.Family.Comp, fam.Comp}, {"KILL", sol.Family.Kill, fam.Kill}, {"ANT", sol.ANT, ant}, {"PAN", sol.PAN, pan}} {
			if fmt.Sprint(m.stage.W) != fmt.Sprint(m.want.W) {
				t.Errorf("%s: the anticip stage's %s rows changed during the request", in.name, m.name)
			}
		}

		st := res.EPR.Stats
		didEdit := st.Inserted+st.Replaced > 0
		switch {
		case in.edits && !didEdit:
			t.Errorf("%s: expected EPR to transform the program: %v", in.name, st)
		case !didEdit && st.DFGRebuilds != 0:
			t.Errorf("%s: EPR made no edit yet built %d DFGs of its own", in.name, st.DFGRebuilds)
		case didEdit && in.edits && st.DFGRebuilds > 1:
			t.Errorf("%s: EPR built %d DFGs, want at most 1", in.name, st.DFGRebuilds)
		}
		if didEdit {
			edited++
		} else {
			unedited++
		}
	}
	if edited == 0 || unedited == 0 {
		t.Errorf("corpus must cover edited and unedited programs: %d edited, %d unedited", edited, unedited)
	}
}

// TestEPRReadsTheAnticipSolve pins that a cold request runs
// CandidateExprs, NewFamily and the DFG ANT/PAN solve once — in the anticip
// stage — for a program EPR does not edit: the epr stage's first round
// takes its candidates and ANT/PAN rows from that stage's solution. Handing
// it a solution of one candidate with ANT cleared shows it: the epr report
// then lists that one candidate, with no insertion. A second solve or a
// second CandidateExprs would restore the others.
func TestEPRReadsTheAnticipSolve(t *testing.T) {
	src := workload.Mixed(15, 3).String()
	res := mustAnalyze(t, New(Config{Workers: 1}), Request{Source: src})
	if st := res.EPR.Stats; st.Inserted+st.Replaced != 0 || st.Rounds != 1 || len(res.EPR.PerExpr) < 2 || len(res.EPR.PerExpr[0].Insert) == 0 {
		t.Fatalf("want an unedited program with several candidates, the first with an insertion; got %v and %+v", st, res.EPR.PerExpr)
	}
	sol := res.Anticip.Solution
	if got, want := len(res.EPR.PerExpr), len(sol.Family.Exprs); got != want {
		t.Fatalf("epr reports %d candidates, the anticip stage solved %d", got, want)
	}
	one := anticip.NewFamily(res.CFG, sol.Family.Exprs[:1])
	var cost dataflow.Counter
	ant, pan := one.SolveDFG(res.DFG, &cost)
	bitset.WordsZero(ant.W)
	res.Anticip = &AnticipResult{Solution: &anticip.Solution{Family: one, ANT: ant, PAN: pan}}
	v, err := compute(StageEPR, Options{}, res)
	if err != nil {
		t.Fatal(err)
	}
	per := v.(*EPRResult).PerExpr
	if len(per) != 1 || per[0].Expr != sol.Family.Exprs[0].String() || len(per[0].Insert) != 0 {
		t.Fatalf("epr did not read the anticip stage's solution: %+v", per)
	}
}

// TestCDGStageImpliesRegions: the cdg stage builds on the regions stage's
// classes, so a request for cdg alone runs (and reports) regions too.
func TestCDGStageImpliesRegions(t *testing.T) {
	got, err := expandStages([]Stage{StageCDG})
	if err != nil {
		t.Fatal(err)
	}
	want := []Stage{StageParse, StageCFG, StageRegions, StageCDG}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("expandStages(cdg) = %v, want %v", got, want)
	}
	res := mustAnalyze(t, New(Config{}), Request{Source: sampleSrc, Stages: []Stage{StageCDG}})
	rep := res.Report()
	if rep.Regions == nil || rep.CDG == nil || rep.DFG != nil {
		t.Fatalf("cdg-only report: regions %v, cdg %v, dfg %v", rep.Regions, rep.CDG, rep.DFG)
	}
}
