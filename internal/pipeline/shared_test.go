package pipeline

import (
	"fmt"
	"testing"

	"dfg/internal/cdg"
	"dfg/internal/dfg"
	"dfg/internal/regions"
	"dfg/internal/workload"
)

// TestSharedArtifactsStayUnmodified pins compute's "must not mutate res"
// contract for the artifacts later stages share: the epr stage solves its
// first round on the dfg stage's graph and the cdg stage reads the regions
// stage's classes, and after a full request both still equal a fresh
// build. It also pins the saving: a program EPR does not edit builds no
// second DFG, and NestedSum, which it edits, builds at most one.
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
		if got, want := res.CDG.String(), cdg.BuildFactored(res.CFG).String(); got != want {
			t.Errorf("%s: cdg stage over the shared classes differs from BuildFactored:\n%s\nvs\n%s", in.name, got, want)
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
