package pipeline

import "testing"

func TestExecStage(t *testing.T) {
	e := New(Config{})
	src := `read n; s := 0; while (n > 0) { s := s + n; n := n - 1; } print s;`
	req := Request{
		Source:  src,
		Stages:  []Stage{StageExec},
		Options: Options{ExecInputs: []int64{4}},
	}
	res := mustAnalyze(t, e, req)
	if res.Exec == nil {
		t.Fatal("exec artifact missing")
	}
	if !res.Exec.Agree {
		t.Fatalf("oracle disagreement on simple program: %s", res.Exec.Diff())
	}
	if got := res.Exec.CFGOutput; len(got) != 1 || got[0] != "10" {
		t.Fatalf("cfg output %v, want [10]", got)
	}
	if rep := res.Report(); rep.Exec == nil || !rep.Exec.Agree {
		t.Fatalf("report should carry the exec artifact: %+v", rep.Exec)
	}

	// Same source and inputs: the exec report is an LRU hit. Different
	// inputs: a different report, computed afresh.
	mustReport(t, e, req)
	if rr := mustReport(t, e, req); rr.Tier != TierLRU {
		t.Fatalf("identical exec request answered from %s, want lru", rr.Tier)
	}
	req.Options.ExecInputs = []int64{7}
	if rr := mustReport(t, e, req); rr.Tier != TierCompute {
		t.Fatalf("exec request with new inputs answered from %s, want compute", rr.Tier)
	}
	res3 := mustAnalyze(t, e, req)
	if got := res3.Exec.CFGOutput; len(got) != 1 || got[0] != "28" {
		t.Fatalf("cfg output %v, want [28]", got)
	}
}

func TestExecStageExcludedFromAllStages(t *testing.T) {
	for _, s := range AllStages() {
		if s == StageExec {
			t.Fatal("exec must be on-demand only")
		}
	}
	if !ValidStage(StageExec) {
		t.Fatal("exec must still be requestable")
	}
	e := New(Config{})
	res := mustAnalyze(t, e, Request{Source: `print 1;`})
	if res.Exec != nil {
		t.Fatal("default request must not execute the program")
	}
}
