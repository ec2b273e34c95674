package constprop

import (
	"testing"

	"dfg/internal/cfg"
	"dfg/internal/dataflow"
	"dfg/internal/dfg"
	"dfg/internal/workload"
)

const predSrc = `
	read x;
	if (x == 5) { y := x; } else { y := 0; }
	print y;`

func TestPredicateRefinementTrueSide(t *testing.T) {
	g := build(t, predSrc)
	d := dfg.MustBuild(g)

	// Without predicates: x at y := x (true side) is ⊤.
	for name, r := range map[string]*Result{"cfg": CFG(g), "dfg": DFG(d)} {
		v := useVal(t, g, r, cfg.KindAssign, "x", "x")
		if v.Kind != dataflow.Top {
			t.Errorf("%s without predicates: x on true side = %s, want ⊤", name, v)
		}
	}
	// With predicates: x is 5 there.
	opts := Options{Predicates: true}
	for name, r := range map[string]*Result{
		"cfg": CFGOpt(g, opts),
		"dfg": DFGOpt(d, opts),
	} {
		v := useVal(t, g, r, cfg.KindAssign, "x", "x")
		if v.Kind != dataflow.Const || v.Val.I != 5 {
			t.Errorf("%s with predicates: x on true side = %s, want 5", name, v)
		}
	}
}

func TestPredicateRefinementNeqFalseSide(t *testing.T) {
	g := build(t, `
		read x;
		if (x != 3) { y := 0; } else { y := x; }
		print y;`)
	d := dfg.MustBuild(g)
	opts := Options{Predicates: true}
	for name, r := range map[string]*Result{
		"cfg": CFGOpt(g, opts),
		"dfg": DFGOpt(d, opts),
	} {
		v := useVal(t, g, r, cfg.KindAssign, "x", "x")
		if v.Kind != dataflow.Const || v.Val.I != 3 {
			t.Errorf("%s: x on false side of != = %s, want 3", name, v)
		}
	}
}

func TestPredicateReversedOperands(t *testing.T) {
	g := build(t, `
		read x;
		if (7 == x) { y := x; } else { y := 0; }
		print y;`)
	r := CFGOpt(g, Options{Predicates: true})
	v := useVal(t, g, r, cfg.KindAssign, "x", "x")
	if v.Kind != dataflow.Const || v.Val.I != 7 {
		t.Errorf("c == x form: x = %s, want 7", v)
	}
}

func TestPredicateDoesNotLeakPastMerge(t *testing.T) {
	// After the merge x may be anything again.
	g := build(t, predSrc)
	r := CFGOpt(g, Options{Predicates: true})
	// print y sees the merge of 5 (refined, via y := x) and 0: ⊤.
	v := useVal(t, g, r, cfg.KindPrint, "y", "y")
	if v.Kind != dataflow.Top {
		t.Errorf("y after merge = %s, want ⊤", v)
	}
}

func TestPredicateAgreementRandom(t *testing.T) {
	// CFG and DFG must agree with predicates enabled too (workload
	// programs use == and != conditions heavily).
	opts := Options{Predicates: true}
	for seed := int64(100); seed < 125; seed++ {
		g, err := cfg.Build(workload.Mixed(30, seed))
		if err != nil {
			t.Fatal(err)
		}
		d, err := dfg.Build(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := Agree(CFGOpt(g, opts), DFGOpt(d, opts)); err != nil {
			t.Errorf("seed %d: CFG vs DFG: %v\ncfg:\n%s", seed, err, g)
			return
		}
	}
}

func TestPredicateApplyPreservesSemantics(t *testing.T) {
	for seed := int64(200); seed < 215; seed++ {
		g, err := cfg.Build(workload.Mixed(30, seed))
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Apply(CFGOpt(g, Options{Predicates: true}))
		if err != nil {
			t.Fatal(err)
		}
		differential(t, g, opt, "predicates")
	}
}

func TestPredicateFindsMoreConstants(t *testing.T) {
	g := build(t, predSrc)
	plain := CFG(g).ConstUses()
	withPred := CFGOpt(g, Options{Predicates: true}).ConstUses()
	if withPred <= plain {
		t.Errorf("predicate analysis found %d constants, plain %d; want more", withPred, plain)
	}
}
