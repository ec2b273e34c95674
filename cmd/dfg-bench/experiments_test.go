package main

import "testing"

// TestExperimentsQuick runs every paper experiment in quick mode, as
// `dfg-bench -quick` does, and fails on any FAIL verdict. E8 is left out:
// its `last < 4*first` check times cycle equivalence by the wall clock,
// which a loaded host can break; TestCycleEquivOpsLinear and the regions
// tests check the same claims by operation counts.
func TestExperimentsQuick(t *testing.T) {
	for _, e := range experiments {
		if e.id == "E8" {
			continue
		}
		t.Run(e.id, func(t *testing.T) {
			r := &reporter{quick: true}
			e.run(r)
			if r.failed {
				t.Errorf("%s (%s) failed; its table above marks the failing check [FAIL]", e.id, e.title)
			}
		})
	}
}
