package epr

import (
	"fmt"
	"testing"

	"dfg/internal/anticip"
	"dfg/internal/bitset"
	"dfg/internal/cfg"
	"dfg/internal/workload"
)

// TestAnalyzeBatchWorkersIdentical pins the word-partitioned solvers
// (analyzeFamilyPar at workers > 1, as the transformation loop runs them)
// to the serial ones: every matrix of the batch must be bit-equal at every
// worker count, for both drivers, including families much wider than one
// word.
func TestAnalyzeBatchWorkersIdentical(t *testing.T) {
	for _, size := range []int{15, 60, 200} {
		for seed := int64(1); seed <= 3; seed++ {
			prog := workload.Mixed(size, seed)
			g, err := cfg.Build(prog)
			if err != nil {
				t.Fatal(err)
			}
			exprs := CandidateExprs(g)
			for _, driver := range []Driver{DriverCFG, DriverDFG} {
				want, err := AnalyzeBatch(g, exprs, driver, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 3, 8} {
					got, err := analyzeFamilyPar(anticip.NewFamily(g, exprs), driver, nil, nil, nil, workers)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("n%d/seed%d/%v/w%d (words=%d)", size, seed, driver, workers, want.Family.Words)
					requireMatrixEqual(t, label+" ANT", want.ANT, got.ANT)
					requireMatrixEqual(t, label+" PAN", want.PAN, got.PAN)
					requireMatrixEqual(t, label+" AV", want.AV, got.AV)
					requireMatrixEqual(t, label+" PAV", want.PAV, got.PAV)
				}
			}
		}
	}
}

func requireMatrixEqual(t *testing.T, label string, a, b *bitset.Matrix) {
	t.Helper()
	if a.Stride != b.Stride || len(a.W) != len(b.W) || !bitset.WordsEqual(a.W, b.W) {
		t.Fatalf("%s: matrices differ", label)
	}
}

// TestApplyWorkersIdentical pins the full transformation loop: the
// transformed graph and stats must not depend on the worker count.
func TestApplyWorkersIdentical(t *testing.T) {
	for _, placement := range []Placement{PlaceBusy, PlaceLazy} {
		for seed := int64(1); seed <= 6; seed++ {
			// Odd seeds plant redundancies, so the edit path runs too.
			prog := workload.Mixed(60, seed)
			if seed%2 == 1 {
				prog = workload.Redundant(12, seed)
			}
			g, err := cfg.Build(prog)
			if err != nil {
				t.Fatal(err)
			}
			want, wantSt, err := ApplyPlaced(g, DriverDFG, placement)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4} {
				got, gotSt, err := ApplyPlacedWorkers(g, DriverDFG, placement, workers)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%v/seed%d/w%d", placement, seed, workers)
				if want.String() != got.String() {
					t.Fatalf("%s: transformed graphs differ", label)
				}
				if wantSt != gotSt {
					t.Fatalf("%s: stats differ: serial %+v parallel %+v", label, wantSt, gotSt)
				}
			}
		}
	}
}

// TestScratchPoolSoloGet covers the nil-pool and workers<=1 paths: pool.Get
// on a nil pool must hand out a usable scratch.
func TestScratchPoolSoloGet(t *testing.T) {
	var p *anticip.ScratchPool
	if sc := p.Get(0); sc == nil {
		t.Fatal("nil pool returned nil scratch")
	}
	pool := anticip.NewScratchPool(2)
	if pool.Get(0) == pool.Get(1) {
		t.Fatal("distinct workers share a scratch")
	}
	if pool.Get(0) != pool.Get(0) {
		t.Fatal("same worker got a different scratch on re-Get")
	}
}
