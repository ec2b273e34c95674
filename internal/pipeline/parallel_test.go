package pipeline

import (
	"context"
	"runtime"
	"testing"

	"dfg/internal/workload"
)

// differentialCorpus is the satellite corpus of the region-parallel PR:
// 200 programs spanning the three structural extremes — Mixed (random
// structured), LoopNest (deep and narrow), Wide (shallow and broad) — on
// which the parallel pipeline must be byte-identical to the serial one.
func differentialCorpus(t *testing.T) []string {
	t.Helper()
	nMixed, nNest, nWide := 150, 25, 25
	if testing.Short() {
		nMixed, nNest, nWide = 20, 5, 5
	}
	var srcs []string
	for seed := int64(1); seed <= int64(nMixed); seed++ {
		srcs = append(srcs, workload.Mixed(15, seed).String())
	}
	for seed := int64(1); seed <= int64(nNest); seed++ {
		srcs = append(srcs, workload.LoopNest(3, 2+int(seed%4), seed).String())
	}
	for seed := int64(1); seed <= int64(nWide); seed++ {
		srcs = append(srcs, workload.Wide(100, seed).String())
	}
	return srcs
}

// TestReportIdenticalAcrossIntraWorkers is the golden differential of the
// region-parallel work: the full report of every corpus program must be
// byte-identical at IntraWorkers ∈ {1, 4, GOMAXPROCS}. IntraWorkers=1
// takes the pre-existing serial code paths (the parallel entry points fall
// back), so this pins the parallel builder, the word-partitioned solvers,
// and the parallel EPR loop to the serial semantics in one sweep.
func TestReportIdenticalAcrossIntraWorkers(t *testing.T) {
	srcs := differentialCorpus(t)
	ref := make([]string, len(srcs))
	{
		e := New(Config{IntraWorkers: 1})
		for i, src := range srcs {
			res := mustAnalyze(t, e, Request{Source: src})
			ref[i] = reportJSON(t, res.Report())
		}
	}
	counts := []int{4}
	if gmp := runtime.GOMAXPROCS(0); gmp != 4 && gmp > 1 {
		counts = append(counts, gmp)
	}
	for _, intra := range counts {
		e := New(Config{IntraWorkers: intra})
		for i, src := range srcs {
			res := mustAnalyze(t, e, Request{Source: src})
			if got := reportJSON(t, res.Report()); got != ref[i] {
				t.Fatalf("intra=%d: report differs from serial on corpus[%d]:\nserial:   %s\nparallel: %s",
					intra, i, ref[i], got)
			}
		}
	}
}

// TestBatchStreamIndexOrder pins the batch scheduler: slots are taken in
// index order, so with one worker they are delivered in index order.
func TestBatchStreamIndexOrder(t *testing.T) {
	e := New(Config{Workers: 1})
	reqs := make([]Request, 6)
	for i := range reqs {
		reqs[i] = Request{Source: workload.Mixed(15, int64(101+i)).String()}
	}
	var order []int
	e.AnalyzeBatchStream(context.Background(), reqs, func(br BatchResult) {
		if br.Err != nil {
			t.Errorf("slot %d: %v", br.Index, br.Err)
		}
		order = append(order, br.Index)
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("delivery order %v, want index order", order)
		}
	}
	if len(order) != len(reqs) {
		t.Fatalf("delivered %d results, want %d", len(order), len(reqs))
	}
}

// TestAnalyzeBatchStreamMatchesBatch checks the streaming batch path at
// four workers delivers each request exactly once, with the report a
// one-request-at-a-time Analyze on a separate engine produces for it.
func TestAnalyzeBatchStreamMatchesBatch(t *testing.T) {
	var reqs []Request
	for seed := int64(1); seed <= 12; seed++ {
		reqs = append(reqs, Request{Source: workload.Mixed(15, seed).String()})
	}
	ref := New(Config{Workers: 1})
	want := make([]string, len(reqs))
	for i, req := range reqs {
		want[i] = reportJSON(t, mustAnalyze(t, ref, req).Report())
	}
	e := New(Config{Workers: 4})
	for i, br := range collectBatch(context.Background(), t, e, reqs) {
		if br.Err != nil {
			t.Fatalf("slot %d: %v", i, br.Err)
		}
		if got := reportJSON(t, br.Result.Report()); got != want[i] {
			t.Errorf("slot %d: streamed report differs from single-request report", i)
		}
	}
}
