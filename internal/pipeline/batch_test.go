package pipeline

import (
	"context"
	"testing"

	"dfg/internal/workload"
)

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
