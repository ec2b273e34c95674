package pipeline

import (
	"context"
	"testing"

	"dfg/internal/workload"
)

// TestStageAllocCounters: the per-stage allocation counters must
// accumulate across a cold corpus of real programs. The underlying
// runtime counters advance at span-refill granularity, so one stage of
// one tiny program can legitimately read zero; over a corpus the totals
// must be positive and the averages populated.
func TestStageAllocCounters(t *testing.T) {
	e := New(Config{Workers: 1, DisableCache: true})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := e.Analyze(ctx, Request{Source: workload.Mixed(15, int64(i+1)).String()}); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.Snapshot()
	var total int64
	for st, ss := range snap.Stages {
		if ss.AllocBytes < 0 || ss.AllocObjects < 0 {
			t.Errorf("stage %s: negative alloc counters (%d bytes, %d objects)",
				st, ss.AllocBytes, ss.AllocObjects)
		}
		if ss.Misses > 0 && ss.AvgAllocBytes != ss.AllocBytes/ss.Misses {
			t.Errorf("stage %s: avg_alloc_bytes=%d, want %d",
				st, ss.AvgAllocBytes, ss.AllocBytes/ss.Misses)
		}
		total += ss.AllocBytes
	}
	if total <= 0 {
		t.Error("no allocation attributed to any stage across a 10-program cold corpus")
	}
}

// TestEPRSnapshotCounters: the engine snapshot must aggregate the EPR
// solver's observability — DFG maintenance mode (patches vs rebuild
// fallbacks), batched-solver width, per-round candidate count, and
// round-cap truncations — across requests. The corpus plants genuine
// redundancies (EPR edits only for a strict saving), one of them deeper
// than the round cap allows.
func TestEPRSnapshotCounters(t *testing.T) {
	e := New(Config{Workers: 1, DisableCache: true})
	ctx := context.Background()
	srcs := []string{workload.NestedSum(12).String()}
	for i := 0; i < 4; i++ {
		srcs = append(srcs, workload.Redundant(6, int64(i+1)).String())
	}
	for _, src := range srcs {
		if _, err := e.Analyze(ctx, Request{Source: src}); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.Snapshot()
	if snap.EPR.DFGRebuilds == 0 {
		t.Error("no DFG builds recorded across 5 EPR runs")
	}
	if snap.EPR.DFGPatches == 0 {
		t.Error("no in-place DFG patches recorded; the incremental path is not running")
	}
	if snap.EPR.MaxWords == 0 || snap.EPR.MaxCandidates == 0 {
		t.Errorf("solver width counters unset: %+v", snap.EPR)
	}
	if snap.EPR.NonConverged == 0 {
		t.Error("the depth-12 nested sum needs more rounds than the cap; NonConverged stayed 0")
	}
}
