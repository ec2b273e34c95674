package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"dfg/internal/store"
	"dfg/internal/workload"
)

func storeEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	st, err := store.Open(dir, store.Options{Schema: ReportSchemaVersion, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return New(Config{Store: st})
}

// TestAnalyzeReportTiers walks one request through all three tiers:
// compute (cold), LRU (same engine), store (fresh engine on the same dir,
// i.e. a process restart), asserting byte-identical Report JSON each time.
func TestAnalyzeReportTiers(t *testing.T) {
	dir := t.TempDir()
	src := workload.Mixed(15, 7).String()
	req := Request{Source: src}

	e1 := storeEngine(t, dir)
	r1, err := e1.AnalyzeReport(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Tier != TierCompute {
		t.Fatalf("cold tier = %s, want compute", r1.Tier)
	}
	if len(r1.Stages) == 0 {
		t.Fatal("computed report carries no stage info")
	}

	r2, err := e1.AnalyzeReport(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Tier != TierLRU {
		t.Fatalf("warm tier = %s, want lru", r2.Tier)
	}
	if !bytes.Equal(r1.Raw, r2.Raw) {
		t.Fatal("LRU tier returned different bytes")
	}

	// "Restart": a fresh engine, fresh LRU, same store directory.
	e2 := storeEngine(t, dir)
	r3, err := e2.AnalyzeReport(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Tier != TierStore {
		t.Fatalf("post-restart tier = %s, want store", r3.Tier)
	}
	if !bytes.Equal(r1.Raw, r3.Raw) {
		t.Fatal("store tier returned different bytes")
	}
	// And the store hit promotes into the new engine's LRU.
	r4, err := e2.AnalyzeReport(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Tier != TierLRU {
		t.Fatalf("post-promotion tier = %s, want lru", r4.Tier)
	}

	snap := e2.Snapshot()
	if snap.Store == nil {
		t.Fatalf("snapshot missing store stats: %+v", snap)
	}
	if snap.Store.Hits != 1 {
		t.Fatalf("store hits = %d, want 1", snap.Store.Hits)
	}
	if snap.ReportCache.LRUHits != 1 || snap.ReportCache.LRUMisses != 1 {
		t.Fatalf("report cache stats = %+v, want 1 hit / 1 miss", snap.ReportCache)
	}
}

// TestAnalyzeReportMatchesAnalyze: the Raw bytes equal a compact marshal of
// Analyze's Report — the property the frontier's end-to-end differential
// relies on.
func TestAnalyzeReportMatchesAnalyze(t *testing.T) {
	src := workload.Mixed(12, 3).String()
	e := storeEngine(t, t.TempDir())
	rr, err := e.AnalyzeReport(context.Background(), Request{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(Config{}).Analyze(context.Background(), Request{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rr.Raw, want) {
		t.Fatalf("AnalyzeReport bytes differ from in-process Report:\n%s\n%s", rr.Raw, want)
	}
}

// TestReportKeySensitivity: the key must separate options, stage sets, exec
// inputs, and must carry the schema version.
func TestReportKeySensitivity(t *testing.T) {
	base, err := ReportKey("read a; print a;", Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pred, _ := ReportKey("read a; print a;", Options{Predicates: true}, nil)
	if base == pred {
		t.Fatal("predicates option not in the key")
	}
	sub, _ := ReportKey("read a; print a;", Options{}, []Stage{StageCFG})
	if base == sub {
		t.Fatal("stage set not in the key")
	}
	ex1, _ := ReportKey("read a; print a;", Options{ExecInputs: []int64{1}}, []Stage{StageExec})
	ex2, _ := ReportKey("read a; print a;", Options{ExecInputs: []int64{2}}, []Stage{StageExec})
	if ex1 == ex2 {
		t.Fatal("exec inputs not in the key when exec is requested")
	}
	// Inputs must NOT split the cache when exec is not requested.
	in1, _ := ReportKey("read a; print a;", Options{ExecInputs: []int64{1}}, nil)
	in2, _ := ReportKey("read a; print a;", Options{ExecInputs: []int64{2}}, nil)
	if in1 != in2 {
		t.Fatal("exec inputs split the key without the exec stage")
	}
	if _, err := ReportKey("x", Options{}, []Stage{"nope"}); err == nil {
		t.Fatal("unknown stage accepted")
	}
}

// TestAnalyzeReportWithoutStore: an engine with no store computes a new
// report and has no artifact store (TestCacheHitsSecondRequest covers its
// report LRU).
func TestAnalyzeReportWithoutStore(t *testing.T) {
	e := New(Config{})
	rr, err := e.AnalyzeReport(context.Background(), Request{Source: "read a; print a + 1;"})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Tier != TierCompute || len(rr.Raw) == 0 {
		t.Fatalf("storeless AnalyzeReport = %+v", rr)
	}
	if e.ArtifactStore() != nil {
		t.Fatal("ArtifactStore should be nil without a store")
	}
}

// TestAnalyzeReportErrors: analysis failures surface as errors, not cached
// artifacts — a parse error must not poison either tier.
func TestAnalyzeReportErrors(t *testing.T) {
	e := storeEngine(t, t.TempDir())
	if _, err := e.AnalyzeReport(context.Background(), Request{Source: "x := ;"}); err == nil {
		t.Fatal("parse error not surfaced")
	}
	if n := e.ArtifactStore().Len(); n != 0 {
		t.Fatalf("failed analysis left %d store artifacts", n)
	}
}

// TestServedHeapStaysBounded pins what a served worker keeps alive: 300
// never-seen programs in the benchmark's cold mix (Mixed(15),
// LoopNest(6,4), Irreducible(40) and Wide(300) at 15:2:2:1) go through a
// store-backed AnalyzeReport, and the live heap may grow only by the cached
// report bytes. Live stage artifacts (CFGs, DFGs, SSA forms, optimized
// clones) kept beyond their request would grow it by tens of megabytes.
func TestServedHeapStaysBounded(t *testing.T) {
	const limit = 8 << 20
	e := storeEngine(t, t.TempDir())
	ctx := context.Background()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	for i := 0; i < 300; i++ {
		seed := int64(10_000 + i)
		var src string
		switch k := i % 20; {
		case k < 15:
			src = workload.Mixed(15, seed).String()
		case k < 17:
			src = workload.LoopNest(6, 4, seed).String()
		case k < 19:
			src = workload.Irreducible(40, seed).String()
		default:
			src = workload.Wide(300, seed).String()
		}
		rr, err := e.AnalyzeReport(ctx, Request{Source: src})
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		if rr.Tier != TierCompute {
			t.Fatalf("program %d answered from %s; the corpus must be never-seen", i, rr.Tier)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(e)
	grown := int64(ms.HeapAlloc) - int64(before)
	t.Logf("live heap grew %.1f MB over 300 served programs", float64(grown)/(1<<20))
	if grown > limit {
		t.Fatalf("live heap grew %.1f MB over 300 served programs, want <= %.1f MB",
			float64(grown)/(1<<20), float64(limit)/(1<<20))
	}
}
