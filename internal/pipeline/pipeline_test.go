package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dfg/internal/cfg"
	"dfg/internal/dfg"
	"dfg/internal/lang/parser"
	"dfg/internal/regions"
	"dfg/internal/workload"
)

const sampleSrc = `
	read p;
	y := 2;
	if (p > 0) { x := 1; y := 1; } else { x := 2; }
	print x; print y;
`

func mustAnalyze(t *testing.T, e *Engine, req Request) *Result {
	t.Helper()
	res, err := e.Analyze(context.Background(), req)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return res
}

func TestStageExpansion(t *testing.T) {
	got, err := expandStages([]Stage{StageEPR})
	if err != nil {
		t.Fatal(err)
	}
	want := []Stage{StageParse, StageCFG, StageRegions, StageDFG, StageAnticip, StageEPR}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("expandStages(epr) = %v, want %v", got, want)
	}
	if _, err := expandStages([]Stage{"bogus"}); err == nil {
		t.Fatal("unknown stage must be rejected")
	}
}

func TestAnalyzeAllStages(t *testing.T) {
	e := New(Config{})
	res := mustAnalyze(t, e, Request{Source: sampleSrc})
	if res.Program == nil || res.CFG == nil || res.Regions == nil || res.CDG == nil ||
		res.DFG == nil || res.SSA == nil || res.Cprop == nil || res.EPR == nil {
		t.Fatalf("missing artifacts: %+v", res)
	}
	if !res.SSA.Equivalent {
		t.Errorf("SSA forms disagree: %s", res.SSA.Mismatch)
	}
	if !res.Cprop.Agree {
		t.Error("constprop CFG and DFG algorithms disagree")
	}
	rep := res.Report()
	if rep.CFG.Nodes == 0 || rep.DFG.Dependences == 0 {
		t.Errorf("implausible report: %+v", rep)
	}
}

func mustReport(t *testing.T, e *Engine, req Request) *ReportResult {
	t.Helper()
	rr, err := e.AnalyzeReport(context.Background(), req)
	if err != nil {
		t.Fatalf("AnalyzeReport: %v", err)
	}
	return rr
}

// TestCacheHitsSecondRequest: a repeated request is answered from the
// report LRU without running a stage, and an options change is a
// different report.
func TestCacheHitsSecondRequest(t *testing.T) {
	e := New(Config{})
	first := mustReport(t, e, Request{Source: sampleSrc})
	second := mustReport(t, e, Request{Source: sampleSrc})
	if first.Tier != TierCompute || second.Tier != TierLRU {
		t.Fatalf("tiers = %s, %s; want compute, lru", first.Tier, second.Tier)
	}
	if !bytes.Equal(first.Raw, second.Raw) || second.Stages != nil {
		t.Fatal("the LRU answer must be the computed bytes, with no stage runs")
	}
	snap := e.Snapshot()
	for _, st := range AllStages() {
		if n := snap.Stages[st].Runs; n != 1 {
			t.Errorf("stage %s ran %d times, want 1", st, n)
		}
	}
	if rc := snap.ReportCache; rc.LRUHits != 1 || rc.LRUMisses != 1 || rc.Entries != 1 {
		t.Errorf("report cache = %+v, want 1 hit, 1 miss, 1 entry", rc)
	}
	pred := mustReport(t, e, Request{Source: sampleSrc, Options: Options{Predicates: true}})
	if pred.Tier != TierCompute {
		t.Errorf("options change answered from %s; it must change the report key", pred.Tier)
	}
}

// TestDisableCache: the deprecated stage-cache and intra-program fields
// are inert. Analyze computes every stage on every call and shares no
// artifact across calls, and the report LRU serves repeats whatever the
// fields say.
func TestDisableCache(t *testing.T) {
	for _, c := range []Config{{}, {DisableCache: true}, {CacheEntries: 1}, {IntraWorkers: 4}} {
		e := New(c)
		a := mustAnalyze(t, e, Request{Source: sampleSrc})
		b := mustAnalyze(t, e, Request{Source: sampleSrc})
		if a.CFG == b.CFG || a.DFG == b.DFG {
			t.Errorf("%+v: two Analyze calls share live artifacts", c)
		}
		if n := e.Snapshot().Stages[StageEPR].Runs; n != 2 {
			t.Errorf("%+v: epr ran %d times over two Analyze calls, want 2", c, n)
		}
		mustReport(t, e, Request{Source: sampleSrc})
		if rr := mustReport(t, e, Request{Source: sampleSrc}); rr.Tier != TierLRU {
			t.Errorf("%+v: repeat AnalyzeReport tier = %s, want lru", c, rr.Tier)
		}
	}
}

func TestParseErrorIsStageError(t *testing.T) {
	e := New(Config{})
	_, err := e.Analyze(context.Background(), Request{Source: "x := ;"})
	var se *StageError
	if !errors.As(err, &se) || se.Stage != StageParse || se.Panicked {
		t.Fatalf("want parse StageError, got %v", err)
	}
}

func TestPanicIsolation(t *testing.T) {
	e := New(Config{
		StageHook: func(st Stage, src string) {
			if st == StageDFG && strings.Contains(src, "y := 2") {
				panic("injected fault")
			}
		},
	})
	_, err := e.Analyze(context.Background(), Request{Source: sampleSrc})
	var se *StageError
	if !errors.As(err, &se) || !se.Panicked || se.Stage != StageDFG {
		t.Fatalf("want recovered dfg panic, got %v", err)
	}
	if e.Snapshot().Stages[StageDFG].Panics != 1 {
		t.Error("panic not counted")
	}
	// The engine must keep serving other programs.
	mustAnalyze(t, e, Request{Source: "read a; print a;"})
}

func TestRequestTimeout(t *testing.T) {
	e := New(Config{})
	_, err := e.Analyze(context.Background(), Request{Source: sampleSrc, Timeout: time.Nanosecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
}

// TestBatchCancellation: requests fanned out under an already-cancelled
// context each return the context's error and run no stage.
func TestBatchCancellation(t *testing.T) {
	e := New(Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errs := analyzeConcurrently(ctx, e, []Request{{Source: sampleSrc}, {Source: sampleSrc}})
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("request %d: got %v, want context.Canceled", i, err)
		}
	}
	for st, ss := range e.Snapshot().Stages {
		if ss.Runs != 0 {
			t.Errorf("stage %s ran %d times under a cancelled context", st, ss.Runs)
		}
	}
}

// TestBatchIsolatesBadRequests: one malformed program among concurrent good
// ones fails alone.
func TestBatchIsolatesBadRequests(t *testing.T) {
	e := New(Config{Workers: 4})
	reqs := []Request{
		{Source: "read a; print a;"},
		{Source: "if ("}, // parse error
		{Source: sampleSrc},
	}
	_, errs := analyzeConcurrently(context.Background(), e, reqs)
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("good requests failed: %v / %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Fatal("malformed request must fail on its own")
	}
}

// TestLRUEviction: a one-entry report LRU evicts the older report, which
// is then recomputed to the same bytes; correctness must not depend on the
// cache.
func TestLRUEviction(t *testing.T) {
	e := New(Config{ReportCacheEntries: 1})
	a := Request{Source: sampleSrc}
	b := Request{Source: "read a; print a;"}
	first := mustReport(t, e, a)
	mustReport(t, e, b)
	again := mustReport(t, e, a)
	if again.Tier != TierCompute {
		t.Errorf("evicted report answered from %s, want compute", again.Tier)
	}
	if !bytes.Equal(first.Raw, again.Raw) {
		t.Fatalf("reports differ under eviction:\n%s\n%s", first.Raw, again.Raw)
	}
	if rr := mustReport(t, e, a); rr.Tier != TierLRU {
		t.Errorf("most recent report answered from %s, want lru", rr.Tier)
	}
	if n := e.Snapshot().ReportCache.Entries; n != 1 {
		t.Errorf("report LRU holds %d entries, want 1", n)
	}
}

// analyzeConcurrently runs every request on its own goroutine over
// e.Analyze, bounded only by the engine's Workers slots — the shape of
// dfg-serve's batch slots and of a wire worker serving many connections —
// and returns the outcomes index-aligned with reqs.
func analyzeConcurrently(ctx context.Context, e *Engine, reqs []Request) ([]*Result, []error) {
	res := make([]*Result, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = e.Analyze(ctx, r)
		}()
	}
	wg.Wait()
	return res, errs
}

// serialReport runs the underlying analysis packages directly — no engine,
// no goroutines — and assembles the same Report the engine
// produces. It is the reference the parallel-safety tests compare against.
func serialReport(t *testing.T, src string) Report {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g, err := cfg.Build(prog)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	info, err := regions.Analyze(g)
	if err != nil {
		t.Fatalf("regions: %v", err)
	}
	d, err := dfg.BuildWithInfo(g, info)
	if err != nil {
		t.Fatalf("dfg: %v", err)
	}
	res := &Result{Program: prog, CFG: g, Regions: info, DFG: d}
	res.install(StageCDG, mustCompute(t, StageCDG, res))
	res.install(StageSSA, mustCompute(t, StageSSA, res))
	res.install(StageConstprop, mustCompute(t, StageConstprop, res))
	res.install(StageAnticip, mustCompute(t, StageAnticip, res))
	res.install(StageEPR, mustCompute(t, StageEPR, res))
	return res.Report()
}

func mustCompute(t *testing.T, st Stage, res *Result) any {
	t.Helper()
	v, err := compute(st, Options{}, res)
	if err != nil {
		t.Fatalf("stage %s: %v", st, err)
	}
	return v
}

// mixedSources returns the shared corpus of the parallel-safety tests:
// 100 deterministic workload.Mixed programs.
func mixedSources(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = workload.Mixed(15, int64(i+1)).String()
	}
	return out
}

// serialOnce memoizes the serial reference reports: both parallel-safety
// tests compare against the same corpus, and the serial pipeline (EPR in
// particular) is the expensive part of these tests.
var serialOnce struct {
	sync.Once
	reports map[string]string
}

func serialReference(t *testing.T, srcs []string) map[string]string {
	t.Helper()
	serialOnce.Do(func() {
		serialOnce.reports = make(map[string]string, len(srcs))
		for _, src := range srcs {
			serialOnce.reports[src] = reportJSON(t, serialReport(t, src))
		}
	})
	return serialOnce.reports
}

func reportJSON(t *testing.T, rep Report) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestParallelSubtestsShareEngine is the parallel-safety regression of the
// engine: 100 t.Parallel subtests hammer one shared Engine (so under -race
// every metrics path is exercised concurrently) and each asserts its result
// equals the serial pipeline's.
func TestParallelSubtestsShareEngine(t *testing.T) {
	srcs := mixedSources(100)
	want := serialReference(t, srcs)
	shared := New(Config{})
	for i, src := range srcs {
		i, src := i, src
		t.Run(fmt.Sprintf("prog%02d", i), func(t *testing.T) {
			t.Parallel()
			res := mustAnalyze(t, shared, Request{Source: src})
			if got := reportJSON(t, res.Report()); got != want[src] {
				t.Errorf("engine disagrees with serial pipeline\n got: %s\nwant: %s", got, want[src])
			}
		})
	}
}

// TestBatchMatchesSerial fans the same corpus out over one engine twice,
// one goroutine per program, and asserts every result equals the serial
// result. The engine keeps no artifacts between passes, so the second pass
// recomputes every stage.
func TestBatchMatchesSerial(t *testing.T) {
	srcs := mixedSources(100)
	wantAll := serialReference(t, srcs)
	reqs := make([]Request, len(srcs))
	for i, src := range srcs {
		reqs[i] = Request{Source: src}
	}
	e := New(Config{})
	for pass := 0; pass < 2; pass++ {
		res, errs := analyzeConcurrently(context.Background(), e, reqs)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("pass %d request %d: %v", pass, i, err)
			}
			want := wantAll[srcs[i]]
			if got := reportJSON(t, res[i].Report()); got != want {
				t.Errorf("pass %d request %d: concurrent result disagrees with serial\n got: %s\nwant: %s",
					pass, i, got, want)
			}
		}
	}
	if n := e.Snapshot().Stages[StageDFG].Runs; n != int64(2*len(srcs)) {
		t.Errorf("dfg ran %d times over two passes, want %d", n, 2*len(srcs))
	}
}
