package pipeline

import (
	"context"
	"runtime"
	"testing"

	"dfg/internal/lang/ast"
	"dfg/internal/workload"
)

// benchCorpus is the BENCH_pipeline.json workload: 100 mixed programs, the
// same family the parallel-safety tests use.
func benchCorpus() []Request {
	reqs := make([]Request, 100)
	for i := range reqs {
		reqs[i] = Request{Source: workload.Mixed(15, int64(i+1)).String()}
	}
	return reqs
}

// BenchmarkPipelineBatch measures engine throughput (programs/sec) across
// the axes recorded in BENCH_pipeline.json: serial vs worker-pool batches,
// 1 vs GOMAXPROCS workers, and computed vs report-LRU answers.
func BenchmarkPipelineBatch(b *testing.B) {
	reqs := benchCorpus()
	ctx := context.Background()
	progsPerSec := func(b *testing.B) {
		b.ReportMetric(float64(len(reqs)*b.N)/b.Elapsed().Seconds(), "programs/sec")
	}

	b.Run("serial-cold", func(b *testing.B) {
		// The pre-engine baseline: every program recomputed from scratch,
		// one at a time.
		for i := 0; i < b.N; i++ {
			e := New(Config{Workers: 1})
			for _, r := range reqs {
				if _, err := e.Analyze(ctx, r); err != nil {
					b.Fatal(err)
				}
			}
		}
		progsPerSec(b)
	})

	b.Run("serial-cold-retained", func(b *testing.B) {
		// Like serial-cold but keeping every Result alive, the way the
		// batch-cold rows do (they collect all results). This is the fair
		// baseline for batch-cold-1worker: profiling showed the apparent
		// batch "dispatch overhead" was entirely GC rescanning the
		// retained results, not the worker-pool machinery.
		for i := 0; i < b.N; i++ {
			e := New(Config{Workers: 1})
			results := make([]*Result, len(reqs))
			for j, r := range reqs {
				res, err := e.Analyze(ctx, r)
				if err != nil {
					b.Fatal(err)
				}
				results[j] = res
			}
			_ = results
		}
		progsPerSec(b)
	})

	b.Run("stream-cold-1worker", func(b *testing.B) {
		// AnalyzeBatchStream with results dropped as they are delivered:
		// the streaming caller's shape. Nothing is retained, so this runs
		// against the serial-cold baseline, not serial-cold-retained — the
		// gap between this row and batch-cold-1worker is the GC cost of
		// keeping all 100 Results alive.
		for i := 0; i < b.N; i++ {
			e := New(Config{Workers: 1})
			e.AnalyzeBatchStream(ctx, reqs, func(br BatchResult) {
				if br.Err != nil {
					b.Fatal(br.Err)
				}
			})
		}
		progsPerSec(b)
	})

	b.Run("batch-cold-1worker", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := New(Config{Workers: 1})
			for _, br := range collectBatch(ctx, b, e, reqs) {
				if br.Err != nil {
					b.Fatal(br.Err)
				}
			}
		}
		progsPerSec(b)
	})

	b.Run("batch-cold-maxworkers", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := New(Config{})
			for _, br := range collectBatch(ctx, b, e, reqs) {
				if br.Err != nil {
					b.Fatal(br.Err)
				}
			}
		}
		progsPerSec(b)
	})

	b.Run("report-warm", func(b *testing.B) {
		// A second AnalyzeReport pass over the corpus: every answer is a
		// report-LRU hit, the engine's only in-memory cache.
		e := New(Config{})
		for _, r := range reqs {
			if _, err := e.AnalyzeReport(ctx, r); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range reqs {
				rr, err := e.AnalyzeReport(ctx, r)
				if err != nil {
					b.Fatal(err)
				}
				if rr.Tier != TierLRU {
					b.Fatalf("warm pass answered from %s, want lru", rr.Tier)
				}
			}
		}
		progsPerSec(b)
	})

	b.Logf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0))
}

// BenchmarkStageCold measures each pipeline stage in isolation:
// dependencies are precomputed outside the timed region, so a
// regression in one stage shows up in exactly one sub-benchmark. The
// top-level rows run a slice of the same Mixed(15) family
// BenchmarkPipelineBatch runs; the per-family rows run the shapes that
// dominate a cold mixed workload's tail (deep loops, irreducible control
// flow, many variables).
func BenchmarkStageCold(b *testing.B) {
	srcs := make([]string, 10)
	for i := range srcs {
		srcs[i] = workload.Mixed(15, int64(i+1)).String()
	}
	benchStages(b, srcs)
	for _, fam := range []struct {
		name string
		prog func(seed int64) *ast.Program
	}{
		{"LoopNest(6,4)", func(seed int64) *ast.Program { return workload.LoopNest(6, 4, seed) }},
		{"Irreducible(40)", func(seed int64) *ast.Program { return workload.Irreducible(40, seed) }},
		{"Wide(300)", func(seed int64) *ast.Program { return workload.Wide(300, seed) }},
	} {
		srcs := make([]string, 3)
		for i := range srcs {
			srcs[i] = fam.prog(int64(i + 1)).String()
		}
		b.Run(fam.name, func(b *testing.B) { benchStages(b, srcs) })
	}
}

// benchStages runs one sub-benchmark per stage over srcs.
func benchStages(b *testing.B, srcs []string) {
	for _, st := range AllStages() {
		b.Run(string(st), func(b *testing.B) {
			// Precompute the stage's dependencies once per source. The
			// closure returned by expandStages lists st last.
			plan, err := expandStages([]Stage{st})
			if err != nil {
				b.Fatal(err)
			}
			deps := make([]*Result, len(srcs))
			for i, src := range srcs {
				res := &Result{src: src, Stages: map[Stage]StageInfo{}}
				for _, dep := range plan[:len(plan)-1] {
					v, err := compute(dep, Options{}, res)
					if err != nil {
						b.Fatal(err)
					}
					res.install(dep, v)
				}
				deps[i] = res
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, res := range deps {
					if _, err := compute(st, Options{}, res); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
