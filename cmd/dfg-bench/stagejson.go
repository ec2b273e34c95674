package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"dfg/internal/envinfo"
	"dfg/internal/pipeline"
	"dfg/internal/workload"
)

// Per-stage JSON timing: the machine-readable counterpart of the
// BenchmarkStageCold suite, for producing BENCH_*.json records without
// copying numbers out of `go test -bench` output by hand. It runs the same
// corpus (10 Mixed(15) programs, all default stages) through Analyze, which
// computes every stage on every call, and reports each stage's time from
// the engine's own per-stage counters.

// stageJSONRecord is the emitted document.
type stageJSONRecord struct {
	Benchmark string       `json:"benchmark"`
	Date      string       `json:"date"`
	Workload  string       `json:"workload"`
	Repeats   int          `json:"repeats"`
	Env       envinfo.Info `json:"environment"`
	// Stages maps stage name to nanoseconds for one cold pass over the
	// 10-program corpus (total across repeats divided by repeats).
	Stages     map[string]int64  `json:"stage_cold_ns_per_op_10_programs"`
	TotalNS    int64             `json:"total_ns_per_op_10_programs"`
	WallNS     int64             `json:"wall_ns"`
	EPR        pipeline.EPRStats `json:"epr"`
	AllocBytes map[string]int64  `json:"stage_alloc_bytes_per_op,omitempty"`
}

func runStageJSON(path string, repeats int) error {
	srcs := make([]string, 10)
	for i := range srcs {
		srcs[i] = workload.Mixed(15, int64(i+1)).String()
	}
	e := pipeline.New(pipeline.Config{Workers: 1})
	ctx := context.Background()

	// Warm-up pass: JIT-free Go doesn't need one, but the first pass pays
	// one-time lazy init (page faults, branch predictors); excluding it
	// matches testing.B behavior closely enough for record-keeping.
	for _, src := range srcs {
		if _, err := e.Analyze(ctx, pipeline.Request{Source: src}); err != nil {
			return err
		}
	}
	warm := e.Snapshot()

	start := time.Now()
	for r := 0; r < repeats; r++ {
		for _, src := range srcs {
			if _, err := e.Analyze(ctx, pipeline.Request{Source: src}); err != nil {
				return err
			}
		}
	}
	wall := time.Since(start)
	snap := e.Snapshot()

	rec := stageJSONRecord{
		Benchmark:  "dfg-bench -stagejson (engine per-stage counters, cold cache)",
		Date:       time.Now().UTC().Format("2006-01-02"),
		Workload:   "10 workload.Mixed(15, seed) programs, all default stages",
		Repeats:    repeats,
		Stages:     make(map[string]int64),
		AllocBytes: make(map[string]int64),
		EPR:        snap.EPR,
		WallNS:     wall.Nanoseconds(),
	}
	rec.Env = envinfo.Collect()
	for st, ss := range snap.Stages {
		w := warm.Stages[st]
		perPass := (ss.TotalNS - w.TotalNS) / int64(repeats)
		rec.Stages[string(st)] = perPass
		rec.TotalNS += perPass
		rec.AllocBytes[string(st)] = (ss.AllocBytes - w.AllocBytes) / int64(repeats)
	}

	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("stagejson: wrote %s (%d repeats, %.1fms per cold corpus pass)\n",
		path, repeats, float64(rec.TotalNS)/1e6)
	return nil
}
