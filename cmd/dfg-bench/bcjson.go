package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"dfg/internal/bccompile"
	"dfg/internal/bcfront"
	"dfg/internal/bytecode"
	"dfg/internal/envinfo"
	"dfg/internal/lang/parser"
	"dfg/internal/pipeline"
	"dfg/internal/workload"
)

// Bytecode-frontend timing: the machine-readable record behind
// BENCH_bytecode.json. It times the three frontend phases separately —
// AST-to-bytecode compilation, CFG recovery by abstract interpretation, and
// the full cold pipeline entered through each frontend — over the same
// corpus shape the per-stage record uses, plus irreducible programs (the
// control flow the recovered-CFG path exists for).

// bytecodeJSONRecord is the emitted document.
type bytecodeJSONRecord struct {
	Benchmark string       `json:"benchmark"`
	Date      string       `json:"date"`
	Workload  string       `json:"workload"`
	Repeats   int          `json:"repeats"`
	Env       envinfo.Info `json:"environment"`
	Programs  int          `json:"programs"`
	// Static corpus shape, summed over the corpus.
	CodeBytes int `json:"code_bytes"`
	Instrs    int `json:"instrs"`
	Blocks    int `json:"blocks"`
	// Phase timings: nanoseconds for one pass over the corpus (total across
	// repeats divided by repeats).
	CompileNS int64 `json:"compile_ns_per_corpus_pass"`
	RecoverNS int64 `json:"recover_ns_per_corpus_pass"`
	// Full cold-cache pipeline runs (all default stages) entered through
	// the bytecode frontend, and through the source frontend as a baseline
	// over the same programs.
	AnalyzeBytecodeNS int64 `json:"analyze_bytecode_ns_per_corpus_pass"`
	AnalyzeSourceNS   int64 `json:"analyze_source_ns_per_corpus_pass"`
	WallNS            int64 `json:"wall_ns"`
}

func runBytecodeJSON(path string, repeats int) error {
	// 8 structured programs (the same family -stagejson times) plus 2
	// goto-heavy irreducible ones, the workload that motivates recovery.
	type prog struct {
		src string
		asm string
		bc  *bytecode.Program
	}
	var corpus []prog
	add := func(src string) error {
		a, err := parser.Parse(src)
		if err != nil {
			return err
		}
		bc, err := bccompile.Compile(a)
		if err != nil {
			return err
		}
		asm, err := bytecode.Disassemble(bc)
		if err != nil {
			return err
		}
		corpus = append(corpus, prog{src: src, asm: asm, bc: bc})
		return nil
	}
	for i := 0; i < 8; i++ {
		if err := add(workload.Mixed(15, int64(i+1)).String()); err != nil {
			return err
		}
	}
	for i := 0; i < 2; i++ {
		if err := add(workload.Irreducible(15, int64(i+1)).String()); err != nil {
			return err
		}
	}

	rec := bytecodeJSONRecord{
		Benchmark: "dfg-bench -bytecode (compile, recover, cold pipeline via each frontend)",
		Date:      time.Now().UTC().Format("2006-01-02"),
		Workload:  "8 workload.Mixed(15, seed) + 2 workload.Irreducible(15, seed) programs",
		Repeats:   repeats,
		Programs:  len(corpus),
		Env:       envinfo.Collect(),
	}
	for _, p := range corpus {
		info, err := bcfront.Recover(p.bc)
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		rec.CodeBytes += len(p.bc.Code)
		rec.Instrs += info.Instrs
		rec.Blocks += info.Blocks
	}

	ctx := context.Background()
	ebc := pipeline.New(pipeline.Config{Workers: 1})
	esrc := pipeline.New(pipeline.Config{Workers: 1})
	bcReq := func(p prog) pipeline.Request {
		return pipeline.Request{
			Source:  p.asm,
			Options: pipeline.Options{SourceKind: pipeline.KindBytecode},
		}
	}
	// Warm-up pass, mirroring -stagejson: the first pass pays one-time lazy
	// init and is excluded from the record.
	for _, p := range corpus {
		if _, err := ebc.Analyze(ctx, bcReq(p)); err != nil {
			return err
		}
		if _, err := esrc.Analyze(ctx, pipeline.Request{Source: p.src}); err != nil {
			return err
		}
	}

	start := time.Now()
	for r := 0; r < repeats; r++ {
		t0 := time.Now()
		for _, p := range corpus {
			a, err := parser.Parse(p.src)
			if err != nil {
				return err
			}
			if _, err := bccompile.Compile(a); err != nil {
				return err
			}
		}
		rec.CompileNS += time.Since(t0).Nanoseconds()

		t0 = time.Now()
		for _, p := range corpus {
			if _, err := bcfront.Recover(p.bc); err != nil {
				return err
			}
		}
		rec.RecoverNS += time.Since(t0).Nanoseconds()

		t0 = time.Now()
		for _, p := range corpus {
			if _, err := ebc.Analyze(ctx, bcReq(p)); err != nil {
				return err
			}
		}
		rec.AnalyzeBytecodeNS += time.Since(t0).Nanoseconds()

		t0 = time.Now()
		for _, p := range corpus {
			if _, err := esrc.Analyze(ctx, pipeline.Request{Source: p.src}); err != nil {
				return err
			}
		}
		rec.AnalyzeSourceNS += time.Since(t0).Nanoseconds()
	}
	rec.WallNS = time.Since(start).Nanoseconds()
	rec.CompileNS /= int64(repeats)
	rec.RecoverNS /= int64(repeats)
	rec.AnalyzeBytecodeNS /= int64(repeats)
	rec.AnalyzeSourceNS /= int64(repeats)

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
	fmt.Printf("bytecode: wrote %s (%d repeats; compile %.2fms, recover %.2fms, analyze %.1fms per corpus pass)\n",
		path, repeats, float64(rec.CompileNS)/1e6, float64(rec.RecoverNS)/1e6, float64(rec.AnalyzeBytecodeNS)/1e6)
	return nil
}
