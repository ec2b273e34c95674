// Command dfg-bench regenerates every experiment in EXPERIMENTS.md — one
// per figure or complexity claim in Johnson & Pingali (PLDI 1993). Each
// experiment prints the table or per-edge listing the paper's artifact
// corresponds to, followed by a PASS/FAIL verdict on the qualitative shape
// (who wins, how ratios grow, which partitions coincide).
//
// Usage:
//
//	dfg-bench [-exp E1|E2|...|E14|all] [-quick] [-cpuprofile f] [-memprofile f]
//	dfg-bench -ledger BENCH_ledger.json [-repeats n]
//
// -quick shrinks the scaling sweeps (used by the repository's tests to keep
// CI fast); the full sweeps take a few seconds. -cpuprofile and -memprofile
// write pprof profiles covering the selected experiments, for digging into
// a regression the pipeline's alloc counters or the bench smoke surfaced.
// -ledger skips the experiments and writes the performance ledger (see
// ledger.go): per-stage cold timings and corpus sizes, the bytecode
// frontend's phases, and the GOMAXPROCS parallelism sweep, whose gates fail
// the process when one reads FAIL.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
)

var (
	flagExp    = flag.String("exp", "all", "experiment id (E1..E14) or all")
	flagQuick  = flag.Bool("quick", false, "smaller scaling sweeps")
	flagCPU    = flag.String("cpuprofile", "", "write a CPU profile to this file")
	flagMem    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	flagLedger = flag.String("ledger", "", "skip experiments; write the performance ledger (BENCH_ledger.json) to this file ('-' for stdout)")
	flagReps   = flag.Int("repeats", 5, "passes per -ledger section (averaged, or best-of for sweep points)")
)

// experiment couples an id with its runner. Runners return an error only
// for infrastructure failures; shape-check failures print FAIL and set the
// process exit code via the failed counter.
type experiment struct {
	id    string
	title string
	run   func(*reporter)
}

// experiments lists the paper reproductions in report order.
var experiments = []experiment{
	{"E1", "Figure 1: def-use chains vs SSA vs DFG on the running example", expE1},
	{"E2", "Figure 2: DFG construction stages (base level, bypassing, dead-edge removal)", expE2},
	{"E3", "Figure 3: all-paths vs possible-paths constants", expE3},
	{"E4", "§4: constant propagation cost, CFG O(EV²) vs DFG O(EV)", expE4},
	{"E5", "Figure 6: single-variable anticipatability", expE5},
	{"E6", "Figure 7: multivariable anticipatability", expE6},
	{"E7", "§5.2: elimination of partial redundancies (CSE, if-shape, loop invariant)", expE7},
	{"E8", "§3.1: cycle equivalence and factored CDG in O(E)", expE8},
	{"E9", "§3.3: SSA via the DFG equals Cytron SSA, in O(EV)", expE9},
	{"E10", "§1/§2: representation sizes — def-use O(E²V) vs SSA/DFG O(EV)", expE10},
	{"E11", "§4 extension: predicate analysis (x == c)", expE11},
	{"E12", "§1: staged redundancy elimination (the w=a+b → y=w+1 chain)", expE12},
	{"E13", "§3.3 ablation: region bypassing granularity (regions / basic blocks / none)", expE13},
	{"E14", "placement ablation: busy (earliest) vs lazy (latest) code motion in EPR", expE14},
}

func main() {
	// run does the real work and returns the exit code; main stays a thin
	// shell so run's deferred profile writers execute before os.Exit.
	os.Exit(run())
}

func run() int {
	flag.Parse()
	if *flagCPU != "" {
		f, err := os.Create(*flagCPU)
		if err != nil {
			log.Printf("dfg-bench: -cpuprofile: %v", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			log.Printf("dfg-bench: -cpuprofile: %v", err)
			return 2
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *flagMem == "" {
			return
		}
		f, err := os.Create(*flagMem)
		if err != nil {
			log.Printf("dfg-bench: -memprofile: %v", err)
			return
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile reflects live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Printf("dfg-bench: -memprofile: %v", err)
		}
	}()
	if *flagLedger != "" {
		failed, err := runLedger(*flagLedger, *flagReps)
		if err != nil {
			log.Printf("dfg-bench: -ledger: %v", err)
			return 2
		}
		if failed > 0 {
			log.Printf("dfg-bench: -ledger: %d gate(s) failed", failed)
			return 1
		}
		return 0
	}
	failed := 0
	ran := 0
	for _, e := range experiments {
		if *flagExp != "all" && !strings.EqualFold(*flagExp, e.id) {
			continue
		}
		ran++
		r := &reporter{quick: *flagQuick}
		fmt.Printf("==================================================================\n%s — %s\n==================================================================\n", e.id, e.title)
		e.run(r)
		if r.failed {
			failed++
			fmt.Printf("%s: FAIL\n\n", e.id)
		} else {
			fmt.Printf("%s: PASS\n\n", e.id)
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "dfg-bench: unknown experiment %q\n", *flagExp)
		return 2
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "dfg-bench: %d experiment(s) failed\n", failed)
		return 1
	}
	return 0
}
