package main

import (
	"context"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"dfg/internal/cfg"
	"dfg/internal/pipeline"
)

// eng is the process-wide analysis engine the experiments build their
// inputs through — the same code path as cmd/dfg and cmd/dfg-serve. Every
// call lowers its source afresh, so each experiment owns the graph it gets
// back.
var eng = pipeline.New(pipeline.Config{})

// reporter accumulates a pass/fail verdict and provides table helpers.
type reporter struct {
	quick  bool
	failed bool
}

// checkf records a shape assertion: cond must hold, otherwise the
// experiment fails with the formatted explanation.
func (r *reporter) checkf(cond bool, format string, args ...any) {
	status := "ok  "
	if !cond {
		status = "FAIL"
		r.failed = true
	}
	fmt.Printf("  [%s] %s\n", status, fmt.Sprintf(format, args...))
}

// notef prints an informational line.
func (r *reporter) notef(format string, args ...any) {
	fmt.Printf("  %s\n", fmt.Sprintf(format, args...))
}

// table renders rows with aligned columns.
func (r *reporter) table(header []string, rows [][]string) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "  ")
	for i, h := range header {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		fmt.Fprint(w, h)
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		fmt.Fprint(w, "  ")
		for i, c := range row {
			if i > 0 {
				fmt.Fprint(w, "\t")
			}
			fmt.Fprint(w, c)
		}
		fmt.Fprintln(w)
	}
	w.Flush()
}

// mustBuild parses and lowers src, exiting on error (experiment inputs are
// fixed programs).
func mustBuild(src string) *cfg.Graph {
	res, err := eng.Analyze(context.Background(), pipeline.Request{
		Source: src,
		Stages: []pipeline.Stage{pipeline.StageCFG},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfg-bench:", err)
		os.Exit(2)
	}
	return res.CFG
}

// timeIt measures fn over enough repetitions to be stable, returning the
// per-run duration.
func timeIt(fn func()) time.Duration {
	// Warm up once.
	fn()
	reps := 1
	for {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		elapsed := time.Since(start)
		if elapsed > 20*time.Millisecond || reps >= 1<<16 {
			return elapsed / time.Duration(reps)
		}
		reps *= 4
	}
}

func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

func dur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	default:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	}
}
