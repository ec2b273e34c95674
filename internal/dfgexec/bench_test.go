package dfgexec

import (
	"testing"

	"dfg/internal/cfg"
	"dfg/internal/dfg"
	"dfg/internal/interp"
	"dfg/internal/workload"
)

// The benchmarks compare the token-driven DFG executor against the direct
// CFG interpreter on the same workload (BENCH_dfgexec.json at commit
// 9ef4bbd recorded the numbers). The executor pays for token queue traffic
// and operator firings per CFG step, so it is expected to be slower — the
// point of the comparison is to keep that overhead factor visible and
// bounded.

var benchInputs = []int64{3, 1, 4, 1, 5, 9, 2, 6}

func benchGraphs(b *testing.B) (*cfg.Graph, *dfg.Graph) {
	b.Helper()
	g, err := cfg.Build(workload.Mixed(15, 1))
	if err != nil {
		b.Fatal(err)
	}
	d, err := dfg.BuildExec(g, dfg.GranRegions)
	if err != nil {
		b.Fatal(err)
	}
	return g, d
}

func BenchmarkCFGInterp(b *testing.B) {
	g, _ := benchGraphs(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := interp.Run(g, benchInputs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDFGExec(b *testing.B) {
	_, d := benchGraphs(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(d, benchInputs, 0); err != nil {
			b.Fatal(err)
		}
	}
}
