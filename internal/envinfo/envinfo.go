// Package envinfo collects the host environment block the performance
// ledger (BENCH_ledger.json, written by dfg-bench -ledger) records next to
// its measurements. Benchmarks on this repository
// are re-run on whatever machine is to hand — single-core CI containers,
// many-core developer boxes — and a number without its GOMAXPROCS/CPU
// context is unusable for comparisons, so the tools stamp it automatically
// instead of relying on hand-edited fields going stale.
package envinfo

import (
	"os"
	"runtime"
	"strings"
)

// Info is the environment block, the ledger's "environment" header.
type Info struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// Collect snapshots the current process environment. GOMAXPROCS is read at
// call time: the ledger's parallel section changes it between measurement
// points, so the ledger collects it before that section runs.
func Collect() Info {
	return Info{
		CPU:        CPUModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// CPUModel returns the "model name" line of /proc/cpuinfo, falling back to
// the architecture string on hosts without procfs.
func CPUModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return runtime.GOARCH
}
