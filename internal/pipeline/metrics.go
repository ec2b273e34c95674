package pipeline

import (
	"expvar"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync/atomic"

	"dfg/internal/epr"
	"dfg/internal/store"
)

// stageCounters accumulates per-stage observability counters. All fields
// are atomics so stage execution never serializes on metrics.
type stageCounters struct {
	runs       atomic.Int64
	errors     atomic.Int64
	panics     atomic.Int64
	nanos      atomic.Int64 // total compute time across runs
	allocBytes atomic.Int64 // heap bytes allocated across runs
	allocObjs  atomic.Int64 // heap objects allocated across runs
}

// heapAllocs reads the process-wide cumulative heap allocation counters.
// Per-stage deltas taken from these are approximate twice over: under
// concurrent workers, allocations from an overlapping stage land in
// whichever delta is open; and the runtime only advances the counters
// when an allocation span is refilled, so a single small stage's delta
// can read zero. Totals and averages over many runs converge, which is
// what the snapshot needs to flag an allocation regression without a
// pprof run. (runtime.ReadMemStats would be exact but stops the world on
// every call — too heavy for the per-stage hot path.)
func heapAllocs() (bytes, objects int64) {
	samples := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	rtmetrics.Read(samples)
	return int64(samples[0].Value.Uint64()), int64(samples[1].Value.Uint64())
}

// metrics is the engine-wide counter set. Stage slots are pre-allocated so
// lookup is lock-free.
type metrics struct {
	requests atomic.Int64
	batches  atomic.Int64
	stages   map[Stage]*stageCounters
	epr      eprCounters

	// Report cache counters (AnalyzeReport).
	reportHits     atomic.Int64 // in-memory report-LRU hits
	reportMisses   atomic.Int64 // LRU misses (the store, if any, then a compute)
	storePutErrors atomic.Int64 // store write-through failures (analysis still served)
}

// eprCounters accumulates the EPR engine's solver observability across
// requests: how the incremental DFG maintenance is doing (patches vs full
// rebuild fallbacks), how wide the batched solver's words get, and whether
// any request hit the transformation round cap.
type eprCounters struct {
	patches      atomic.Int64 // in-place DFG patches applied
	rebuilds     atomic.Int64 // full DFG (re)builds, incl. the initial one
	nonConverged atomic.Int64 // requests cut off by the round cap
	solverWords  atomic.Int64 // max lattice width seen, in 64-bit words
	candidates   atomic.Int64 // max per-round candidate count seen
}

func (c *eprCounters) note(st epr.Stats) {
	c.patches.Add(int64(st.DFGPatches))
	c.rebuilds.Add(int64(st.DFGRebuilds))
	if !st.Converged {
		c.nonConverged.Add(1)
	}
	storeMax(&c.solverWords, int64(st.SolverWords))
	storeMax(&c.candidates, int64(st.MaxCandidates))
}

func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func newMetrics() *metrics {
	m := &metrics{stages: make(map[Stage]*stageCounters, len(stageOrder))}
	for _, s := range stageOrder {
		m.stages[s] = &stageCounters{}
	}
	return m
}

func (m *metrics) stage(s Stage) *stageCounters { return m.stages[s] }

// StageStats is the exported snapshot of one stage's counters.
type StageStats struct {
	Runs    int64 `json:"runs"`
	Errors  int64 `json:"errors"`
	Panics  int64 `json:"panics"`
	TotalNS int64 `json:"total_ns"` // compute time summed over runs
	AvgNS   int64 `json:"avg_ns"`   // TotalNS / Runs
	// Heap allocation attributed to this stage's runs (see heapAllocs for
	// the attribution caveat under concurrency).
	AllocBytes    int64 `json:"alloc_bytes"`
	AllocObjects  int64 `json:"alloc_objects"`
	AvgAllocBytes int64 `json:"avg_alloc_bytes"` // AllocBytes / Runs
}

// EPRStats is the exported snapshot of the EPR solver counters.
type EPRStats struct {
	DFGPatches    int64 `json:"dfg_patches"`
	DFGRebuilds   int64 `json:"dfg_rebuilds"`
	NonConverged  int64 `json:"non_converged"`
	MaxWords      int64 `json:"max_solver_words"`
	MaxCandidates int64 `json:"max_candidates"`
}

// ReportCacheStats is the exported snapshot of AnalyzeReport's in-memory
// report LRU. A miss goes on to the persistent store when one is
// configured, and to a compute otherwise.
type ReportCacheStats struct {
	LRUHits   int64 `json:"lru_hits"`
	LRUMisses int64 `json:"lru_misses"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	PutErrors int64 `json:"store_put_errors"`
}

// Snapshot is a point-in-time copy of every engine counter, for /statsz
// and for tests.
type Snapshot struct {
	Requests   int64 `json:"requests"`
	Batches    int64 `json:"batches"`
	GOMAXPROCS int   `json:"gomaxprocs"`
	NumCPU     int   `json:"num_cpu"`

	Stages      map[Stage]StageStats `json:"stages"`
	EPR         EPRStats             `json:"epr"`
	ReportCache ReportCacheStats     `json:"report_cache"`
	// Store appears only on engines configured with a persistent store
	// (cmd/dfg-worker, store-backed dfg-serve).
	Store *store.Stats `json:"store,omitempty"`
}

// Snapshot returns a consistent-enough copy of the engine's counters.
func (e *Engine) Snapshot() Snapshot {
	s := Snapshot{
		Requests:   e.metrics.requests.Load(),
		Batches:    e.metrics.batches.Load(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Stages:     make(map[Stage]StageStats, len(stageOrder)),
	}
	for _, st := range stageOrder {
		c := e.metrics.stage(st)
		ss := StageStats{
			Runs:         c.runs.Load(),
			Errors:       c.errors.Load(),
			Panics:       c.panics.Load(),
			TotalNS:      c.nanos.Load(),
			AllocBytes:   c.allocBytes.Load(),
			AllocObjects: c.allocObjs.Load(),
		}
		if ss.Runs > 0 {
			ss.AvgNS = ss.TotalNS / ss.Runs
			ss.AvgAllocBytes = ss.AllocBytes / ss.Runs
		}
		s.Stages[st] = ss
	}
	s.ReportCache = ReportCacheStats{
		LRUHits:   e.metrics.reportHits.Load(),
		LRUMisses: e.metrics.reportMisses.Load(),
		Entries:   e.reportLRU.len(),
		Capacity:  e.cfg.ReportCacheEntries,
		PutErrors: e.metrics.storePutErrors.Load(),
	}
	if e.cfg.Store != nil {
		st := e.cfg.Store.Stats()
		s.Store = &st
	}
	ec := &e.metrics.epr
	s.EPR = EPRStats{
		DFGPatches:    ec.patches.Load(),
		DFGRebuilds:   ec.rebuilds.Load(),
		NonConverged:  ec.nonConverged.Load(),
		MaxWords:      ec.solverWords.Load(),
		MaxCandidates: ec.candidates.Load(),
	}
	return s
}

// PublishExpvar exports the engine's snapshot under the given expvar name
// (conventionally "pipeline"), making it visible at GET /debug/vars. It is
// a no-op if the name is already published, so repeated engines in one
// process (e.g. tests) never panic the expvar registry.
func (e *Engine) PublishExpvar(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return e.Snapshot() }))
}
