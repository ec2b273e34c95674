package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"dfg/internal/anticip"
	"dfg/internal/backend"
	"dfg/internal/dataflow"
	"dfg/internal/epr"
	"dfg/internal/frontier"
	"dfg/internal/pipeline"
	"dfg/internal/store"
	"dfg/internal/wire"
)

// span is one traced interval. Spans of one request share Req, the
// request's report key; Parent links a span to the span that caused it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Tier   string `json:"tier,omitempty"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a span and returns its ID (IDs start at 1; 0 means no parent).
func (r *recorder) add(parent int, name, req, tier string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req, Tier: tier,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()})
	return id
}

// end sets the end of a span recorded before its children were.
func (r *recorder) end(id int, t time.Time) {
	r.mu.Lock()
	r.spans[id-1].End = t.Sub(r.epoch).Nanoseconds()
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// join makes each span named child a child of the span named parent with
// the same request ID whose interval contains it. Worker spans are
// recorded by the wire handler, which cannot see its caller, so this is
// how the client and worker halves of a request are linked.
func (r *recorder) join(parent, child string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	byReq := map[string][]int{}
	for i := range r.spans {
		if s := &r.spans[i]; s.Name == parent {
			byReq[s.Req] = append(byReq[s.Req], i)
		}
	}
	for _, idx := range byReq {
		sort.Slice(idx, func(a, b int) bool { return r.spans[idx[a]].Start < r.spans[idx[b]].Start })
	}
	for i := range r.spans {
		c := &r.spans[i]
		if c.Name != child || c.Parent != 0 {
			continue
		}
		idx := byReq[c.Req]
		// The latest-starting candidate that starts before the child is the
		// innermost one that can contain it; earlier candidates of a closed
		// loop have already ended.
		j := sort.Search(len(idx), func(k int) bool { return r.spans[idx[k]].Start > c.Start }) - 1
		for ; j >= 0; j-- {
			p := &r.spans[idx[j]]
			if p.End >= c.End {
				c.Parent = p.ID
				break
			}
			if c.Start-p.Start > int64(time.Minute) {
				break
			}
		}
	}
}

// selfTimes returns every span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][][2]int64{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			kids[p] = append(kids[p], [2]int64{spans[i].Start, spans[i].End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, cur int64 = 0, s.Start
		for _, v := range iv {
			lo, hi := max(v[0], cur), min(v[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostedWorker is a dfg-worker hosted in the benchmark process: the same
// engine, store and wire server cmd/dfg-worker builds with its default
// flags, with the wire handler wrapped in a "worker.handle" span.
type hostedWorker struct {
	addr string
	srv  *wire.Server
	done chan struct{}
}

func hostWorker(dir string, reports int, rec *recorder) (*hostedWorker, error) {
	st, err := store.Open(dir, store.Options{Schema: pipeline.ReportSchemaVersion})
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	if reports <= 0 {
		reports = 512
	}
	eng := pipeline.New(pipeline.Config{
		Workers:            workers,
		CacheEntries:       1024,
		ReportCacheEntries: reports,
		DefaultTimeout:     30 * time.Second,
		Store:              st,
	})
	h := backend.Handler(eng)
	traced := func(ctx context.Context, item wire.Item) wire.Result {
		t0 := time.Now()
		res := h(ctx, item)
		rec.add(0, "worker.handle", res.Key, res.Tier, t0, time.Now())
		return res
	}
	srv := wire.NewServer(traced, wire.ServerOptions{
		Schema:   pipeline.ReportSchemaVersion,
		Workers:  workers,
		Name:     "dfg-worker",
		StorePut: backend.StoreHandler(eng),
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w := &hostedWorker{addr: l.Addr().String(), srv: srv, done: make(chan struct{})}
	go func() {
		defer close(w.done)
		srv.Serve(l)
	}()
	return w, nil
}

func (w *hostedWorker) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w.srv.Shutdown(ctx)
	<-w.done
}

func hostPair(dir string, reports int, rec *recorder) ([]*hostedWorker, error) {
	var ws []*hostedWorker
	for _, name := range backendNames {
		w, err := hostWorker(filepath.Join(dir, name), reports, rec)
		if err != nil {
			for _, w := range ws {
				w.close()
			}
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// layerResult is the traced run's output.
type layerResult struct {
	metrics  map[string]metric
	samples  map[string]int
	failures []string
}

func (l *layerResult) set(name string, v float64, unit string, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		l.fail("%s: no samples", name)
		v = 0
	}
	l.metrics[name] = metric{v, unit}
	l.samples[name] = n
}

func (l *layerResult) fail(format string, args ...any) {
	if len(l.failures) < 20 {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
}

// Replay sizes: how many timed requests the frontier replay sends and how
// many compute-tier programs the stage, wire and store replays use.
var frontierReplay = map[string]int{"cold-mixed": 150, "warm-zipf": 3000, "store-churn": 1500}

const layerSample = 48

// runTraced replays the main run's traffic layer by layer. Phases:
//
//	A. the real dfg-serve binary over two hosted workers, same set-up and
//	   half the timed window: http.request spans joined to worker.handle
//	   spans;
//	B. the frontier package over fresh hosted workers, same set-up and the
//	   first frontierReplay timed requests: frontier.analyze spans;
//	C. wire.Client against one hosted worker, the sample through compute,
//	   LRU and (after a restart) store tiers, with the LRU passes repeated
//	   through a single-backend frontier: wire.analyze_batch and
//	   frontier.analyze_one spans;
//	D. the sample through Engine.Analyze without a cache (stage spans from
//	   the engine's own stage timings), Result.Report and json.Marshal,
//	   store.Put/Get on a throwaway store, and Engine.AnalyzeReport from the
//	   store and LRU tiers.
func runTraced(ctx context.Context, c config, m *mainRun, dir string) (*layerResult, error) {
	out := &layerResult{metrics: faultMetrics(m), samples: map[string]int{}}
	rec := newRecorder()
	p := m.plan
	sample := p.Compute
	if len(sample) > layerSample {
		sample = sample[:layerSample]
	}

	httpSelf, tracedP50, err := traceHTTP(ctx, c, p, rec, filepath.Join(dir, "http"))
	if err != nil {
		return nil, err
	}
	untracedP50 := quantile(latenciesMS(m.outs), 0.5)
	out.set("tracing_overhead_pct", (tracedP50/untracedP50-1)*100, "%", len(m.outs))
	var respKB []float64
	for i := range m.outs {
		if m.outs[i].ok() {
			respKB = append(respKB, float64(m.outs[i].size)/1024)
		}
	}
	out.set("http.resp_kb", mean(respKB), "KB", len(respKB))

	frontSelf, err := traceFrontier(ctx, p, rec, m.checker, out, filepath.Join(dir, "frontier"))
	if err != nil {
		return nil, err
	}
	rtt, handle, routeUS, err := traceWire(ctx, sample, rec, m.checker, out, filepath.Join(dir, "wire"))
	if err != nil {
		return nil, err
	}
	out.set("wire.rtt_us", median(rtt), "us", len(rtt))
	for _, t := range []pipeline.ReportTier{pipeline.TierCompute, pipeline.TierLRU, pipeline.TierStore} {
		out.set("worker.handle_ms."+string(t), median(handle[string(t)]), "ms", len(handle[string(t)]))
	}
	out.set("frontier.route_us", routeUS, "us", len(sample)*4)
	out.set("http.edge_us", median(httpSelf)-median(frontSelf), "us", len(httpSelf))

	if err := traceStages(ctx, sample, rec, m.checker, out, filepath.Join(dir, "store")); err != nil {
		return nil, err
	}
	path := filepath.Join(c.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", c.workload, c.seed))
	if err := writeSpans(path, rec.snapshot()); err != nil {
		return nil, err
	}
	fmt.Printf("  spans written to %s\n", path)
	return out, nil
}

// selfOf returns the self times, in µs, of spans named name that have at
// least one joined child.
func selfOf(rec *recorder, name string) []float64 {
	spans := rec.snapshot()
	self := selfTimes(spans)
	hasKid := map[int]bool{}
	for i := range spans {
		hasKid[spans[i].Parent] = true
	}
	var out []float64
	for i := range spans {
		if s := &spans[i]; s.Name == name && hasKid[s.ID] {
			out = append(out, float64(self[s.ID])/float64(time.Microsecond))
		}
	}
	return out
}

// traceHTTP is phase A. It returns the self times (µs) of http.request
// spans and the traced window's p50 latency (ms).
func traceHTTP(ctx context.Context, c config, p *plan, rec *recorder, dir string) ([]float64, float64, error) {
	ws, err := hostPair(dir, p.Reports, rec)
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		for _, w := range ws {
			w.close()
		}
	}()
	var backends []string
	for i, w := range ws {
		backends = append(backends, backendNames[i]+"="+w.addr)
	}
	hc := httpClient(p.Clients)
	defer hc.CloseIdleConnections()
	d, err := startServe(c.bin, dir, backends, hc)
	if err != nil {
		return nil, 0, err
	}
	defer d.stop()
	drive(ctx, hc, d.url, p.Prefill, p.Clients, 0, nil)
	drive(ctx, hc, d.url, p.Warmup, p.Clients, 0, nil)
	outs, _ := drive(ctx, hc, d.url, p.Timed, p.Clients, time.Duration(c.seconds)*time.Second/2, nil)
	for i := range outs {
		o := &outs[i]
		// A re-sent request's span would hold its failed attempts too.
		if o.ok() && o.tries == 1 {
			rec.add(0, "http.request", o.req.Key, "", o.start, o.start.Add(o.latency))
		}
	}
	rec.join("http.request", "worker.handle")
	return selfOf(rec, "http.request"), quantile(latenciesMS(outs), 0.5), ctx.Err()
}

// traceFrontier is phase B. It returns the self times (µs) of
// frontier.analyze spans.
func traceFrontier(ctx context.Context, p *plan, rec *recorder, chk *checker, out *layerResult, dir string) ([]float64, error) {
	ws, err := hostPair(dir, p.Reports, rec)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, w := range ws {
			w.close()
		}
	}()
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var addrs []string
	for _, w := range ws {
		addrs = append(addrs, w.addr)
	}
	f := frontier.New(fctx, frontier.Config{Backends: addrs, Names: backendNames})

	timed := p.Timed
	if n := frontierReplay[p.Name]; len(timed) > n {
		timed = timed[:n]
	}
	seq := append(append(append([]*request(nil), p.Prefill...), p.Warmup...), timed...)
	var mu sync.Mutex
	var wg sync.WaitGroup
	next, failed := 0, 0
	for cl := 0; cl < p.Clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(seq) || fctx.Err() != nil {
					return
				}
				r := seq[i]
				// dfg-serve forwards its -timeout (10s by default) with each item.
				item := backend.Item(r.Source, nil, pipeline.Options{SourceKind: r.Kind}, 10*time.Second)
				t0 := time.Now()
				res, err := f.Analyze(fctx, r.Key, item)
				rec.add(0, "frontier.analyze", r.Key, res.Tier, t0, time.Now())
				mu.Lock()
				switch {
				case err != nil:
					// A transport failure is one of the faults the main
					// run counts, not a wrong answer.
					failed++
				case !res.OK:
					out.fail("frontier replay %s: %s", short(r.Key), res.Error)
				case chk.reports[r.Key] != nil && string(chk.reports[r.Key]) != string(res.Report):
					out.fail("frontier replay %s: report differs from the served report", short(r.Key))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	fmt.Printf("  frontier replay: %d requests, %d failed in transport\n", len(seq), failed)
	rec.join("frontier.analyze", "worker.handle")
	return selfOf(rec, "frontier.analyze"), ctx.Err()
}

// traceWire is phase C. It returns the self times (µs) of the
// wire.analyze_batch spans, the worker.handle durations (ms) by tier, and
// the frontier's own time per request (µs): the median, over pairs of
// calls for the same item and tier on the same worker, of the self time of
// Frontier.Analyze minus that of wire.Client.AnalyzeBatch.
func traceWire(ctx context.Context, sample []*request, rec *recorder, chk *checker, out *layerResult, dir string) (rtt []float64, handle map[string][]float64, routeUS float64, err error) {
	before := len(rec.snapshot())
	check := func(via string, r *request, res wire.Result) {
		if !res.OK {
			out.fail("%s replay %s: %s", via, short(r.Key), res.Error)
		} else if want := chk.reports[r.Key]; want != nil && string(want) != string(res.Report) {
			out.fail("%s replay %s (%s tier): report differs from the served report", via, short(r.Key), res.Tier)
		}
	}
	wirePass := func(w *hostedWorker) error {
		cl, err := wire.Dial(w.addr, wire.ClientOptions{Schema: pipeline.ReportSchemaVersion})
		if err != nil {
			return err
		}
		defer cl.Close()
		for _, r := range sample {
			item := backend.Item(r.Source, nil, pipeline.Options{SourceKind: r.Kind}, 10*time.Second)
			var res wire.Result
			t0 := time.Now()
			err := cl.AnalyzeBatch(ctx, []wire.Item{item}, func(x wire.Result) { res = x })
			rec.add(0, "wire.analyze_batch", r.Key, res.Tier, t0, time.Now())
			if err != nil {
				return fmt.Errorf("wire replay: %w", err)
			}
			check("wire", r, res)
		}
		return nil
	}
	frontierPass := func(f *frontier.Frontier) error {
		for _, r := range sample {
			item := backend.Item(r.Source, nil, pipeline.Options{SourceKind: r.Kind}, 10*time.Second)
			t0 := time.Now()
			res, err := f.Analyze(ctx, r.Key, item)
			rec.add(0, "frontier.analyze_one", r.Key, res.Tier, t0, time.Now())
			if err != nil {
				return fmt.Errorf("frontier replay: %w", err)
			}
			check("frontier", r, res)
		}
		return nil
	}
	// The worker keeps the default report LRU whatever the workload, so
	// the passes after the first are served from it. Each pass is well
	// under the 5 s after which a wire connection breaks (see README.md).
	w, err := hostWorker(dir, 0, rec)
	if err != nil {
		return nil, nil, 0, err
	}
	fctx, cancel := context.WithCancel(ctx)
	f := frontier.New(fctx, frontier.Config{Backends: []string{w.addr}, Names: backendNames[:1]})
	err = wirePass(w) // compute
	for rep := 0; rep < 4 && err == nil; rep++ {
		if err = wirePass(w); err == nil {
			err = frontierPass(f)
		}
	}
	cancel()
	w.close()
	if err != nil {
		return nil, nil, 0, err
	}
	if w, err = hostWorker(dir, 0, rec); err != nil {
		return nil, nil, 0, err
	}
	err = wirePass(w) // store, after the restart
	w.close()
	if err != nil {
		return nil, nil, 0, err
	}
	rec.join("wire.analyze_batch", "worker.handle")
	rec.join("frontier.analyze_one", "worker.handle")
	all := rec.snapshot()
	self := selfTimes(all)
	handle = map[string][]float64{}
	var wireLRU, frontLRU []float64 // in call order: pass by pass, item by item
	for i := range all[before:] {
		s := &all[before+i]
		us := float64(self[s.ID]) / float64(time.Microsecond)
		switch s.Name {
		case "wire.analyze_batch":
			rtt = append(rtt, us)
			if s.Tier == string(pipeline.TierLRU) {
				wireLRU = append(wireLRU, us)
			}
		case "frontier.analyze_one":
			frontLRU = append(frontLRU, us)
		case "worker.handle":
			handle[s.Tier] = append(handle[s.Tier], float64(s.dur())/float64(time.Millisecond))
		}
	}
	if len(wireLRU) != len(frontLRU) {
		return nil, nil, 0, fmt.Errorf("wire replay: %d LRU-tier wire calls, %d frontier calls", len(wireLRU), len(frontLRU))
	}
	diff := make([]float64, len(wireLRU))
	for i := range diff {
		diff[i] = frontLRU[i] - wireLRU[i]
	}
	return rtt, handle, median(diff), ctx.Err()
}

// stageCounts are one program's operation counts.
type stageCounts struct {
	edges, vars, deps, solverOps int
	rounds, rebuilds, patches    int
	converged                    bool
}

// stageEngine computes programs the way a worker does on a compute-tier
// miss, minus the cache: every stage is computed, with intra-program
// parallelism intra. The returned function records a span per stage under
// parent, starting when the engine's StageHook fires and lasting the
// stage's compute time as the engine measured it (Result.Stages).
func stageEngine(intra int, rec *recorder) func(context.Context, *request, int) (*pipeline.Result, error) {
	starts := map[pipeline.Stage]time.Time{}
	eng := pipeline.New(pipeline.Config{
		DisableCache: true,
		IntraWorkers: intra,
		StageHook:    func(st pipeline.Stage, _ string) { starts[st] = time.Now() },
	})
	return func(ctx context.Context, r *request, parent int) (*pipeline.Result, error) {
		clear(starts)
		res, err := eng.Analyze(ctx, pipeline.Request{Source: r.Source, Options: pipeline.Options{SourceKind: r.Kind}})
		if err != nil {
			return nil, err
		}
		for st, info := range res.Stages {
			rec.add(parent, "stage."+string(st), r.Key, "", starts[st], starts[st].Add(info.Duration))
		}
		return res, nil
	}
}

// countOps reads a computed program's operation counts. The anticipatability
// solver's work is not part of the Result, so the solve the anticip stage
// runs is repeated, untimed, with a counter and the same intra branch.
func countOps(res *pipeline.Result, intra int) stageCounts {
	fam := anticip.NewFamily(res.CFG, epr.CandidateExprs(res.CFG))
	var cost dataflow.Counter
	if intra > 1 {
		fam.SolveDFGOpsParallel(res.DFG, res.DFG.OpsByVar(), nil, intra, &cost)
	} else {
		fam.SolveDFG(res.DFG, &cost)
	}
	return stageCounts{
		edges:     res.CFG.NumEdges(),
		vars:      len(res.CFG.VarNames),
		deps:      res.DFG.ComputeStats().Dependences,
		solverOps: cost.Total(),
		rounds:    res.EPR.Stats.Rounds,
		rebuilds:  res.EPR.Stats.DFGRebuilds,
		patches:   res.EPR.Stats.DFGPatches,
		converged: res.EPR.Stats.Converged,
	}
}

// heapAllocBytes reads the cumulative bytes allocated on the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// traceStages is phase D.
func traceStages(ctx context.Context, sample []*request, rec *recorder, chk *checker, out *layerResult, dir string) error {
	intra := runtime.GOMAXPROCS(0)
	analyze := stageEngine(intra, rec)
	before := len(rec.snapshot())
	var allocMB []float64
	var sum stageCounts
	nonConv := 0
	var evSum float64
	raws := make([][]byte, len(sample))
	for i, r := range sample {
		t0 := time.Now()
		a0 := heapAllocBytes()
		root := rec.add(0, "program", r.Key, "", t0, t0) // ended after encoding
		res, err := analyze(ctx, r, root)
		allocMB = append(allocMB, float64(heapAllocBytes()-a0)/(1<<20))
		if err != nil {
			return fmt.Errorf("stage replay of %s: %w", short(r.Key), err)
		}
		e0 := time.Now()
		rep := res.Report()
		raw, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		end := time.Now()
		rec.add(root, "pipeline.report_encode", r.Key, "", e0, end)
		rec.end(root, end)
		cnt := countOps(res, intra)
		raws[i] = raw
		if want := chk.reports[r.Key]; want != nil && string(want) != string(raw) {
			out.fail("stage replay %s: report differs from the served report", short(r.Key))
		}
		sum.edges += cnt.edges
		sum.vars += cnt.vars
		sum.deps += cnt.deps
		sum.solverOps += cnt.solverOps
		sum.rounds += cnt.rounds
		sum.rebuilds += cnt.rebuilds
		sum.patches += cnt.patches
		if !cnt.converged {
			nonConv++
		}
		evSum += float64(cnt.edges) * float64(cnt.vars)
		if err := ctx.Err(); err != nil {
			return err
		}
	}

	st, err := store.Open(dir, store.Options{Schema: pipeline.ReportSchemaVersion})
	if err != nil {
		return err
	}
	for i, r := range sample {
		t0 := time.Now()
		if err := st.Put(r.Key, raws[i]); err != nil {
			return fmt.Errorf("store put: %w", err)
		}
		rec.add(0, "store.put", r.Key, "", t0, time.Now())
	}
	for i, r := range sample {
		t0 := time.Now()
		got, ok := st.Get(r.Key)
		rec.add(0, "store.get", r.Key, "", t0, time.Now())
		if !ok || string(got) != string(raws[i]) {
			out.fail("store replay %s: Get did not return the Put bytes", short(r.Key))
		}
	}
	eng := pipeline.New(pipeline.Config{Store: st})
	for pass := 0; pass < 2; pass++ { // store tier, then the report LRU
		for i, r := range sample {
			t0 := time.Now()
			rr, err := eng.AnalyzeReport(ctx, pipeline.Request{Source: r.Source, Options: pipeline.Options{SourceKind: r.Kind}})
			end := time.Now()
			if err != nil {
				return fmt.Errorf("pipeline replay: %w", err)
			}
			rec.add(0, "pipeline.analyze_report", r.Key, string(rr.Tier), t0, end)
			if string(rr.Raw) != string(raws[i]) {
				out.fail("pipeline replay %s (%s tier): report differs", short(r.Key), rr.Tier)
			}
		}
	}

	spans := rec.snapshot()[before:]
	byName := map[string][]float64{}
	tierUS := map[string][]float64{}
	var reportKB []float64
	for i := range spans {
		s := &spans[i]
		ms := float64(s.dur()) / float64(time.Millisecond)
		byName[s.Name] = append(byName[s.Name], ms)
		if s.Name == "pipeline.analyze_report" {
			tierUS[s.Tier] = append(tierUS[s.Tier], ms*1000)
		}
	}
	for _, raw := range raws {
		reportKB = append(reportKB, float64(len(raw))/1024)
	}
	n := len(sample)
	for _, st := range pipeline.AllStages() {
		name := "stage." + string(st)
		out.set(name+"_ms", mean(byName[name]), "ms", len(byName[name]))
	}
	out.set("stage.alloc_mb", mean(allocMB), "MB", n)
	perProg := func(v int) float64 { return float64(v) / float64(n) }
	out.set("cfg.edges", perProg(sum.edges), "count", n)
	out.set("cfg.vars", perProg(sum.vars), "count", n)
	out.set("dfg.dependences", perProg(sum.deps), "count", n)
	out.set("anticip.solver_ops", perProg(sum.solverOps), "count", n)
	out.set("anticip.ops_per_ev", float64(sum.solverOps)/evSum, "ratio", n)
	out.set("epr.rounds", perProg(sum.rounds), "count", n)
	out.set("epr.dfg_rebuilds", perProg(sum.rebuilds), "count", n)
	out.set("epr.dfg_patches", perProg(sum.patches), "count", n)
	out.set("epr.nonconverged_share", perProg(nonConv), "share", n)
	out.set("pipeline.report_encode_ms", mean(byName["pipeline.report_encode"]), "ms", n)
	out.set("pipeline.report_kb", mean(reportKB), "KB", n)
	out.set("pipeline.store_hit_us", median(tierUS[string(pipeline.TierStore)]), "us", len(tierUS[string(pipeline.TierStore)]))
	out.set("pipeline.lru_hit_us", median(tierUS[string(pipeline.TierLRU)]), "us", len(tierUS[string(pipeline.TierLRU)]))
	out.set("store.put_ms", median(byName["store.put"]), "ms", n)
	out.set("store.get_us", median(byName["store.get"])*1000, "us", n)
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
