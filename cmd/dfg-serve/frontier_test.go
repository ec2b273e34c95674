package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dfg/internal/backend"
	"dfg/internal/frontier"
	"dfg/internal/pipeline"
	"dfg/internal/store"
	"dfg/internal/wire"
	"dfg/internal/workload"
)

// testWorker is one in-process dfg-worker: a real engine (optionally with a
// persistent store) behind a real wire server on loopback TCP.
type testWorker struct {
	addr string
	eng  *pipeline.Engine
	srv  *wire.Server
}

// startTestWorker spins a worker up. dir == "" runs without a store;
// slowdown > 0 delays every item (for in-flight/dedup tests).
func startTestWorker(t *testing.T, dir string, slowdown time.Duration) *testWorker {
	t.Helper()
	return startStraggler(t, dir, slowdown, nil)
}

// startStraggler is startTestWorker with the slowdown applied only to the
// programs in slow; a nil set delays every item.
func startStraggler(t *testing.T, dir string, slowdown time.Duration, slow map[string]bool) *testWorker {
	t.Helper()
	cfg := pipeline.Config{}
	if dir != "" {
		st, err := store.Open(dir, store.Options{Schema: pipeline.ReportSchemaVersion, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	eng := pipeline.New(cfg)
	h := backend.Handler(eng)
	if slowdown > 0 {
		inner := h
		h = func(ctx context.Context, item wire.Item) wire.Result {
			if slow == nil || slow[item.Program] {
				time.Sleep(slowdown)
			}
			return inner(ctx, item)
		}
	}
	return startEngineWorker(t, eng, h)
}

// startEngineWorker serves h, a wire handler over eng, on loopback.
func startEngineWorker(t *testing.T, eng *pipeline.Engine, h wire.Handler) *testWorker {
	t.Helper()
	srv := wire.NewServer(h, wire.ServerOptions{
		Schema:   pipeline.ReportSchemaVersion,
		Name:     "test-worker",
		StorePut: backend.StoreHandler(eng),
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return &testWorker{addr: l.Addr().String(), eng: eng, srv: srv}
}

// startFrontier builds a frontier over the given workers plus its HTTP mux.
func startFrontier(t *testing.T, workers ...*testWorker) (*httptest.Server, *frontier.Frontier) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	addrs := make([]string, len(workers))
	for i, w := range workers {
		addrs[i] = w.addr
	}
	f := frontier.New(ctx, frontier.Config{
		Backends:       addrs,
		HealthInterval: 100 * time.Millisecond,
		DialTimeout:    time.Second,
	})
	ts := httptest.NewServer(newMux(pipeline.New(pipeline.Config{}), serverOptions{Frontier: f}))
	t.Cleanup(ts.Close)
	return ts, f
}

// TestFrontierDifferential is the end-to-end acceptance criterion: a batch
// analyzed through frontier + 2 workers over the wire protocol produces
// byte-identical Report JSON to the in-process engine.
func TestFrontierDifferential(t *testing.T) {
	w1 := startTestWorker(t, t.TempDir(), 0)
	w2 := startTestWorker(t, t.TempDir(), 0)
	ts, f := startFrontier(t, w1, w2)

	const n = 16
	breq := batchRequest{}
	want := make([][]byte, n)
	for i := 0; i < n; i++ {
		src := workload.Mixed(12, int64(100+i)).String()
		breq.Requests = append(breq.Requests, analyzeRequest{Program: src})
		want[i], _ = expectedAnswer(t, analyzeRequest{Program: src})
	}
	body, _ := json.Marshal(breq)
	resp, err := http.Post(ts.URL+"/analyze/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var bresp batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&bresp); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !bresp.OK || len(bresp.Results) != n {
		t.Fatalf("batch: status=%d ok=%v results=%d", resp.StatusCode, bresp.OK, len(bresp.Results))
	}
	for i, r := range bresp.Results {
		if !r.OK {
			t.Fatalf("result %d failed: %s", i, r.Error)
		}
		if got := compactJSON(t, r.Report); !bytes.Equal(got, want[i]) {
			t.Fatalf("result %d: sharded report differs from in-process:\n%s\n%s", i, got, want[i])
		}
	}

	// Every item was routed, none errored. (Placement balance is asserted
	// in internal/frontier's TestPlacementBalance over stable names; the
	// backends here are named by their random ports, and rendezvous hashing
	// may legally place all 16 keys on one of the two.)
	st := f.Stats()
	var total int64
	for _, b := range st.Backends {
		total += b.Requests
	}
	if total != n {
		t.Fatalf("backends saw %d requests, want %d: %+v", total, int64(n), st)
	}
	if st.RoutedErr != 0 {
		t.Fatalf("routing errors on a healthy fleet: %+v", st)
	}

	// Single /analyze requests agree too, and repeat requests hit a cache
	// tier on the same worker (routing stability).
	src := breq.Requests[0].Program
	for round, wantTier := range []string{"", string(pipeline.TierLRU)} {
		code, out := postAnalyze(t, ts, reqBody(t, analyzeRequest{Program: src}))
		if code != http.StatusOK || !out.OK {
			t.Fatalf("round %d: status=%d error=%q", round, code, out.Error)
		}
		if !bytes.Equal(compactJSON(t, out.Report), want[0]) {
			t.Fatalf("round %d: /analyze report differs from in-process", round)
		}
		if wantTier != "" && out.Tier != wantTier {
			t.Fatalf("round %d: tier = %q, want %q (routing must be sticky)", round, out.Tier, wantTier)
		}
	}
}

// TestFrontierWorkerRestartRetry is the fault-tolerance acceptance
// criterion: killing a worker mid-run is retried transparently on the other
// replica with no client-visible error.
func TestFrontierWorkerRestartRetry(t *testing.T) {
	w1 := startTestWorker(t, "", 20*time.Millisecond)
	w2 := startTestWorker(t, "", 20*time.Millisecond)
	ts, f := startFrontier(t, w1, w2)

	const n = 24
	var wg sync.WaitGroup
	errs := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := workload.Mixed(8, int64(500+i)).String()
			code, out := postAnalyze(t, ts, reqBody(t, analyzeRequest{Program: src}))
			if code != http.StatusOK || !out.OK {
				errs[i] = fmt.Sprintf("status=%d error=%q", code, out.Error)
			}
		}(i)
	}
	// Kill one worker abruptly (no drain) while requests are in flight.
	time.Sleep(30 * time.Millisecond)
	w1.srv.Close()
	wg.Wait()

	for i, e := range errs {
		if e != "" {
			t.Fatalf("request %d saw a client-visible error across worker death: %s", i, e)
		}
	}
	st := f.Stats()
	if st.RoutedErr != 0 {
		t.Fatalf("requests exhausted all replicas: %+v", st)
	}
	// The dead backend must be marked unhealthy (by failure or by the
	// health checker) and the survivor healthy.
	deadline := time.After(2 * time.Second)
	for {
		st = f.Stats()
		var dead, alive bool
		for _, b := range st.Backends {
			if b.Addr == w1.addr {
				dead = !b.Healthy
			} else {
				alive = b.Healthy
			}
		}
		if dead && alive {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("health state never settled: %+v", st)
		case <-time.After(20 * time.Millisecond):
		}
	}

	// And the fleet keeps serving afterwards.
	code, out := postAnalyze(t, ts, reqBody(t, analyzeRequest{Program: "read a; print a + 1;"}))
	if code != http.StatusOK || !out.OK {
		t.Fatalf("fleet stopped serving after worker death: status=%d error=%q", code, out.Error)
	}
}

// TestFrontierBatchSurvivesWorkerDeath: each /analyze/batch slot is routed
// on its own, so a slot whose backend dies mid-batch fails over to the
// next replica like a single request.
func TestFrontierBatchSurvivesWorkerDeath(t *testing.T) {
	w1 := startTestWorker(t, "", 15*time.Millisecond)
	w2 := startTestWorker(t, "", 15*time.Millisecond)
	ts, _ := startFrontier(t, w1, w2)

	breq := batchRequest{}
	for i := 0; i < 12; i++ {
		breq.Requests = append(breq.Requests, analyzeRequest{Program: workload.Mixed(8, int64(900+i)).String()})
	}
	body, _ := json.Marshal(breq)
	done := make(chan struct{})
	var bresp batchResponse
	var status int
	go func() {
		defer close(done)
		resp, err := http.Post(ts.URL+"/analyze/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			return
		}
		defer resp.Body.Close()
		status = resp.StatusCode
		json.NewDecoder(resp.Body).Decode(&bresp)
	}()
	time.Sleep(25 * time.Millisecond)
	w2.srv.Close()
	<-done

	if status != http.StatusOK || !bresp.OK {
		t.Fatalf("batch failed: status=%d %+v", status, bresp.Error)
	}
	for i, r := range bresp.Results {
		if !r.OK {
			t.Fatalf("batch item %d failed across worker death: %s", i, r.Error)
		}
	}
}

// TestBatchSlotsTakeTheRoute: batch slots go through the same route as
// single requests. Copies of one slow program in a batch share one backend
// execution, and a slot owned by a straggler is hedged. The serving engine
// has 4 workers so that slots overlap on any host.
func TestBatchSlotsTakeTheRoute(t *testing.T) {
	serve := func(cfg frontier.Config, workers ...*testWorker) (*httptest.Server, *frontier.Frontier) {
		_, f := startFrontierWith(t, cfg, workers...)
		ts := httptest.NewServer(newMux(pipeline.New(pipeline.Config{Workers: 4}), serverOptions{Frontier: f}))
		t.Cleanup(ts.Close)
		return ts, f
	}
	backendReqs := func(f *frontier.Frontier) (n int64) {
		for _, b := range f.Stats().Backends {
			n += b.Requests
		}
		return n
	}

	t.Run("dedup", func(t *testing.T) {
		ts, f := serve(frontier.Config{}, startTestWorker(t, "", 200*time.Millisecond))
		const slots = 6
		var breq batchRequest
		for i := 0; i < slots; i++ {
			breq.Requests = append(breq.Requests, analyzeRequest{Program: "read a; b := a * 5; print b;"})
		}
		for i, r := range postBatch(t, ts, breq).Results {
			if !r.OK {
				t.Fatalf("slot %d: %s", i, r.Error)
			}
		}
		if st := f.Stats(); st.Dedups == 0 {
			t.Fatalf("no singleflight dedups across %d identical slots: %+v", slots, st)
		}
		if n := backendReqs(f); n >= slots {
			t.Fatalf("backend saw %d requests for %d identical slots", n, slots)
		}
	})

	t.Run("hedge", func(t *testing.T) {
		names := []string{"w0", "w1"}
		programs := mixedPrograms(8, 8, 9100)
		pctx, pcancel := context.WithCancel(context.Background())
		defer pcancel()
		probe := frontier.New(pctx, frontier.Config{Backends: names, Names: names, HealthInterval: time.Hour})
		slow := map[string]bool{}
		for _, src := range programs {
			key, err := pipeline.ReportKey(src, pipeline.Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if probe.Owner(key) == "w0" {
				slow[src] = true
			}
		}
		if len(slow) == 0 {
			t.Fatalf("straggler w0 owns none of the %d programs", len(programs))
		}
		ts, f := serve(frontier.Config{Names: names, Hedge: true, HedgeDelay: 50 * time.Millisecond},
			startStraggler(t, "", 500*time.Millisecond, slow), startTestWorker(t, "", 0))
		var breq batchRequest
		for _, src := range programs {
			breq.Requests = append(breq.Requests, analyzeRequest{Program: src})
		}
		for i, r := range postBatch(t, ts, breq).Results {
			if !r.OK {
				t.Fatalf("slot %d: %s", i, r.Error)
			}
		}
		if st := f.Stats(); st.Hedges == 0 || st.HedgeWins == 0 {
			t.Fatalf("%d straggler-owned slots were never hedged: %+v", len(slow), st)
		}
	})
}

// highWater counts the analyses between their first and last stage hooks
// and keeps the most that were ever there at once.
type highWater struct {
	mu              sync.Mutex
	cur, peak, runs int
}

func (h *highWater) hook(st pipeline.Stage, _ string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch st {
	case pipeline.StageParse:
		h.cur++
		h.runs++
		h.peak = max(h.peak, h.cur)
	case pipeline.StageEPR:
		h.cur--
	}
}

// TestBatchHighWaterWithinWorkers: -workers is the one bound on analyses
// per process. A 100-slot /analyze/batch fans out over the frontier's
// connection budget (32 here), yet no worker whose engine has Workers: 2
// ever runs more than 2 analyses at once, and neither does the in-process
// engine.
func TestBatchHighWaterWithinWorkers(t *testing.T) {
	const workers = 2
	var breq batchRequest
	for _, src := range mixedPrograms(100, 15, 7700) {
		breq.Requests = append(breq.Requests, analyzeRequest{Program: src})
	}
	check := func(t *testing.T, ts *httptest.Server, hws ...*highWater) {
		t.Helper()
		for i, r := range postBatch(t, ts, breq).Results {
			if !r.OK {
				t.Fatalf("slot %d: %s", i, r.Error)
			}
		}
		runs := 0
		for i, hw := range hws {
			hw.mu.Lock()
			peak := hw.peak
			runs += hw.runs
			hw.mu.Unlock()
			if peak > workers {
				t.Errorf("engine %d ran %d analyses at once, want at most Workers = %d", i, peak, workers)
			}
		}
		if runs != len(breq.Requests) {
			t.Errorf("engines computed %d analyses for %d distinct programs", runs, len(breq.Requests))
		}
	}

	t.Run("frontier", func(t *testing.T) {
		hws := []*highWater{{}, {}}
		var ws []*testWorker
		for _, hw := range hws {
			eng := pipeline.New(pipeline.Config{Workers: workers, StageHook: hw.hook})
			ws = append(ws, startEngineWorker(t, eng, backend.Handler(eng)))
		}
		ts, f := startFrontier(t, ws...)
		if f.ConnBudget() <= 2*workers {
			t.Fatalf("connection budget %d does not exceed the workers' slots", f.ConnBudget())
		}
		check(t, ts, hws...)
	})
	t.Run("in-process", func(t *testing.T) {
		hw := &highWater{}
		ts := httptest.NewServer(newMux(pipeline.New(pipeline.Config{Workers: workers, StageHook: hw.hook}), serverOptions{}))
		t.Cleanup(ts.Close)
		check(t, ts, hw)
	})
}

// TestCancelledRouteStopsItsCompute: a routed request cancelled while its
// analysis is held in a stage stops at the next stage boundary, because
// the frontier closes the connection and the worker cancels the item on
// the close. A request queued behind it for the worker's one slot, also
// cancelled, never starts.
func TestCancelledRouteStopsItsCompute(t *testing.T) {
	const heldSrc, queuedSrc = "read h; print h + 1;", "read q; print q + 2;"
	var mu sync.Mutex
	stages := map[string][]pipeline.Stage{}
	cancelled := map[string]chan struct{}{}
	holding := make(chan struct{})
	eng := pipeline.New(pipeline.Config{Workers: 1, StageHook: func(st pipeline.Stage, src string) {
		mu.Lock()
		stages[src] = append(stages[src], st)
		itemCancelled := cancelled[src]
		mu.Unlock()
		if src == heldSrc && st == pipeline.StageParse {
			// Held until its item is cancelled, with no fallback timer: a
			// timer that fired on a starved host would free the slot and
			// let the queued item run. A cancel that never arrives fails
			// wantCancelled below, and the worker's Close at cleanup then
			// cancels the item.
			close(holding)
			<-itemCancelled
		}
	}})
	type outcome struct {
		res wire.Result
		at  time.Time
	}
	outcomes := map[string]chan outcome{heldSrc: make(chan outcome, 1), queuedSrc: make(chan outcome, 1)}
	h := backend.Handler(eng)
	w := startEngineWorker(t, eng, func(ctx context.Context, item wire.Item) wire.Result {
		// The analysis runs under actx, cancelled when the item is, and the
		// hook waits until that cancel has returned: by then it has also
		// cancelled Analyze's own context, derived from actx. Waiting on
		// ctx.Done alone would race that propagation, so an analysis could
		// pass its next stage boundary before seeing the cancel.
		actx, acancel := context.WithCancel(context.Background())
		defer acancel()
		done := make(chan struct{})
		defer context.AfterFunc(ctx, func() { acancel(); close(done) })()
		mu.Lock()
		cancelled[item.Program] = done
		mu.Unlock()
		res := h(actx, item)
		outcomes[item.Program] <- outcome{res, time.Now()}
		return res
	})
	_, f := startFrontier(t, w)

	route := func(ctx context.Context, src string) <-chan error {
		key, err := pipeline.ReportKey(src, pipeline.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() {
			_, err := f.Analyze(ctx, key, backend.Item(src, nil, pipeline.Options{}, 10*time.Second))
			errc <- err
		}()
		return errc
	}
	// wantCancelled waits for src's analysis to end after cancel, within 1s
	// of it, with a context error.
	wantCancelled := func(src string, routed <-chan error, cancel context.CancelFunc) {
		t.Helper()
		start := time.Now()
		cancel()
		if err := <-routed; !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: routed err = %v, want context.Canceled", src, err)
		}
		select {
		case o := <-outcomes[src]:
			if o.res.OK || !strings.Contains(o.res.Error, context.Canceled.Error()) {
				t.Fatalf("%s: worker answered %+v, want a context error", src, o.res)
			}
			if d := o.at.Sub(start); d > time.Second {
				t.Fatalf("%s: analysis returned %v after the cancel, want <= 1s", src, d)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s: analysis still running 1s after the cancel", src)
		}
	}

	hctx, hcancel := context.WithCancel(context.Background())
	defer hcancel()
	held := route(hctx, heldSrc)
	<-holding
	qctx, qcancel := context.WithCancel(context.Background())
	defer qcancel()
	queued := route(qctx, queuedSrc)
	// Analyze counts a request before its admission wait, so a second
	// request means the queued item is at the worker's full slot: parked
	// there, or about to find its context cancelled when it gets there.
	for deadline := time.Now().Add(5 * time.Second); eng.Snapshot().Requests < 2; {
		if time.Now().After(deadline) {
			t.Fatal("queued item never reached the worker's engine")
		}
		time.Sleep(time.Millisecond)
	}
	wantCancelled(queuedSrc, queued, qcancel)
	wantCancelled(heldSrc, held, hcancel)

	mu.Lock()
	defer mu.Unlock()
	if got := stages[heldSrc]; len(got) != 1 || got[0] != pipeline.StageParse {
		t.Fatalf("held analysis ran stages %v after its cancel, want only parse", got)
	}
	if got := stages[queuedSrc]; len(got) != 0 {
		t.Fatalf("queued analysis started stages %v after its cancel", got)
	}
}

// TestFrontierSingleflight: identical concurrent requests collapse into one
// backend execution.
func TestFrontierSingleflight(t *testing.T) {
	w := startTestWorker(t, "", 50*time.Millisecond)
	ts, f := startFrontier(t, w)

	src := "read a; b := a + 7; print b;"
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, out := postAnalyze(t, ts, reqBody(t, analyzeRequest{Program: src}))
			if code != http.StatusOK || !out.OK {
				t.Errorf("status=%d error=%q", code, out.Error)
			}
		}()
	}
	wg.Wait()
	st := f.Stats()
	if st.Dedups == 0 {
		t.Fatalf("no singleflight dedups across %d identical concurrent requests: %+v", n, st)
	}
	if st.RoutedOK+st.Dedups < n {
		t.Fatalf("accounting: routed=%d dedup=%d, want >= %d total", st.RoutedOK, st.Dedups, n)
	}
}

// TestFrontierUnprocessableNotRetried: a parse error is the program's fault
// — it must come back 422 without burning retries on the other replica.
func TestFrontierUnprocessableNotRetried(t *testing.T) {
	w1 := startTestWorker(t, "", 0)
	w2 := startTestWorker(t, "", 0)
	ts, f := startFrontier(t, w1, w2)

	code, out := postAnalyze(t, ts, reqBody(t, analyzeRequest{Program: "x := ;"}))
	if code != http.StatusUnprocessableEntity || out.OK {
		t.Fatalf("status=%d ok=%v, want 422", code, out.OK)
	}
	if st := f.Stats(); st.Retries != 0 {
		t.Fatalf("parse error burned %d retries", st.Retries)
	}
}

// TestFrontierAllBackendsDown: when every replica is unreachable the client
// gets a 502, not a hang, and the error names the failure.
func TestFrontierAllBackendsDown(t *testing.T) {
	w := startTestWorker(t, "", 0)
	ts, _ := startFrontier(t, w)
	w.srv.Close()

	code, out := postAnalyze(t, ts, reqBody(t, analyzeRequest{Program: "read a; print a;"}))
	if code != http.StatusBadGateway || out.OK || out.Error == "" {
		t.Fatalf("status=%d out=%+v, want 502 with error", code, out)
	}
}

// TestStatszFrontierSurfaces: /statsz carries the frontier's routing and
// backend counters alongside the engine snapshot, and stays decodable as a
// plain Snapshot for pre-sharding clients.
func TestStatszFrontierSurfaces(t *testing.T) {
	w := startTestWorker(t, t.TempDir(), 0)
	ts, _ := startFrontier(t, w)
	postAnalyze(t, ts, reqBody(t, analyzeRequest{Program: "read a; print a;"}))

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out statszResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Frontier == nil || len(out.Frontier.Backends) != 1 {
		t.Fatalf("statsz missing frontier stats: %+v", out.Frontier)
	}
	if out.Frontier.Backends[0].Requests == 0 {
		t.Fatalf("backend counters not advancing: %+v", out.Frontier.Backends)
	}
	// The worker's own snapshot exposes the store tier.
	wsnap := w.eng.Snapshot()
	if wsnap.Store == nil {
		t.Fatalf("worker snapshot missing store stats")
	}
	if wsnap.Store.Writes == 0 {
		t.Fatalf("no store write recorded: %+v", wsnap.Store)
	}
}

// TestServeStoreTier: in-process dfg-serve with -store serves through the
// two-tier report cache and reports the tier.
func TestServeStoreTier(t *testing.T) {
	dir := t.TempDir()
	newStoreServer := func() *httptest.Server {
		st, err := store.Open(dir, store.Options{Schema: pipeline.ReportSchemaVersion, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		eng := pipeline.New(pipeline.Config{Store: st})
		ts := httptest.NewServer(newMux(eng, serverOptions{}))
		t.Cleanup(ts.Close)
		return ts
	}

	ts1 := newStoreServer()
	body := reqBody(t, analyzeRequest{Program: "read a; print a * 3;"})
	_, out := postAnalyze(t, ts1, body)
	if out.Tier != string(pipeline.TierCompute) {
		t.Fatalf("cold tier = %q, want compute", out.Tier)
	}
	_, out = postAnalyze(t, ts1, body)
	if out.Tier != string(pipeline.TierLRU) {
		t.Fatalf("warm tier = %q, want lru", out.Tier)
	}
	// "Restart" the serve process: fresh engine, same store directory.
	ts2 := newStoreServer()
	_, out = postAnalyze(t, ts2, body)
	if out.Tier != string(pipeline.TierStore) {
		t.Fatalf("post-restart tier = %q, want store", out.Tier)
	}
	// DOT requests still work: the report comes through the report cache,
	// the renderings from the engine's live artifacts.
	code, out := postAnalyze(t, ts2, reqBody(t, analyzeRequest{Program: "read a; print a;", DOT: []string{"cfg"}}))
	if code != http.StatusOK || !strings.HasPrefix(out.DOT["cfg"], "digraph") {
		t.Fatalf("DOT on a store-backed server: code=%d dot=%.30q", code, out.DOT["cfg"])
	}
}

// TestMaxBodyReturns413 is the request-bounding satellite: an oversized
// body gets a 413 JSON error on both endpoints, and a normal request still
// fits.
func TestMaxBodyReturns413(t *testing.T) {
	eng := pipeline.New(pipeline.Config{})
	ts := httptest.NewServer(newMux(eng, serverOptions{MaxBody: 2048}))
	defer ts.Close()

	big := analyzeRequest{Program: "read a; " + strings.Repeat("a := a + 1; ", 4096)}
	code, out := postAnalyze(t, ts, reqBody(t, big))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /analyze: status=%d, want 413", code)
	}
	if out.OK || !strings.Contains(out.Error, "exceeds") {
		t.Fatalf("413 must carry a JSON error naming the limit: %+v", out)
	}

	// The batch endpoint gets 16x the budget but is bounded too.
	var breq batchRequest
	for i := 0; i < 64; i++ {
		breq.Requests = append(breq.Requests, big)
	}
	body, _ := json.Marshal(breq)
	resp, err := http.Post(ts.URL+"/analyze/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /analyze/batch: status=%d, want 413", resp.StatusCode)
	}

	code, out = postAnalyze(t, ts, reqBody(t, analyzeRequest{Program: "read a; print a;"}))
	if code != http.StatusOK || !out.OK {
		t.Fatalf("normal request under the limit failed: %d %+v", code, out)
	}
}

// TestBatchRejectsDOT: DOT needs live artifacts and is a single-request
// feature; batch items asking for it fail their slot with a clear error.
func TestBatchRejectsDOT(t *testing.T) {
	eng := pipeline.New(pipeline.Config{})
	ts := httptest.NewServer(newMux(eng, serverOptions{}))
	defer ts.Close()
	body, _ := json.Marshal(batchRequest{Requests: []analyzeRequest{
		{Program: "read a; print a;", DOT: []string{"cfg"}},
		{Program: "read b; print b;"},
	}})
	resp, err := http.Post(ts.URL+"/analyze/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var bresp batchResponse
	json.NewDecoder(resp.Body).Decode(&bresp)
	if !strings.Contains(bresp.Results[0].Error, "dot") {
		t.Fatalf("DOT batch item should fail its slot: %+v", bresp.Results[0])
	}
	if !bresp.Results[1].OK {
		t.Fatalf("healthy batch item dragged down: %+v", bresp.Results[1])
	}
}

// TestShutdownDrainsInflightBatchHTTP is the graceful-shutdown regression
// test: a slow /analyze/batch in flight when the signal arrives completes
// with a full response; new connections are refused afterwards.
func TestShutdownDrainsInflightBatchHTTP(t *testing.T) {
	eng := pipeline.New(pipeline.Config{
		StageHook: func(st pipeline.Stage, src string) {
			if st == pipeline.StageParse {
				time.Sleep(30 * time.Millisecond)
			}
		},
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: newMux(eng, serverOptions{})}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- serveUntil(ctx, srv, l, 10*time.Second) }()
	url := "http://" + l.Addr().String()

	var breq batchRequest
	for i := 0; i < 6; i++ {
		breq.Requests = append(breq.Requests, analyzeRequest{Program: fmt.Sprintf("read a; print a + %d;", i)})
	}
	body, _ := json.Marshal(breq)
	type outcome struct {
		status int
		bresp  batchResponse
		err    error
	}
	reqDone := make(chan outcome, 1)
	go func() {
		resp, err := http.Post(url+"/analyze/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			reqDone <- outcome{err: err}
			return
		}
		defer resp.Body.Close()
		var bresp batchResponse
		err = json.NewDecoder(resp.Body).Decode(&bresp)
		reqDone <- outcome{status: resp.StatusCode, bresp: bresp, err: err}
	}()

	time.Sleep(40 * time.Millisecond) // batch is mid-flight (6 x 30ms parse delay)
	cancel()                          // deliver the "signal"

	out := <-reqDone
	if out.err != nil {
		t.Fatalf("in-flight batch was cut off by shutdown: %v", out.err)
	}
	if out.status != http.StatusOK || !out.bresp.OK || len(out.bresp.Results) != 6 {
		t.Fatalf("drained batch incomplete: status=%d ok=%v results=%d",
			out.status, out.bresp.OK, len(out.bresp.Results))
	}
	for i, r := range out.bresp.Results {
		if !r.OK {
			t.Fatalf("batch item %d failed during drain: %s", i, r.Error)
		}
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serveUntil: %v", err)
	}
	if _, err := http.Post(url+"/analyze", "application/json",
		bytes.NewBufferString(`{"program":"read a;"}`)); err == nil {
		t.Fatal("server accepted a connection after shutdown")
	}
}
