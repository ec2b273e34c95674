package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dfg/internal/frontier"
	"dfg/internal/pipeline"
	"dfg/internal/workload"
)

// startFrontierWith is startFrontier with replication/hedging knobs: cfg's
// Backends are filled in from workers, everything else is honored.
func startFrontierWith(t *testing.T, cfg frontier.Config, workers ...*testWorker) (*httptest.Server, *frontier.Frontier) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	addrs := make([]string, len(workers))
	for i, w := range workers {
		addrs[i] = w.addr
	}
	cfg.Backends = addrs
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 100 * time.Millisecond
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = time.Second
	}
	f := frontier.New(ctx, cfg)
	ts := httptest.NewServer(newMux(pipeline.New(pipeline.Config{}), serverOptions{Frontier: f}))
	t.Cleanup(ts.Close)
	return ts, f
}

// phase is one replay of a program set through the HTTP edge.
type phase struct {
	lat   []time.Duration // every request's latency, ascending
	tiers map[string]int  // answers by serving tier
}

func (p phase) p50() time.Duration { return p.lat[len(p.lat)/2] }
func (p phase) p99() time.Duration { return p.lat[(len(p.lat)-1)*99/100] }

// replay sends every program rounds times through ts from clients
// concurrent clients, and checks what every phase must show: each request
// answered without error, and latencies with p99 >= p50 > 0.
func replay(t *testing.T, ts *httptest.Server, programs []string, rounds, clients int) phase {
	t.Helper()
	ph := phase{tiers: map[string]int{}}
	var mu sync.Mutex
	var errs []string
	jobs := make(chan string)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for body := range jobs {
				start := time.Now()
				out, err := post(ts, body)
				d := time.Since(start)
				mu.Lock()
				ph.lat = append(ph.lat, d)
				if err == nil {
					ph.tiers[out.Tier]++
				} else {
					errs = append(errs, err.Error())
				}
				mu.Unlock()
			}
		}()
	}
	for r := 0; r < rounds; r++ {
		for _, src := range programs {
			jobs <- reqBody(t, analyzeRequest{Program: src})
		}
	}
	close(jobs)
	wg.Wait()
	if len(errs) > 0 {
		t.Fatalf("%d of %d requests failed, first: %s", len(errs), len(ph.lat), errs[0])
	}
	if want := rounds * len(programs); len(ph.lat) != want {
		t.Fatalf("%d requests answered, want %d", len(ph.lat), want)
	}
	sort.Slice(ph.lat, func(a, b int) bool { return ph.lat[a] < ph.lat[b] })
	if ph.p50() <= 0 || ph.p99() < ph.p50() {
		t.Fatalf("implausible latencies: p50=%v p99=%v", ph.p50(), ph.p99())
	}
	return ph
}

// post is postAnalyze for client goroutines: it reports a failed request
// as an error instead of failing the test.
func post(ts *httptest.Server, body string) (analyzeResponse, error) {
	var out analyzeResponse
	resp, err := http.Post(ts.URL+"/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("decode response: %w", err)
	}
	if resp.StatusCode != http.StatusOK || !out.OK {
		return out, fmt.Errorf("status=%d error=%q", resp.StatusCode, out.Error)
	}
	return out, nil
}

// mixedPrograms returns n distinct workload.Mixed(size, seed+i) programs.
func mixedPrograms(n, size int, seed int64) []string {
	programs := make([]string, n)
	for i := range programs {
		programs[i] = workload.Mixed(size, seed+int64(i)).String()
	}
	return programs
}

// TestReplicationDifferential: a batch served by frontier + 3 workers at
// R=2 is byte-identical to the in-process engine, and after the replication
// queue drains every artifact exists verbatim in at least two workers'
// stores.
func TestReplicationDifferential(t *testing.T) {
	w1 := startTestWorker(t, t.TempDir(), 0)
	w2 := startTestWorker(t, t.TempDir(), 0)
	w3 := startTestWorker(t, t.TempDir(), 0)
	workers := []*testWorker{w1, w2, w3}
	ts, f := startFrontierWith(t, frontier.Config{Replicas: 2}, workers...)

	const n = 18
	breq := batchRequest{}
	want := make([][]byte, n)
	for i := 0; i < n; i++ {
		src := workload.Mixed(12, int64(4000+i)).String()
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
	keys := make([]string, n)
	for i, r := range bresp.Results {
		if !r.OK {
			t.Fatalf("result %d failed: %s", i, r.Error)
		}
		if got := compactJSON(t, r.Report); !bytes.Equal(got, want[i]) {
			t.Fatalf("result %d: replicated-fleet report differs from in-process:\n%s\n%s", i, got, want[i])
		}
		keys[i] = r.Key
	}

	fctx, fcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer fcancel()
	if err := f.FlushReplication(fctx); err != nil {
		t.Fatal(err)
	}
	for i, key := range keys {
		copies := 0
		for _, w := range workers {
			raw, ok := w.eng.ArtifactStore().Get(key)
			if !ok {
				continue
			}
			if !bytes.Equal(raw, want[i]) {
				t.Fatalf("key %s: replica holds different bytes than the canonical report", key)
			}
			copies++
		}
		if copies < 2 {
			t.Fatalf("key %s present on %d store(s), want >= 2 at R=2", key, copies)
		}
	}
	st := f.Stats()
	if st.ReplPushed == 0 {
		t.Fatalf("no replication pushes recorded: %+v", st)
	}
	if st.ReplErrors != 0 || st.ReplDropped != 0 {
		t.Fatalf("replication lost pushes on a healthy fleet: errors=%d dropped=%d", st.ReplErrors, st.ReplDropped)
	}
}

// TestFleetRestartServesFromStore is the persistence acceptance criterion
// for a whole fleet: 3 store-backed workers at R=2 serve cold traffic, then
// every worker is rebuilt with a fresh engine (empty report LRU) on its old
// store directory, behind a new frontier that knows them by the same
// names. The replay is answered entirely off disk and the LRUs: no
// compute-tier answer, at least one store-tier answer, no error, and every
// store lookup a hit.
func TestFleetRestartServesFromStore(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	cfg := frontier.Config{Replicas: 2, Names: []string{"w1", "w2", "w3"}}
	programs := mixedPrograms(10, 8, 42)

	var cold []*testWorker
	for _, d := range dirs {
		cold = append(cold, startTestWorker(t, d, 0))
	}
	ts, f := startFrontierWith(t, cfg, cold...)
	ph := replay(t, ts, programs, 2, 4)
	if ph.tiers[string(pipeline.TierCompute)] < len(programs) {
		t.Fatalf("cold phase computed %d answers, want >= %d (one per distinct program): %v",
			ph.tiers[string(pipeline.TierCompute)], len(programs), ph.tiers)
	}
	fctx, fcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer fcancel()
	if err := f.FlushReplication(fctx); err != nil {
		t.Fatal(err)
	}
	for _, w := range cold {
		w.srv.Shutdown(context.Background())
	}

	var warm []*testWorker
	for _, d := range dirs {
		warm = append(warm, startTestWorker(t, d, 0))
	}
	ts2, _ := startFrontierWith(t, cfg, warm...)
	ph = replay(t, ts2, programs, 2, 4)
	if n := ph.tiers[string(pipeline.TierCompute)]; n != 0 {
		t.Fatalf("restarted fleet recomputed %d answers; the stores did not persist: %v", n, ph.tiers)
	}
	if ph.tiers[string(pipeline.TierStore)] == 0 {
		t.Fatalf("restarted fleet never answered from a store: %v", ph.tiers)
	}
	var hits, misses int64
	for _, w := range warm {
		st := w.eng.Snapshot().Store
		hits += st.Hits
		misses += st.Misses
	}
	if misses != 0 || hits == 0 {
		t.Fatalf("warm store lookups: %d hits, %d misses; want every lookup a hit", hits, misses)
	}
}

// TestDiskLossServedFromReplicas is the disk-loss acceptance criterion:
// after a cold phase at R=2 whose replication completes without error, the
// busiest worker is killed AND its store directory deleted. The replay sees
// zero client-visible errors and no compute-tier answer: the dead
// primary's keyspace comes out of its replicas' stores, not recomputation.
func TestDiskLossServedFromReplicas(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	w1 := startTestWorker(t, dirs[0], 0)
	w2 := startTestWorker(t, dirs[1], 0)
	w3 := startTestWorker(t, dirs[2], 0)
	workers := []*testWorker{w1, w2, w3}
	ts, f := startFrontierWith(t, frontier.Config{Replicas: 2}, workers...)

	programs := mixedPrograms(24, 10, 7000)
	replay(t, ts, programs, 2, 4)
	fctx, fcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer fcancel()
	if err := f.FlushReplication(fctx); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.ReplPushed == 0 {
		t.Fatalf("no artifacts were replicated: %+v", st)
	}
	if st.ReplErrors != 0 || st.ReplDropped != 0 {
		t.Fatalf("replication lost pushes on a healthy fleet: errors=%d dropped=%d", st.ReplErrors, st.ReplDropped)
	}

	// Kill the busiest worker — by pigeonhole it is the primary for at
	// least a third of the keyspace — and wipe its store from disk.
	var victim *testWorker
	var most int64 = -1
	for _, b := range st.Backends {
		for _, w := range workers {
			if w.addr == b.Addr && b.Requests > most {
				most, victim = b.Requests, w
			}
		}
	}
	victim.srv.Close()
	if err := os.RemoveAll(victimDir(t, dirs, victim, workers)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(250 * time.Millisecond) // let the health checker notice

	// replay fails the test on any client-visible error.
	ph := replay(t, ts, programs, 2, 4)
	if n := ph.tiers[string(pipeline.TierCompute)]; n != 0 {
		t.Fatalf("disk-loss replay recomputed %d answers instead of reading replicas: %v", n, ph.tiers)
	}
	if st := f.Stats(); st.RoutedErr != 0 {
		t.Fatalf("requests exhausted all replicas: %+v", st)
	}
}

// victimDir maps a worker back to its store directory (workers and dirs are
// index-aligned at creation).
func victimDir(t *testing.T, dirs []string, victim *testWorker, workers []*testWorker) string {
	t.Helper()
	for i, w := range workers {
		if w == victim {
			return dirs[i]
		}
	}
	t.Fatal("victim not found")
	return ""
}

// TestAdminBackends: the frontier's backend set is hot-editable over HTTP,
// with name conflicts and unknown names rejected.
func TestAdminBackends(t *testing.T) {
	w1 := startTestWorker(t, "", 0)
	w2 := startTestWorker(t, "", 0)
	ts, _ := startFrontier(t, w1, w2)

	post := func(body string) (int, adminBackendResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/admin/backends", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out adminBackendResponse
		json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}

	w3 := startTestWorker(t, "", 0)
	code, out := post(fmt.Sprintf(`{"action":"add","name":"w3","addr":"%s"}`, w3.addr))
	if code != http.StatusOK || !out.OK || len(out.Backends) != 3 {
		t.Fatalf("add: status=%d %+v", code, out)
	}
	// The new worker actually serves traffic: with three backends some of
	// these land on w3, and none error.
	for i := 0; i < 12; i++ {
		code, aout := postAnalyze(t, ts, reqBody(t, analyzeRequest{Program: fmt.Sprintf("read a; print a + %d;", i)}))
		if code != http.StatusOK || !aout.OK {
			t.Fatalf("request %d after hot-add: status=%d error=%q", i, code, aout.Error)
		}
	}

	if code, _ := post(`{"action":"add","name":"w3","addr":"127.0.0.1:1"}`); code != http.StatusConflict {
		t.Fatalf("duplicate add: status=%d, want 409", code)
	}
	if code, _ := post(`{"action":"remove","name":"nope"}`); code != http.StatusConflict {
		t.Fatalf("unknown remove: status=%d, want 409", code)
	}
	if code, _ := post(`{"action":"frobnicate","name":"x"}`); code != http.StatusBadRequest {
		t.Fatalf("bad action: status=%d, want 400", code)
	}
	code, out = post(`{"action":"remove","name":"w3"}`)
	if code != http.StatusOK || len(out.Backends) != 2 {
		t.Fatalf("remove: status=%d %+v", code, out)
	}

	resp, err := http.Get(ts.URL + "/admin/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got adminBackendResponse
	json.NewDecoder(resp.Body).Decode(&got)
	if !got.OK || len(got.Backends) != 2 {
		t.Fatalf("GET /admin/backends: %+v", got)
	}

	// In-process servers have no backend set to administer.
	plain := httptest.NewServer(newMux(pipeline.New(pipeline.Config{}), serverOptions{}))
	defer plain.Close()
	if resp, err := http.Get(plain.URL + "/admin/backends"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("in-process /admin/backends: status=%d, want 404", resp.StatusCode)
		}
	}
}

// TestHedgedRequestEndToEnd: with one straggling worker and hedging on, a
// request whose primary is the straggler is answered by the replica well
// before the straggler would have finished, without a client-visible error.
func TestHedgedRequestEndToEnd(t *testing.T) {
	slow := startTestWorker(t, t.TempDir(), 400*time.Millisecond)
	fast := startTestWorker(t, t.TempDir(), 0)
	ts, f := startFrontierWith(t, frontier.Config{
		Hedge:      true,
		HedgeDelay: 25 * time.Millisecond,
	}, slow, fast)

	// Drive enough distinct programs that some route to the straggler.
	start := time.Now()
	for i := 0; i < 8; i++ {
		code, out := postAnalyze(t, ts, reqBody(t, analyzeRequest{Program: fmt.Sprintf("read a; print a * %d;", i+2)}))
		if code != http.StatusOK || !out.OK {
			t.Fatalf("hedged request %d: status=%d error=%q", i, code, out.Error)
		}
	}
	elapsed := time.Since(start)
	st := f.Stats()
	if st.Hedges == 0 {
		t.Fatalf("no hedges fired against a 400ms straggler with a 25ms delay: %+v", st)
	}
	if st.HedgeWins == 0 {
		t.Fatalf("hedges fired but never won against a 400ms straggler: %+v", st)
	}
	// 8 requests at 400ms each would be 3.2s sequentially; hedging should
	// keep the straggler's share near the hedge delay instead.
	if elapsed > 2*time.Second {
		t.Fatalf("hedging did not cut straggler latency: %v for 8 requests", elapsed)
	}
	if st.RoutedErr != 0 {
		t.Fatalf("hedging produced routing errors: %+v", st)
	}
}

// TestHedgingCutsStragglerP99 is the hedging A/B acceptance criterion: two
// workers at R=1, one of which sleeps 300ms on 4 programs it owns, each
// measured over one warm round with hedging off and then on (50ms pinned
// delay). Hedging must fire and win, cut p99, and add at most 15% backend
// requests.
func TestHedgingCutsStragglerP99(t *testing.T) {
	names := []string{"w0", "w1"}
	programs := mixedPrograms(48, 8, 9000)

	// Placement depends only on the names, so a frontier over placeholder
	// addresses picks the straggler's programs before any worker starts.
	pctx, pcancel := context.WithCancel(context.Background())
	defer pcancel()
	probe := frontier.New(pctx, frontier.Config{Backends: names, Names: names, HealthInterval: time.Hour})
	slow := map[string]bool{}
	for _, src := range programs {
		key, err := pipeline.ReportKey(src, pipeline.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if probe.Owner(key) == "w0" && len(slow) < 4 {
			slow[src] = true
		}
	}
	if len(slow) != 4 {
		t.Fatalf("straggler w0 owns only %d of %d programs", len(slow), len(programs))
	}

	// run measures one fleet. The unmeasured prewarm round fills every
	// report LRU, so the measured round isolates the straggler's sleeps: a
	// cold compute could outlast the hedge delay and hedge on its own.
	run := func(hedge bool) (phase, frontier.Stats, int64) {
		cfg := frontier.Config{Names: names}
		if hedge {
			cfg.Hedge, cfg.HedgeDelay = true, 50*time.Millisecond
		}
		ts, f := startFrontierWith(t, cfg,
			startStraggler(t, t.TempDir(), 300*time.Millisecond, slow),
			startTestWorker(t, t.TempDir(), 0))
		backendReqs := func() (n int64) {
			for _, b := range f.Stats().Backends {
				n += b.Requests
			}
			return n
		}
		replay(t, ts, programs, 1, 4)
		base, baseReqs := f.Stats(), backendReqs()
		ph := replay(t, ts, programs, 1, 4)
		st := f.Stats()
		st.Hedges -= base.Hedges
		st.HedgeWins -= base.HedgeWins
		return ph, st, backendReqs() - baseReqs
	}
	off, _, reqsOff := run(false)
	on, st, reqsOn := run(true)

	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("hedging never fired or won against the straggler: hedges=%d wins=%d", st.Hedges, st.HedgeWins)
	}
	if on.p99() >= off.p99() {
		t.Fatalf("hedging did not cut p99: %v with, %v without", on.p99(), off.p99())
	}
	if extra := float64(reqsOn-reqsOff) / float64(reqsOff); extra > 0.15 {
		t.Fatalf("hedging added %.1f%% backend requests (%d -> %d), budget 15%%", 100*extra, reqsOff, reqsOn)
	}
}
