package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
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

// TestDiskLossServedFromReplicas is the disk-loss acceptance criterion:
// after a warm phase at R=2, one worker is killed AND its store directory
// deleted; the warm re-run sees zero client-visible errors and >90% of
// responses served from a cache tier (the dead primary's keyspace comes
// out of its replicas' stores, not recomputation).
func TestDiskLossServedFromReplicas(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	w1 := startTestWorker(t, dirs[0], 0)
	w2 := startTestWorker(t, dirs[1], 0)
	w3 := startTestWorker(t, dirs[2], 0)
	workers := []*testWorker{w1, w2, w3}
	ts, f := startFrontierWith(t, frontier.Config{Replicas: 2}, workers...)

	const n = 24
	programs := make([]string, n)
	for i := range programs {
		programs[i] = workload.Mixed(10, int64(7000+i)).String()
	}
	for i, src := range programs {
		code, out := postAnalyze(t, ts, reqBody(t, analyzeRequest{Program: src}))
		if code != http.StatusOK || !out.OK {
			t.Fatalf("cold request %d: status=%d error=%q", i, code, out.Error)
		}
	}
	fctx, fcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer fcancel()
	if err := f.FlushReplication(fctx); err != nil {
		t.Fatal(err)
	}

	// Kill the busiest worker — by pigeonhole it is the primary for at
	// least a third of the keyspace — and wipe its store from disk.
	var victim *testWorker
	var most int64 = -1
	for _, b := range f.Stats().Backends {
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

	cacheHits := 0
	for i, src := range programs {
		code, out := postAnalyze(t, ts, reqBody(t, analyzeRequest{Program: src}))
		if code != http.StatusOK || !out.OK {
			t.Fatalf("warm request %d saw a client-visible error across disk loss: status=%d error=%q",
				i, code, out.Error)
		}
		if out.Tier == string(pipeline.TierLRU) || out.Tier == string(pipeline.TierStore) {
			cacheHits++
		}
	}
	if rate := float64(cacheHits) / float64(n); rate < 0.9 {
		t.Fatalf("warm store-hit rate %.2f after disk loss, want > 0.9 (hits=%d/%d)", rate, cacheHits, n)
	}
	st := f.Stats()
	if st.RoutedErr != 0 {
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
