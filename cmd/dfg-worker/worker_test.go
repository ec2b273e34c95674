package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"testing"

	"dfg/internal/backend"
	"dfg/internal/pipeline"
	"dfg/internal/store"
	"dfg/internal/wire"
	"dfg/internal/workload"
)

// startWorker runs a full worker (engine + store + wire server) on loopback.
func startWorker(t *testing.T, dir string) (addr string, eng *pipeline.Engine, srv *wire.Server) {
	t.Helper()
	st, err := store.Open(dir, store.Options{Schema: pipeline.ReportSchemaVersion, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng = pipeline.New(pipeline.Config{Store: st})
	srv = wire.NewServer(backend.Handler(eng), wire.ServerOptions{
		Schema: pipeline.ReportSchemaVersion,
		Name:   "dfg-worker",
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String(), eng, srv
}

func analyzeOne(t *testing.T, addr, program string) wire.Result {
	t.Helper()
	c, err := wire.Dial(addr, wire.ClientOptions{Schema: pipeline.ReportSchemaVersion})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Analyze(context.Background(), wire.Item{Program: program})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return got
}

// TestWorkerServesReports: the report a worker streams over the wire is
// byte-identical to a compact marshal of the in-process engine's Report.
func TestWorkerServesReports(t *testing.T) {
	addr, _, _ := startWorker(t, t.TempDir())
	src := workload.Mixed(15, 11).String()

	got := analyzeOne(t, addr, src)
	if !got.OK || got.Tier != string(pipeline.TierCompute) {
		t.Fatalf("result = ok=%v tier=%s err=%q", got.OK, got.Tier, got.Error)
	}
	res, err := pipeline.New(pipeline.Config{}).Analyze(context.Background(), pipeline.Request{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Report, want) {
		t.Fatalf("wire report differs from in-process report:\n%s\n%s", got.Report, want)
	}
	if len(got.Meta) == 0 {
		t.Fatal("computed result missing per-stage meta")
	}
}

// TestWorkerRestartServesFromStore is the persistence acceptance at worker
// granularity: stop the worker, start a fresh one on the same store
// directory, and the same program is answered from disk, byte-identical.
func TestWorkerRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	src := workload.Mixed(15, 13).String()

	addr1, _, srv1 := startWorker(t, dir)
	first := analyzeOne(t, addr1, src)
	if !first.OK || first.Tier != string(pipeline.TierCompute) {
		t.Fatalf("cold result = %+v", first)
	}
	srv1.Shutdown(context.Background())

	addr2, eng2, _ := startWorker(t, dir)
	second := analyzeOne(t, addr2, src)
	if !second.OK || second.Tier != string(pipeline.TierStore) {
		t.Fatalf("post-restart tier = %s (ok=%v err=%q), want store", second.Tier, second.OK, second.Error)
	}
	if !bytes.Equal(first.Report, second.Report) {
		t.Fatal("restarted worker served different report bytes")
	}
	if snap := eng2.Snapshot(); snap.Store == nil || snap.Store.Hits != 1 {
		t.Fatalf("store stats after restart = %+v", snap.Store)
	}
}

// TestWorkerRejectsBadPrograms: parse errors come back unprocessable (the
// frontier must not retry them on other replicas), and bad stages likewise;
// the connection serves one request after the other.
func TestWorkerRejectsBadPrograms(t *testing.T) {
	addr, _, _ := startWorker(t, t.TempDir())
	c, err := wire.Dial(addr, wire.ClientOptions{Schema: pipeline.ReportSchemaVersion})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	items := []wire.Item{
		{Program: "x := ;"},
		{Program: "read a;", Stages: []string{"nope"}},
	}
	for i, item := range items {
		r, err := c.Analyze(context.Background(), item)
		if err != nil {
			t.Fatal(err)
		}
		if r.OK || !r.Unprocessable || r.Error == "" {
			t.Fatalf("item %d should be unprocessable: %+v", i, r)
		}
	}
}
