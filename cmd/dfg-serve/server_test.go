package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dfg/internal/pipeline"
	"dfg/internal/wire"
)

// panicMarker makes the injected StageHook blow up the dfg stage, proving
// the engine's panic isolation reaches the HTTP layer as a 422.
const panicMarker = "v__panic__"

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	eng := pipeline.New(pipeline.Config{
		StageHook: func(st pipeline.Stage, src string) {
			if st == pipeline.StageDFG && strings.Contains(src, panicMarker) {
				panic("injected stage fault")
			}
		},
	})
	ts := httptest.NewServer(newMux(eng, serverOptions{}))
	t.Cleanup(ts.Close)
	return ts
}

func postAnalyze(t *testing.T, ts *httptest.Server, body string) (int, analyzeResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/analyze", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatalf("POST /analyze: %v", err)
	}
	defer resp.Body.Close()
	var out analyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

// decodeReport decodes the report an answer splices in verbatim.
func decodeReport(t *testing.T, out analyzeResponse) pipeline.Report {
	t.Helper()
	var rep pipeline.Report
	if err := json.Unmarshal(out.Report, &rep); err != nil {
		t.Fatalf("decode report: %v", err)
	}
	return rep
}

func reqBody(t *testing.T, req analyzeRequest) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestAnalyzeEveryExample POSTs each paper example from examples/programs
// through every stage, per the acceptance criteria.
func TestAnalyzeEveryExample(t *testing.T) {
	ts := newTestServer(t)
	files, err := filepath.Glob("../../examples/programs/*.dfg")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			code, out := postAnalyze(t, ts, reqBody(t, analyzeRequest{Program: string(src)}))
			if code != http.StatusOK || !out.OK {
				t.Fatalf("status=%d ok=%v error=%q", code, out.OK, out.Error)
			}
			rep := decodeReport(t, out)
			if rep.CFG == nil || rep.DFG == nil || rep.Constprop == nil || rep.EPR == nil {
				t.Fatalf("incomplete report: %+v", rep)
			}
			if len(out.Meta) == 0 {
				t.Error("missing per-stage metadata")
			}
		})
	}
}

func TestAnalyzeSelectedStagesAndDOT(t *testing.T) {
	ts := newTestServer(t)
	code, out := postAnalyze(t, ts, reqBody(t, analyzeRequest{
		Program: "read a; b := a + 1; print b;",
		Stages:  []string{"constprop"},
		DOT:     []string{"cfg", "dfg"},
	}))
	if code != http.StatusOK || !out.OK {
		t.Fatalf("status=%d error=%q", code, out.Error)
	}
	rep := decodeReport(t, out)
	if rep.Constprop == nil {
		t.Error("constprop stage missing from report")
	}
	if rep.SSA != nil {
		t.Error("unrequested ssa stage present in report")
	}
	for _, target := range []string{"cfg", "dfg"} {
		if !strings.HasPrefix(out.DOT[target], "digraph") {
			t.Errorf("dot %s: not Graphviz output: %.40q", target, out.DOT[target])
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name string
		body string
		code int
	}{
		{"malformed json", "{", http.StatusBadRequest},
		{"empty program", `{"program":"  "}`, http.StatusBadRequest},
		{"unknown stage", `{"program":"read a;","stages":["nope"]}`, http.StatusBadRequest},
		{"unknown dot", `{"program":"read a;","dot":["ast"]}`, http.StatusBadRequest},
		{"parse error", `{"program":"x := ;"}`, http.StatusUnprocessableEntity},
		{"undefined label", `{"program":"goto nowhere;"}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := postAnalyze(t, ts, tc.body)
			if code != tc.code {
				t.Fatalf("status=%d want %d (error=%q)", code, tc.code, out.Error)
			}
			if out.OK || out.Error == "" {
				t.Errorf("error responses must carry ok=false and a message: %+v", out)
			}
		})
	}
}

// TestStagePanicReturns422 is the acceptance criterion: a request that
// panics a stage gets a 422, and the server keeps serving afterwards.
func TestStagePanicReturns422(t *testing.T) {
	ts := newTestServer(t)
	code, out := postAnalyze(t, ts, reqBody(t, analyzeRequest{
		Program: "read " + panicMarker + "; print " + panicMarker + ";",
	}))
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status=%d want 422 (error=%q)", code, out.Error)
	}
	if !strings.Contains(out.Error, "panicked") {
		t.Errorf("error should mention the panic: %q", out.Error)
	}
	// The same server must still answer ordinary requests.
	code, out = postAnalyze(t, ts, reqBody(t, analyzeRequest{Program: "read a; print a;"}))
	if code != http.StatusOK || !out.OK {
		t.Fatalf("server stopped serving after a stage panic: status=%d error=%q", code, out.Error)
	}
}

func TestHealthzStatszDebugVars(t *testing.T) {
	ts := newTestServer(t)
	// Generate one computed answer and one report-LRU hit so /statsz has
	// signal.
	body := reqBody(t, analyzeRequest{Program: "read a; print a + 2;"})
	postAnalyze(t, ts, body)
	postAnalyze(t, ts, body)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %v status=%v", err, resp)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var snap pipeline.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/statsz decode: %v", err)
	}
	resp.Body.Close()
	st := snap.Stages[pipeline.StageCFG]
	if st.Runs < 1 {
		t.Errorf("/statsz: cfg stage runs=%d, want >=1", st.Runs)
	}
	if snap.ReportCache.LRUHits < 1 {
		t.Errorf("/statsz: report_cache.lru_hits=%d, want >=1", snap.ReportCache.LRUHits)
	}
	if st.TotalNS <= 0 {
		t.Errorf("/statsz: cfg stage reports no latency")
	}
	// Allocation counters advance at span-refill granularity, so a single
	// tiny request may legitimately report zero for one stage; only their
	// presence (not magnitude) is checked here. The pipeline package tests
	// them under real load.
	if st.AllocBytes < 0 || st.AvgAllocBytes < 0 {
		t.Errorf("/statsz: cfg stage reports negative allocation (alloc_bytes=%d avg=%d)",
			st.AllocBytes, st.AvgAllocBytes)
	}
	// The environment fields let a recorded benchmark (BENCH_parallel.json)
	// be cross-checked against the serving host.
	if snap.GOMAXPROCS < 1 || snap.NumCPU < 1 {
		t.Errorf("/statsz: implausible environment gomaxprocs=%d num_cpu=%d", snap.GOMAXPROCS, snap.NumCPU)
	}

	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars decode: %v", err)
	}
	resp.Body.Close()
	if _, ok := vars["pipeline"]; !ok {
		t.Error("/debug/vars missing the pipeline export")
	}
}

// TestPprofIsOptIn: the profiling endpoints exist only when mounted (the
// -pprof flag); the default mux must not expose them.
// TestBareModeCachesReports: with no -store and no -backends, a repeated
// /analyze is answered from the engine's report LRU with the same bytes.
func TestBareModeCachesReports(t *testing.T) {
	ts := newTestServer(t)
	body := reqBody(t, analyzeRequest{Program: "read a; b := a * 2; print b;"})
	code, first := postAnalyze(t, ts, body)
	if code != http.StatusOK || first.Tier != string(pipeline.TierCompute) {
		t.Fatalf("first answer: status=%d tier=%q, want 200 compute", code, first.Tier)
	}
	code, again := postAnalyze(t, ts, body)
	if code != http.StatusOK || again.Tier != string(pipeline.TierLRU) {
		t.Fatalf("repeat answer: status=%d tier=%q, want 200 lru", code, again.Tier)
	}
	if again.Key != first.Key || !bytes.Equal(again.Report, first.Report) {
		t.Fatalf("repeat answer differs:\n%s\n%s", first.Report, again.Report)
	}
	if m, ok := again.Meta["report"]; !ok || !m.CacheHit || len(again.Meta) != 1 {
		t.Errorf("repeat answer meta = %+v, want one cache-hit report entry", again.Meta)
	}
}

func TestPprofIsOptIn(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("default mux serves /debug/pprof/: status=%d, want 404", resp.StatusCode)
	}

	mux := newMux(pipeline.New(pipeline.Config{}), serverOptions{})
	mountPprof(mux)
	tsp := httptest.NewServer(mux)
	defer tsp.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := http.Get(tsp.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("pprof mux: GET %s status=%d, want 200", path, resp.StatusCode)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /analyze: status=%d want 405", resp.StatusCode)
	}
}

func TestAnalyzeExecStage(t *testing.T) {
	ts := newTestServer(t)
	code, out := postAnalyze(t, ts, reqBody(t, analyzeRequest{
		Program: "read n; print n * n;",
		Stages:  []string{"exec"},
		Inputs:  []int64{9},
	}))
	if code != http.StatusOK || !out.OK {
		t.Fatalf("exec stage failed: code=%d %+v", code, out)
	}
	ex := decodeReport(t, out).Exec
	if ex == nil {
		t.Fatal("response missing exec report")
	}
	if !ex.Agree {
		t.Fatalf("oracle disagreement: %+v", ex)
	}
	if len(ex.CFGOutput) != 1 || ex.CFGOutput[0] != "81" {
		t.Fatalf("cfg output %v, want [81]", ex.CFGOutput)
	}
	if len(ex.Runs) == 0 || ex.Runs[0].Firings == 0 {
		t.Fatalf("exec report missing per-granularity runs: %+v", ex.Runs)
	}
}

// TestAnalyzeBytecodeSourceKind drives a source_kind=bytecode request
// through the HTTP layer: assembly text in, a report with the bytecode
// section out, and an unknown kind rejected up front with a 400.
func TestAnalyzeBytecodeSourceKind(t *testing.T) {
	ts := newTestServer(t)
	asm := "\tread x\n\tload x\n\tpushi 1\n\tadd\n\tprint\n"
	code, out := postAnalyze(t, ts, reqBody(t, analyzeRequest{
		Program:    asm,
		SourceKind: "bytecode",
		Inputs:     []int64{41},
	}))
	if code != http.StatusOK || !out.OK {
		t.Fatalf("status=%d ok=%v error=%q", code, out.OK, out.Error)
	}
	rep := decodeReport(t, out)
	if rep.Bytecode == nil {
		t.Fatalf("report missing bytecode section: %+v", rep)
	}
	if rep.Bytecode.Instrs == 0 || rep.Bytecode.Blocks == 0 {
		t.Errorf("implausible bytecode report: %+v", rep.Bytecode)
	}
	if rep.CFG == nil || rep.DFG == nil {
		t.Fatalf("recovered CFG must feed the normal stages: %+v", rep)
	}

	code, out = postAnalyze(t, ts, `{"program":"read a;","source_kind":"wasm"}`)
	if code != http.StatusBadRequest || out.OK {
		t.Fatalf("unknown kind: status=%d ok=%v error=%q", code, out.OK, out.Error)
	}

	// Malformed assembly is the program's fault: 422, one-line diagnostic.
	code, out = postAnalyze(t, ts, `{"program":"pushi nope","source_kind":"bytecode"}`)
	if code != http.StatusUnprocessableEntity || out.OK {
		t.Fatalf("bad assembly: status=%d ok=%v error=%q", code, out.OK, out.Error)
	}
}

// TestStatusRule pins the one mapping from a routed answer to an HTTP
// status, shared by every mode and both endpoints.
func TestStatusRule(t *testing.T) {
	live := context.Background()
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	report := json.RawMessage(`{"parse":{"stmts":1}}`)
	cases := []struct {
		name string
		ctx  context.Context
		res  wire.Result
		err  error
		code int
	}{
		{"routing error", live, wire.Result{}, errors.New("all replicas failed"), http.StatusBadGateway},
		{"routing error, client gone", ended, wire.Result{}, context.Canceled, http.StatusRequestTimeout},
		{"unprocessable", live, wire.Result{Error: "parse", Unprocessable: true}, nil, http.StatusUnprocessableEntity},
		{"unprocessable, client gone", ended, wire.Result{Error: "parse", Unprocessable: true}, nil, http.StatusUnprocessableEntity},
		{"out of budget", live, wire.Result{Error: "context deadline exceeded"}, nil, http.StatusGatewayTimeout},
		{"failed, client gone", ended, wire.Result{Error: "context canceled"}, nil, http.StatusRequestTimeout},
		{"empty report", live, wire.Result{OK: true, Key: "k"}, nil, http.StatusBadGateway},
		{"ok", live, wire.Result{OK: true, Key: "k", Tier: "lru", Report: report}, nil, http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, code := toHTTP(tc.ctx, tc.res, tc.err)
			if code != tc.code {
				t.Fatalf("status %d, want %d", code, tc.code)
			}
			if out.OK != (code == http.StatusOK) || out.OK == (out.Error != "") {
				t.Fatalf("ok=%v error=%q under status %d", out.OK, out.Error, code)
			}
			if out.OK && (!bytes.Equal(out.Report, report) || out.Key != "k" || out.Tier != "lru") {
				t.Fatalf("answer not carried verbatim: %+v", out)
			}
		})
	}
}

// TestEngineDeadlineIs504: an in-process analysis that outlives its budget
// is a gateway timeout, as it is behind the frontier, not the program's
// fault.
func TestEngineDeadlineIs504(t *testing.T) {
	eng := pipeline.New(pipeline.Config{
		StageHook: func(st pipeline.Stage, src string) {
			if st == pipeline.StageParse {
				time.Sleep(50 * time.Millisecond)
			}
		},
	})
	ts := httptest.NewServer(newMux(eng, serverOptions{Timeout: 10 * time.Millisecond}))
	defer ts.Close()
	code, out := postAnalyze(t, ts, reqBody(t, analyzeRequest{Program: "read a; print a;"}))
	if code != http.StatusGatewayTimeout || out.OK {
		t.Fatalf("status=%d ok=%v error=%q, want 504", code, out.OK, out.Error)
	}
}
