package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"dfg/internal/bccompile"
	"dfg/internal/bytecode"
	"dfg/internal/frontier"
	"dfg/internal/lang/parser"
	"dfg/internal/pipeline"
	"dfg/internal/store"
	"dfg/internal/workload"
)

// serveMode is one way of running dfg-serve: every mode must answer a
// request with the same report bytes.
type serveMode struct {
	name  string
	start func(t *testing.T) *httptest.Server
}

var serveModes = []serveMode{
	{"bare", func(t *testing.T) *httptest.Server {
		ts := httptest.NewServer(newMux(pipeline.New(pipeline.Config{}), serverOptions{}))
		t.Cleanup(ts.Close)
		return ts
	}},
	{"store", func(t *testing.T) *httptest.Server {
		st, err := store.Open(t.TempDir(), store.Options{Schema: pipeline.ReportSchemaVersion, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(newMux(pipeline.New(pipeline.Config{Store: st}), serverOptions{}))
		t.Cleanup(ts.Close)
		return ts
	}},
	{"frontier-r1", func(t *testing.T) *httptest.Server {
		ts, _ := startFrontierWith(t, frontier.Config{},
			startTestWorker(t, t.TempDir(), 0), startTestWorker(t, t.TempDir(), 0))
		return ts
	}},
	{"frontier-r2", func(t *testing.T) *httptest.Server {
		ts, _ := startFrontierWith(t, frontier.Config{Replicas: 2},
			startTestWorker(t, t.TempDir(), 0), startTestWorker(t, t.TempDir(), 0))
		return ts
	}},
}

// compactJSON returns raw in compact form.
func compactJSON(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("compact %.60q: %v", raw, err)
	}
	return buf.Bytes()
}

// asmOf compiles toy-language source to bytecode assembly text, the form a
// source_kind=bytecode request carries.
func asmOf(t *testing.T, src string) string {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := bccompile.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	asm, err := bytecode.Disassemble(bc)
	if err != nil {
		t.Fatal(err)
	}
	return asm
}

// requestShapes covers every kind of analysis request: source, bytecode,
// predicates, selected stages and exec with inputs.
func requestShapes(t *testing.T) map[string]analyzeRequest {
	const pred = "read a; mode := 1; if (mode == 1) { r := 7; } else { r := a; } if (r < a) { r := a; } print r;"
	mixed := workload.Mixed(12, 77).String()
	return map[string]analyzeRequest{
		"source":          {Program: mixed},
		"bytecode":        {Program: asmOf(t, mixed), SourceKind: "bytecode"},
		"predicates":      {Program: pred, Predicates: true},
		"stages":          {Program: mixed, Stages: []string{"constprop", "epr"}},
		"exec":            {Program: "read n; i := 0; while (i < n) { print i * i; i := i + 1; }", Stages: []string{"exec"}, Inputs: []int64{4}},
		"bytecode-exec":   {Program: asmOf(t, pred), SourceKind: "bytecode", Inputs: []int64{3}},
		"bytecode-stages": {Program: asmOf(t, pred), SourceKind: "bytecode", Stages: []string{"ssa"}, Predicates: true},
	}
}

// expectedAnswer is what a fresh engine says about req: its canonical
// report bytes and its report key.
func expectedAnswer(t *testing.T, req analyzeRequest) (report []byte, key string) {
	t.Helper()
	stages := make([]pipeline.Stage, len(req.Stages))
	for i, s := range req.Stages {
		stages[i] = pipeline.Stage(s)
	}
	res, err := pipeline.New(pipeline.Config{}).Analyze(context.Background(),
		pipeline.Request{Source: req.Program, Stages: stages, Options: req.options()})
	if err != nil {
		t.Fatal(err)
	}
	report, err = json.Marshal(res.Report())
	if err != nil {
		t.Fatal(err)
	}
	key, err = pipeline.ReportKey(req.Program, req.options(), stages)
	if err != nil {
		t.Fatal(err)
	}
	return report, key
}

func postBatch(t *testing.T, ts *httptest.Server, breq batchRequest) batchResponse {
	t.Helper()
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
	if resp.StatusCode != http.StatusOK || !bresp.OK || len(bresp.Results) != len(breq.Requests) {
		t.Fatalf("batch: status=%d ok=%v results=%d error=%q",
			resp.StatusCode, bresp.OK, len(bresp.Results), bresp.Error)
	}
	return bresp
}

// TestCrossModeDifferential sends every request shape through every server
// mode, twice as a single request and once in a batch, and requires each
// answer to carry exactly a fresh engine's report bytes and report key.
func TestCrossModeDifferential(t *testing.T) {
	shapes := requestShapes(t)
	var names []string
	var breq batchRequest
	want := map[string][]byte{}
	wantKey := map[string]string{}
	for name := range shapes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		breq.Requests = append(breq.Requests, shapes[name])
		want[name], wantKey[name] = expectedAnswer(t, shapes[name])
	}
	check := func(t *testing.T, how string, out analyzeResponse, name string) {
		t.Helper()
		if !out.OK {
			t.Fatalf("%s %s: %s", name, how, out.Error)
		}
		if got := compactJSON(t, out.Report); !bytes.Equal(got, want[name]) {
			t.Fatalf("%s %s: report differs from a fresh engine's:\n got %.200s\nwant %.200s", name, how, got, want[name])
		}
		if out.Key != wantKey[name] {
			t.Fatalf("%s %s: key %q, want %q", name, how, out.Key, wantKey[name])
		}
	}
	for _, mode := range serveModes {
		t.Run(mode.name, func(t *testing.T) {
			ts := mode.start(t)
			for _, name := range names {
				for round := 0; round < 2; round++ {
					code, out := postAnalyze(t, ts, reqBody(t, shapes[name]))
					if code != http.StatusOK {
						t.Fatalf("%s single #%d: status %d: %s", name, round, code, out.Error)
					}
					check(t, "single", out, name)
				}
			}
			for i, out := range postBatch(t, ts, breq).Results {
				check(t, "batch", out, names[i])
			}
		})
	}
}

// TestDOTLeavesReportUnchanged: asking for DOT renderings adds them beside
// the report; the report is the one the same request gets without them.
func TestDOTLeavesReportUnchanged(t *testing.T) {
	req := analyzeRequest{Program: workload.Mixed(10, 5).String()}
	for _, mode := range serveModes {
		t.Run(mode.name, func(t *testing.T) {
			ts := mode.start(t)
			for _, stages := range [][]string{nil, {"constprop"}} {
				req.Stages, req.DOT = stages, nil
				code, plain := postAnalyze(t, ts, reqBody(t, req))
				if code != http.StatusOK {
					t.Fatalf("stages %v: status %d: %s", stages, code, plain.Error)
				}
				req.DOT = []string{"cfg", "dfg"}
				code, drawn := postAnalyze(t, ts, reqBody(t, req))
				if code != http.StatusOK {
					t.Fatalf("stages %v dot: status %d: %s", stages, code, drawn.Error)
				}
				if !bytes.Equal(compactJSON(t, drawn.Report), compactJSON(t, plain.Report)) || drawn.Key != plain.Key {
					t.Fatalf("stages %v: a DOT request changed the report", stages)
				}
				for _, d := range req.DOT {
					if !bytes.HasPrefix([]byte(drawn.DOT[d]), []byte("digraph")) {
						t.Errorf("stages %v: dot %s is not Graphviz output: %.40q", stages, d, drawn.DOT[d])
					}
				}
			}
		})
	}
}
