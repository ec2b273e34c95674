package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"

	"dfg/internal/backend"
	"dfg/internal/frontier"
	"dfg/internal/pipeline"
	"dfg/internal/wire"
)

// analyzeRequest is the POST /analyze body (and one element of the POST
// /analyze/batch body).
type analyzeRequest struct {
	// Program is the source text in the analysis language.
	Program string `json:"program"`
	// Stages lists the stages to run; empty means all of them.
	Stages []string `json:"stages,omitempty"`
	// Predicates enables the x == c refinement in constprop.
	Predicates bool `json:"predicates,omitempty"`
	// SourceKind selects the frontend for Program: "" (default) for
	// toy-language source, "bytecode" for bytecode assembly text recovered
	// into a CFG by abstract interpretation.
	SourceKind string `json:"source_kind,omitempty"`
	// Inputs is the input stream for the "exec" stage, which runs the
	// program under the CFG interpreter and the token-driven DFG executor
	// and reports whether they agree.
	Inputs []int64 `json:"inputs,omitempty"`
	// DOT requests Graphviz renderings: any of "cfg", "dfg". They are drawn
	// by this process's engine beside the report, which they do not change.
	DOT []string `json:"dot,omitempty"`
}

// analyzeResponse is the POST /analyze reply.
type analyzeResponse struct {
	OK  bool   `json:"ok"`
	Key string `json:"key,omitempty"`
	// Report is the canonical Report JSON exactly as the answering backend
	// produced it; only the response's indentation is applied on top.
	Report json.RawMessage      `json:"report,omitempty"`
	Meta   map[string]wire.Meta `json:"meta,omitempty"`
	DOT    map[string]string    `json:"dot,omitempty"`
	// Tier says which cache tier satisfied the request (compute/lru/store).
	Tier  string `json:"tier,omitempty"`
	Error string `json:"error,omitempty"`
}

// batchRequest is the POST /analyze/batch body.
type batchRequest struct {
	Requests []analyzeRequest `json:"requests"`
}

// batchResponse is the POST /analyze/batch reply, index-aligned with the
// request.
type batchResponse struct {
	OK      bool              `json:"ok"`
	Results []analyzeResponse `json:"results"`
	Error   string            `json:"error,omitempty"`
}

// serverOptions configure newMux beyond the engine.
type serverOptions struct {
	// Frontier, when non-nil, routes analyses to remote backends; nil
	// answers them with this process's engine.
	Frontier *frontier.Frontier
	// MaxBody bounds a POST /analyze body; <=0 means 4 MiB. Batch bodies
	// get 16x this budget.
	MaxBody int64
	// Timeout is the per-item analysis budget carried by every wire item;
	// <=0 means 30s.
	Timeout time.Duration
}

func (o *serverOptions) defaults() {
	if o.MaxBody <= 0 {
		o.MaxBody = 4 << 20
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
}

// server routes HTTP traffic to a pipeline engine and, when configured, a
// fleet of wire backends.
type server struct {
	eng   *pipeline.Engine
	local wire.Handler // backend.Handler(eng): answers items when front is nil
	front *frontier.Frontier
	opts  serverOptions
}

// newMux builds the service's routing table around eng.
func newMux(eng *pipeline.Engine, opts serverOptions) *http.ServeMux {
	opts.defaults()
	s := &server{eng: eng, local: backend.Handler(eng), front: opts.Frontier, opts: opts}
	eng.PublishExpvar("pipeline")
	if s.front != nil && expvar.Get("frontier") == nil {
		expvar.Publish("frontier", expvar.Func(func() any { return s.front.Stats() }))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /analyze", s.handleAnalyze)
	mux.HandleFunc("POST /analyze/batch", s.handleAnalyzeBatch)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.Handle("GET /debug/vars", expvar.Handler())
	if s.front != nil {
		mux.HandleFunc("GET /admin/backends", s.handleBackendsGet)
		mux.HandleFunc("POST /admin/backends", s.handleBackendsPost)
	}
	return mux
}

// mountPprof adds the net/http/pprof endpoints to mux. They are opt-in
// (the -pprof flag) because profile handlers expose stack traces and can
// pause the process for seconds; production deployments should keep them
// off or behind network policy.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// decodeBody decodes a bounded JSON request body, translating the
// over-limit case into 413 (the unbounded read this replaced was a trivial
// memory-exhaustion hole once the frontier faces real traffic).
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) (ok bool) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeJSON(w, http.StatusRequestEntityTooLarge, analyzeResponse{
				Error: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)})
			return false
		}
		writeJSON(w, http.StatusBadRequest, analyzeResponse{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

// options builds the pipeline options one analyzeRequest asks for.
func (req *analyzeRequest) options() pipeline.Options {
	return pipeline.Options{
		Predicates: req.Predicates,
		SourceKind: pipeline.SourceKind(req.SourceKind),
		ExecInputs: req.Inputs,
	}
}

// validate checks one analyzeRequest and builds its report key and wire
// item, the form in which every mode answers it.
func (s *server) validate(req *analyzeRequest, allowDOT bool) (string, wire.Item, error) {
	if strings.TrimSpace(req.Program) == "" {
		return "", wire.Item{}, errors.New("empty program")
	}
	if !pipeline.ValidSourceKind(pipeline.SourceKind(req.SourceKind)) {
		return "", wire.Item{}, fmt.Errorf("unknown source kind %q", req.SourceKind)
	}
	stages := make([]pipeline.Stage, 0, len(req.Stages))
	for _, st := range req.Stages {
		stage := pipeline.Stage(st)
		if !pipeline.ValidStage(stage) {
			return "", wire.Item{}, fmt.Errorf("unknown stage %q", st)
		}
		stages = append(stages, stage)
	}
	for _, d := range req.DOT {
		if !allowDOT {
			return "", wire.Item{}, errors.New("dot renderings are not available on batch requests")
		}
		if d != "cfg" && d != "dfg" {
			return "", wire.Item{}, fmt.Errorf("unknown dot target %q (want cfg or dfg)", d)
		}
	}
	opts := req.options()
	key, err := pipeline.ReportKey(req.Program, opts, stages)
	if err != nil {
		return "", wire.Item{}, err
	}
	return key, backend.Item(req.Program, req.Stages, opts, s.opts.Timeout), nil
}

// route answers one validated item for both endpoints: frontier.Analyze
// with -backends, else the wire handler dfg-worker runs, on this engine.
func (s *server) route(ctx context.Context, key string, item wire.Item) (wire.Result, error) {
	if s.front != nil {
		return s.front.Analyze(ctx, key, item)
	}
	return s.local(ctx, item), nil
}

func (s *server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req analyzeRequest
	if !decodeBody(w, r, s.opts.MaxBody, &req) {
		return
	}
	key, item, err := s.validate(&req, true)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, analyzeResponse{Error: err.Error()})
		return
	}
	ctx := r.Context()
	res, err := s.route(ctx, key, item)
	resp, code := toHTTP(ctx, res, err)
	if code == http.StatusOK && len(req.DOT) > 0 {
		if resp.DOT, err = s.drawDOT(ctx, &req); err != nil {
			resp, code = toHTTP(ctx, backend.Failure(err), nil)
		}
	}
	writeJSON(w, code, resp)
}

// drawDOT renders the requested graphs from this process's engine, running
// only the stages they need.
func (s *server) drawDOT(ctx context.Context, req *analyzeRequest) (map[string]string, error) {
	stages := make([]pipeline.Stage, len(req.DOT))
	for i, d := range req.DOT {
		stages[i] = pipeline.Stage(d)
	}
	res, err := s.eng.Analyze(ctx, pipeline.Request{
		Source:  req.Program,
		Stages:  stages,
		Options: req.options(),
		Timeout: s.opts.Timeout,
	})
	if err != nil {
		return nil, err
	}
	dot := make(map[string]string, len(req.DOT))
	for _, d := range req.DOT {
		if d == "cfg" {
			dot[d] = res.CFG.DOT("cfg", false)
		} else {
			dot[d] = res.DFG.DOT("dfg")
		}
	}
	return dot, nil
}

// toHTTP converts one routed answer into the HTTP reply; the one status
// rule for every mode and endpoint. A routing error (err) is 408 if the
// client went away and 502 otherwise. A failed Result is 422 when the
// program is at fault, else 408 if the client went away and 504 otherwise:
// the analysis ran out of its budget. The report bytes are spliced in
// verbatim.
func toHTTP(ctx context.Context, res wire.Result, err error) (analyzeResponse, int) {
	switch {
	case err != nil && ctx.Err() != nil:
		return analyzeResponse{Error: err.Error()}, http.StatusRequestTimeout
	case err != nil:
		return analyzeResponse{Error: err.Error()}, http.StatusBadGateway
	case !res.OK && res.Unprocessable:
		return analyzeResponse{Error: res.Error}, http.StatusUnprocessableEntity
	case !res.OK && ctx.Err() != nil:
		return analyzeResponse{Error: res.Error}, http.StatusRequestTimeout
	case !res.OK:
		return analyzeResponse{Error: res.Error}, http.StatusGatewayTimeout
	case len(res.Report) == 0:
		return analyzeResponse{Error: "malformed backend report: empty report"}, http.StatusBadGateway
	}
	return analyzeResponse{OK: true, Key: res.Key, Report: res.Report, Meta: res.Meta, Tier: res.Tier}, http.StatusOK
}

// handleAnalyzeBatch analyzes many programs in one call, routing each slot
// as a single /analyze request (so with -backends slots are deduplicated,
// failed over, hedged and replicated), several at a time.
// Per-item failures fail their slot, never the batch.
func (s *server) handleAnalyzeBatch(w http.ResponseWriter, r *http.Request) {
	var breq batchRequest
	if !decodeBody(w, r, s.opts.MaxBody*16, &breq) {
		return
	}
	if len(breq.Requests) == 0 {
		writeJSON(w, http.StatusBadRequest, batchResponse{Error: "empty batch"})
		return
	}

	// Slots are routed at most a limit the route already enforces at a
	// time: the engine's worker pool, or the frontier's connection budget
	// (at least 1, so slots on an emptied backend set still fail in turn).
	width := s.eng.Workers()
	if s.front != nil {
		width = max(s.front.ConnBudget(), 1)
	}
	ctx := r.Context()
	results := make([]analyzeResponse, len(breq.Requests))
	sem := make(chan struct{}, width)
	var wg sync.WaitGroup
	for i := range breq.Requests {
		key, item, err := s.validate(&breq.Requests[i], false)
		if err != nil {
			results[i] = analyzeResponse{Error: err.Error()}
			continue
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			res, err := s.route(ctx, key, item)
			results[i], _ = toHTTP(ctx, res, err)
		}()
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, batchResponse{OK: true, Results: results})
}

// adminBackendRequest is the POST /admin/backends body: hot-add or
// hot-remove one backend in the frontier's backend set. Names are the
// stable placement identity, so a rebalance moves only the keys the changed
// backend gains or loses.
type adminBackendRequest struct {
	Action string `json:"action"` // "add" or "remove"
	Name   string `json:"name"`
	Addr   string `json:"addr,omitempty"` // required for add
}

// adminBackendResponse answers both admin verbs with the post-change set.
type adminBackendResponse struct {
	OK       bool                    `json:"ok"`
	Backends []frontier.BackendStats `json:"backends"`
	Error    string                  `json:"error,omitempty"`
}

func (s *server) handleBackendsGet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, adminBackendResponse{OK: true, Backends: s.front.Stats().Backends})
}

func (s *server) handleBackendsPost(w http.ResponseWriter, r *http.Request) {
	var req adminBackendRequest
	if !decodeBody(w, r, 1<<16, &req) {
		return
	}
	var err error
	switch req.Action {
	case "add":
		err = s.front.AddBackend(req.Name, req.Addr)
	case "remove":
		err = s.front.RemoveBackend(req.Name)
	default:
		writeJSON(w, http.StatusBadRequest, adminBackendResponse{Error: fmt.Sprintf("unknown action %q (want add or remove)", req.Action)})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusConflict, adminBackendResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, adminBackendResponse{OK: true, Backends: s.front.Stats().Backends})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "time": time.Now().UTC().Format(time.RFC3339)})
}

// statszResponse is the /statsz shape: the engine snapshot (flattened, for
// compatibility with pre-frontier clients) plus the frontier's routing
// counters when sharding is on.
type statszResponse struct {
	pipeline.Snapshot
	Frontier *frontier.Stats `json:"frontier,omitempty"`
}

func (s *server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	resp := statszResponse{Snapshot: s.eng.Snapshot()}
	if s.front != nil {
		fs := s.front.Stats()
		resp.Frontier = &fs
	}
	writeJSON(w, http.StatusOK, resp)
}
