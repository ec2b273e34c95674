package pipeline

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"dfg/internal/store"
)

// ReportSchemaVersion names the wire/disk format of Report. Bump it on any
// change to Report's JSON shape: the schema version is folded into every
// report-level cache key and into the persistent store's artifact headers,
// so a bump atomically invalidates every stale artifact (the store's
// open-time migration hook reclaims their space), and the wire protocol's
// handshake refuses to pair a frontier and a backend that disagree on it.
// Version history:
//
//	1: initial shape.
//	2: added the "bytecode" section (BytecodeReport) for KindBytecode
//	   requests, and Options gained SourceKind (folded into every cache
//	   key via the options fingerprint).
const ReportSchemaVersion = 2

// ReportTier says which cache tier satisfied an AnalyzeReport call.
type ReportTier string

const (
	TierCompute ReportTier = "compute" // ran the pipeline
	TierLRU     ReportTier = "lru"     // in-memory report cache
	TierStore   ReportTier = "store"   // persistent artifact store
)

// ReportResult is the outcome of AnalyzeReport: the deterministic Report
// JSON plus provenance. Raw is canonical (compact json.Marshal of Report) —
// every tier returns the same bytes for the same key, which is what the
// end-to-end differential tests pin.
type ReportResult struct {
	Key  string // report-level content address
	Raw  []byte // canonical Report JSON
	Tier ReportTier
	// Stages holds per-stage compute times; populated only when the report
	// was computed this call (cache tiers do not re-run stages).
	Stages map[Stage]StageInfo
}

// ReportKey is the content address of the Report for (source, options,
// stages): the artifact-store key and the singleflight/dedup identity. The
// stage set is part of the key because the Report's shape depends on which
// stages ran; the schema version is part of the key so a format change can
// never serve a stale artifact.
func ReportKey(source string, opts Options, stages []Stage) (string, error) {
	if len(stages) == 0 {
		stages = AllStages()
	}
	plan, err := expandStages(stages)
	if err != nil {
		return "", err
	}
	names := make([]string, len(plan))
	execRequested := false
	for i, s := range plan {
		names[i] = string(s)
		if s == StageExec {
			execRequested = true
		}
	}
	k := key(source, opts) + "/stages=" + strings.Join(names, ",")
	if execRequested {
		k += fmt.Sprintf("/inputs=%v", opts.ExecInputs)
	}
	return k + fmt.Sprintf("/schema=%d", ReportSchemaVersion), nil
}

// AnalyzeReport answers a request at Report granularity: the in-memory
// report LRU first, then the persistent store when one is configured, then
// a full Analyze. Computed reports are written through to both tiers. This
// is the entry point the wire backends (cmd/dfg-worker) and dfg-serve's
// in-process mode use; callers that need live artifacts (DOT rendering)
// use Analyze.
func (e *Engine) AnalyzeReport(ctx context.Context, req Request) (*ReportResult, error) {
	rkey, err := ReportKey(req.Source, req.Options, req.Stages)
	if err != nil {
		return nil, err
	}
	if raw, ok := e.reportLRU.get(rkey); ok {
		e.metrics.reportHits.Add(1)
		return &ReportResult{Key: rkey, Raw: raw, Tier: TierLRU}, nil
	}
	e.metrics.reportMisses.Add(1)
	if e.cfg.Store != nil {
		if raw, ok := e.cfg.Store.Get(rkey); ok {
			e.reportLRU.put(rkey, raw)
			return &ReportResult{Key: rkey, Raw: raw, Tier: TierStore}, nil
		}
	}
	res, err := e.Analyze(ctx, req)
	if err != nil {
		return nil, err
	}
	rep := res.Report()
	raw, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("pipeline: marshal report: %w", err)
	}
	if e.cfg.Store != nil {
		if err := e.cfg.Store.Put(rkey, raw); err != nil {
			// A full disk or permission problem must not fail the analysis;
			// the report was computed. Count it and serve.
			e.metrics.storePutErrors.Add(1)
		}
	}
	e.reportLRU.put(rkey, raw)
	return &ReportResult{Key: rkey, Raw: raw, Tier: TierCompute, Stages: res.Stages}, nil
}

// ImportReport accepts a finished Report pushed from elsewhere — the
// frontier's replication and read-repair path — and installs it in the
// store (when configured) and the report LRU under its report key, bytes
// verbatim. Storing the pushed
// bytes (rather than re-marshalling) preserves the byte-identical
// cross-worker property the differential tests pin. The key is trusted:
// it was derived by a worker running the same ReportKey code behind the
// same schema-checked wire handshake.
func (e *Engine) ImportReport(key string, raw []byte) error {
	if key == "" || len(raw) == 0 {
		return fmt.Errorf("pipeline: import needs a key and a payload")
	}
	if !json.Valid(raw) {
		return fmt.Errorf("pipeline: imported report for %q is not valid JSON", key)
	}
	if e.cfg.Store != nil {
		if err := e.cfg.Store.Put(key, raw); err != nil {
			e.metrics.storePutErrors.Add(1)
			return err
		}
	}
	e.reportLRU.put(key, raw)
	return nil
}

// ArtifactStore exposes the engine's persistent artifact store (nil when
// the engine is purely in-memory).
func (e *Engine) ArtifactStore() *store.Store { return e.cfg.Store }
