// Package backend glues the wire protocol to the pipeline engine: it is the
// request-handling core of cmd/dfg-worker, and the piece the frontier's
// end-to-end tests in cmd/dfg-serve reuse to run in-process workers over
// real loopback TCP.
package backend

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dfg/internal/pipeline"
	"dfg/internal/wire"
)

// Handler adapts eng into a wire.Handler: one wire Item in, one Result out,
// through the engine's report cache (AnalyzeReport). Results carry
// the canonical Report JSON bytes; the frontier forwards them verbatim.
func Handler(eng *pipeline.Engine) wire.Handler {
	return func(ctx context.Context, item wire.Item) wire.Result {
		req, err := toRequest(item)
		if err != nil {
			return wire.Result{OK: false, Error: err.Error(), Unprocessable: true}
		}
		rr, err := eng.AnalyzeReport(ctx, req)
		if err != nil {
			return Failure(err)
		}
		res := wire.Result{
			OK:     true,
			Key:    rr.Key,
			Report: rr.Raw,
			Tier:   string(rr.Tier),
			Meta:   map[string]wire.Meta{},
		}
		if rr.Tier == pipeline.TierCompute {
			for st, info := range rr.Stages {
				res.Meta[string(st)] = wire.Meta{NS: info.Duration.Nanoseconds()}
			}
		} else {
			// Cache tiers skip the stages entirely; report that as one
			// synthetic all-hit entry so clients still see provenance.
			res.Meta["report"] = wire.Meta{CacheHit: true}
		}
		return res
	}
}

// Failure is the Result for an analysis that failed with err. It marks
// the program at fault (parse errors, stage panics — pointless to retry on
// a replica) as Unprocessable, and leaves timeouts and cancellation
// unmarked.
func Failure(err error) wire.Result {
	unprocessable := !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled)
	return wire.Result{OK: false, Error: err.Error(), Unprocessable: unprocessable}
}

// StoreHandler adapts eng into a wire ServerOptions.StorePut hook: pushed
// artifacts land in the engine's report caches verbatim. Returns nil when
// the engine has no persistent store — the wire server then acks pushes
// with OK=false instead of pretending to replicate into RAM only.
func StoreHandler(eng *pipeline.Engine) func(key string, payload []byte) error {
	if eng.ArtifactStore() == nil {
		return nil
	}
	return eng.ImportReport
}

// toRequest validates and converts a wire Item into a pipeline Request.
func toRequest(item wire.Item) (pipeline.Request, error) {
	stages := make([]pipeline.Stage, 0, len(item.Stages))
	for _, s := range item.Stages {
		st := pipeline.Stage(s)
		if !pipeline.ValidStage(st) {
			return pipeline.Request{}, fmt.Errorf("unknown stage %q", s)
		}
		stages = append(stages, st)
	}
	kind := pipeline.SourceKind(item.SourceKind)
	if !pipeline.ValidSourceKind(kind) {
		return pipeline.Request{}, fmt.Errorf("unknown source kind %q", item.SourceKind)
	}
	return pipeline.Request{
		Source: item.Program,
		Stages: stages,
		Options: pipeline.Options{
			Predicates: item.Predicates,
			SourceKind: kind,
			ExecInputs: item.Inputs,
		},
		Timeout: time.Duration(item.TimeoutMS) * time.Millisecond,
	}, nil
}

// Item converts an HTTP-shaped analysis request into its wire form — the
// inverse of toRequest, used by the frontier when routing to backends.
func Item(program string, stages []string, opts pipeline.Options, timeout time.Duration) wire.Item {
	return wire.Item{
		Program:    program,
		Stages:     stages,
		Predicates: opts.Predicates,
		SourceKind: string(opts.SourceKind),
		Inputs:     opts.ExecInputs,
		TimeoutMS:  timeout.Milliseconds(),
	}
}
