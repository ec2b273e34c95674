package backend

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dfg/internal/pipeline"
	"dfg/internal/store"
	"dfg/internal/wire"
)

func storeEngine(t *testing.T, dir string) *pipeline.Engine {
	t.Helper()
	st, err := store.Open(dir, store.Options{Schema: pipeline.ReportSchemaVersion, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return pipeline.New(pipeline.Config{Store: st})
}

// TestHandlerTiers pins the wire Result on each tier: a computed answer
// carries one Meta per stage with its compute time; an LRU or store answer
// carries a single "report" entry marked cache_hit, and the same bytes.
func TestHandlerTiers(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	item := wire.Item{Program: "read a; b := a + 1; if (b > 2) { print b; } print a + 1;"}

	h := Handler(storeEngine(t, dir))
	computed := h(ctx, item)
	if !computed.OK || computed.Tier != string(pipeline.TierCompute) {
		t.Fatalf("first answer: ok=%v tier=%q err=%q, want compute", computed.OK, computed.Tier, computed.Error)
	}
	if len(computed.Meta) != len(pipeline.AllStages()) {
		t.Errorf("computed meta has %d entries, want one per stage (%d): %+v",
			len(computed.Meta), len(pipeline.AllStages()), computed.Meta)
	}
	for _, st := range pipeline.AllStages() {
		m, ok := computed.Meta[string(st)]
		if !ok || m.NS <= 0 || m.CacheHit {
			t.Errorf("computed meta[%s] = %+v (present=%v), want ns > 0 and no cache hit", st, m, ok)
		}
	}

	cached := func(label string, r wire.Result, tier pipeline.ReportTier) {
		t.Helper()
		if !r.OK || r.Tier != string(tier) {
			t.Fatalf("%s answer: ok=%v tier=%q, want %s", label, r.OK, r.Tier, tier)
		}
		if len(r.Meta) != 1 || !r.Meta["report"].CacheHit {
			t.Errorf("%s meta = %+v, want a single cache-hit report entry", label, r.Meta)
		}
		if r.Key != computed.Key || !bytes.Equal(r.Report, computed.Report) {
			t.Errorf("%s answer differs from the computed one", label)
		}
	}
	cached("repeat", h(ctx, item), pipeline.TierLRU)
	// A fresh engine on the same directory: the restarted worker's store.
	cached("restart", Handler(storeEngine(t, dir))(ctx, item), pipeline.TierStore)
}

// TestHandlerRejectsUnknownStage: an unknown stage is the request's fault,
// so it is Unprocessable and never retried on a replica.
func TestHandlerRejectsUnknownStage(t *testing.T) {
	r := Handler(pipeline.New(pipeline.Config{}))(context.Background(),
		wire.Item{Program: "read a; print a;", Stages: []string{"cfg", "bogus"}})
	if r.OK || !r.Unprocessable || !strings.Contains(r.Error, `unknown stage "bogus"`) {
		t.Fatalf("unknown stage: %+v, want an unprocessable error naming it", r)
	}
}

// TestFailureClassification: a stage error (the program's fault) is
// Unprocessable; a deadline or a cancellation, even wrapped, is not.
func TestFailureClassification(t *testing.T) {
	for _, c := range []struct {
		err  error
		want bool
	}{
		{&pipeline.StageError{Stage: pipeline.StageParse, Err: errors.New("1:1: bad")}, true},
		{&pipeline.StageError{Stage: pipeline.StageDFG, Panicked: true, Err: errors.New("boom")}, true},
		{context.DeadlineExceeded, false},
		{fmt.Errorf("stage epr: %w", context.DeadlineExceeded), false},
		{context.Canceled, false},
	} {
		r := Failure(c.err)
		if r.OK || r.Unprocessable != c.want || r.Error != c.err.Error() {
			t.Errorf("Failure(%v) = %+v, want unprocessable=%v", c.err, r, c.want)
		}
	}
}
