package pipeline

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// BatchResult pairs one request of a batch with its outcome. Exactly one of
// Result/Err is non-nil.
type BatchResult struct {
	Index  int
	Result *Result
	Err    error
}

// AnalyzeBatchStream fans reqs across up to Workers goroutines, taking
// them in index order, and hands each BatchResult to deliver as soon as its
// slot finishes; each Analyze still takes an engine slot, shared with every
// other caller. Nothing is kept afterwards, so a caller that reduces results
// (count, aggregate, write-to-disk) holds at most the in-flight ones.
// deliver is called exactly once per request, serially (never
// concurrently), but in completion order — use BatchResult.Index to
// realign. Each request gets its own timeout (Request.Timeout or the engine
// default) and its own panic isolation: a malformed program fails its own
// slot and never the batch or the process. Cancelling ctx abandons requests
// that have not started and interrupts running ones at their next stage
// boundary. AnalyzeBatchStream returns once every request has been
// delivered.
func (e *Engine) AnalyzeBatchStream(ctx context.Context, reqs []Request, deliver func(BatchResult)) {
	e.metrics.batches.Add(1)
	if len(reqs) == 0 {
		return
	}
	workers := e.cfg.Workers
	if workers > len(reqs) {
		workers = len(reqs)
	}

	var next atomic.Int64
	var mu sync.Mutex
	emit := func(br BatchResult) {
		mu.Lock()
		defer mu.Unlock()
		deliver(br)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				if err := ctx.Err(); err != nil {
					emit(BatchResult{Index: i, Err: err})
					continue
				}
				emit(e.analyzeSlot(ctx, i, reqs[i]))
			}
		}()
	}
	wg.Wait()
}

// analyzeSlot runs one batch slot with a recover backstop. Analyze already
// isolates stage panics; this guards the slot against panics anywhere else
// so one poisoned request can never take down the pool.
func (e *Engine) analyzeSlot(ctx context.Context, i int, req Request) (br BatchResult) {
	br.Index = i
	defer func() {
		if r := recover(); r != nil {
			br.Result = nil
			br.Err = fmt.Errorf("request %d panicked: %v", i, r)
		}
	}()
	br.Result, br.Err = e.Analyze(ctx, req)
	return br
}
