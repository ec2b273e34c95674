package pipeline

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// holdHook blocks the parse stage of src until release is closed, closing
// holding when it starts to wait.
func holdHook(src string, holding, release chan struct{}) func(Stage, string) {
	return func(st Stage, s string) {
		if s == src && st == StageParse {
			close(holding)
			<-release
		}
	}
}

// TestAdmissionBoundsConcurrentAnalyses: however many goroutines call
// Analyze, at most Workers run stages at once.
func TestAdmissionBoundsConcurrentAnalyses(t *testing.T) {
	var mu sync.Mutex
	cur, peak := 0, 0
	e := New(Config{Workers: 2, StageHook: func(st Stage, _ string) {
		switch st {
		case StageParse:
			mu.Lock()
			cur++
			peak = max(peak, cur)
			mu.Unlock()
			time.Sleep(2 * time.Millisecond)
		case StageEPR:
			mu.Lock()
			cur--
			mu.Unlock()
		}
	}})
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mustAnalyze(t, e, Request{Source: sampleSrc})
		}()
	}
	wg.Wait()
	if peak > 2 {
		t.Fatalf("%d analyses ran at once, want at most Workers = 2", peak)
	}
}

// TestQueuedAnalysisHonoursContext: a request waiting for a slot gives up
// when its context is cancelled or its timeout passes, and never starts.
func TestQueuedAnalysisHonoursContext(t *testing.T) {
	const heldSrc = "read h; print h;"
	holding, release := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	started := map[string]bool{}
	hold := holdHook(heldSrc, holding, release)
	e := New(Config{Workers: 1, StageHook: func(st Stage, src string) {
		mu.Lock()
		started[src] = true
		mu.Unlock()
		hold(st, src)
	}})
	held := make(chan error, 1)
	go func() {
		_, err := e.Analyze(context.Background(), Request{Source: heldSrc})
		held <- err
	}()
	<-holding

	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := e.Analyze(ctx, Request{Source: "read q; print q;"})
		queued <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it park on the full semaphore
	cancel()
	select {
	case err := <-queued:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled queued request: err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled queued request did not return within 1s")
	}
	if _, err := e.Analyze(context.Background(), Request{Source: "read d; print d;", Timeout: 20 * time.Millisecond}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued request past its timeout: err = %v, want deadline exceeded", err)
	}

	close(release)
	if err := <-held; err != nil {
		t.Fatalf("held request: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if started["read q; print q;"] || started["read d; print d;"] {
		t.Fatalf("a request that gave up in the queue ran stages: %v", started)
	}
}

// TestCacheTiersSkipAdmission: with every compute slot held, a request
// whose report is already in the LRU answers at once with tier lru.
func TestCacheTiersSkipAdmission(t *testing.T) {
	const heldSrc = "read h; print h;"
	holding, release := make(chan struct{}), make(chan struct{})
	e := New(Config{Workers: 1, StageHook: holdHook(heldSrc, holding, release)})
	warm := Request{Source: sampleSrc}
	if _, err := e.AnalyzeReport(context.Background(), warm); err != nil {
		t.Fatal(err)
	}
	held := make(chan error, 1)
	go func() {
		_, err := e.AnalyzeReport(context.Background(), Request{Source: heldSrc})
		held <- err
	}()
	<-holding
	defer func() {
		close(release)
		<-held
	}()

	hit := make(chan *ReportResult, 1)
	go func() {
		rr, err := e.AnalyzeReport(context.Background(), warm)
		if err != nil {
			t.Error(err)
		}
		hit <- rr
	}()
	select {
	case rr := <-hit:
		if rr == nil || rr.Tier != TierLRU {
			t.Fatalf("warm request answered %+v, want tier lru", rr)
		}
	case <-time.After(time.Second):
		t.Fatal("a report-LRU hit queued behind a held compute slot")
	}
}
