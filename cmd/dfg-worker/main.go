// Command dfg-worker is an analysis backend: it wraps the pipeline engine
// plus the persistent artifact store behind the versioned wire protocol of
// internal/wire, for a dfg-serve frontier to route programs to. A sharded
// deployment runs N workers (each with its own store directory) behind one
// frontier:
//
//	dfg-worker -addr :8451 -store /var/lib/dfg/w1 &
//	dfg-worker -addr :8452 -store /var/lib/dfg/w2 &
//	dfg-serve  -backends 127.0.0.1:8451,127.0.0.1:8452
//
// Flags:
//
//	-addr             listen address (default :8451)
//	-store            artifact store directory (default dfg-store; empty
//	                  disables persistence, leaving only the report LRU)
//	-store-max-bytes  store size bound; eviction compacts by access time
//	                  when exceeded (default 0 = unbounded)
//	-workers  analyses run at once, process-wide (default GOMAXPROCS)
//	-reports  report LRU capacity in front of the store (default 512)
//	-timeout  per-item analysis timeout cap (default 30s)
//	-nosync   skip fsync on store writes (benchmarks only)
//
// Each wire connection carries one item at a time. -workers is the one
// concurrency bound: the engine admits at most that many analyses at once
// across all connections, and report-LRU and store hits answer without
// waiting for one. A connection that closes while its item is computing or
// queued cancels the item, so a frontier's hedge loser stops at its next
// stage boundary instead of holding a slot.
//
// The worker shuts down gracefully on SIGINT/SIGTERM: in-flight items
// finish and send their results before connections close, so a rolling
// restart behind a frontier is invisible to clients.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"dfg/internal/backend"
	"dfg/internal/pipeline"
	"dfg/internal/store"
	"dfg/internal/wire"
)

var (
	flagAddr     = flag.String("addr", ":8451", "listen address")
	flagStore    = flag.String("store", "dfg-store", "artifact store directory (empty = no persistence)")
	flagStoreMax = flag.Int64("store-max-bytes", 0, "artifact store size bound in bytes (0 = unbounded)")
	flagWorkers  = flag.Int("workers", 0, "analyses run at once, process-wide (0 = GOMAXPROCS)")
	flagReports  = flag.Int("reports", 512, "report cache capacity (in front of the store)")
	flagTimeout  = flag.Duration("timeout", 30*time.Second, "per-item analysis timeout")
	flagNoSync   = flag.Bool("nosync", false, "skip fsync on store writes (benchmarks only)")
)

func main() {
	flag.Parse()
	workers := *flagWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	var st *store.Store
	if *flagStore != "" {
		var err error
		st, err = store.Open(*flagStore, store.Options{
			Schema:   pipeline.ReportSchemaVersion,
			NoSync:   *flagNoSync,
			MaxBytes: *flagStoreMax,
		})
		if err != nil {
			log.Fatalf("dfg-worker: %v", err)
		}
	}
	eng := pipeline.New(pipeline.Config{
		Workers:            workers,
		ReportCacheEntries: *flagReports,
		DefaultTimeout:     *flagTimeout,
		Store:              st,
	})
	eng.PublishExpvar("pipeline")

	srv := wire.NewServer(backend.Handler(eng), wire.ServerOptions{
		Schema:   pipeline.ReportSchemaVersion,
		Name:     "dfg-worker",
		StorePut: backend.StoreHandler(eng),
	})
	l, err := net.Listen("tcp", *flagAddr)
	if err != nil {
		log.Fatalf("dfg-worker: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	storeDesc := "none"
	if st != nil {
		storeDesc = st.Root()
	}
	log.Printf("dfg-worker: listening on %s (workers=%d store=%s schema=%d proto=%d)",
		l.Addr(), workers, storeDesc, pipeline.ReportSchemaVersion, wire.ProtoVersion)

	select {
	case err := <-errc:
		if !errors.Is(err, wire.ErrServerClosed) {
			log.Fatalf("dfg-worker: %v", err)
		}
	case <-ctx.Done():
	}

	log.Printf("dfg-worker: draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("dfg-worker: shutdown: %v", err)
	}
}
