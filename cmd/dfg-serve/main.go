// Command dfg-serve exposes the analysis pipeline as a JSON HTTP service.
// Every request takes one path: decode, validate, derive the report key and
// wire item, route, and convert the wire Result into the HTTP reply, whose
// "report" is the canonical Report JSON spliced in verbatim; each slot of
// a batch takes that same path. The modes differ only in the route:
//
// In-process (default): this process's engine answers every item through
// the same wire handler dfg-worker runs, with finished Reports cached in
// the content-addressed report LRU; add -store to persist them in the
// on-disk artifact store so warm traffic survives restarts.
//
// Frontier (-backends): the process becomes the serving frontier of a
// sharded deployment. Programs are routed by rendezvous hash over the
// wire protocol to dfg-worker backends, identical in-flight requests are
// deduplicated (singleflight), backends are health-checked, and a failed
// backend is retried transparently on the next replica, for single
// requests and batch slots alike:
//
//	dfg-worker -addr :8451 -store /var/lib/dfg/w1 &
//	dfg-worker -addr :8452 -store /var/lib/dfg/w2 &
//	dfg-serve  -backends 127.0.0.1:8451,127.0.0.1:8452
//
// Both modes report the cache tier ("tier": compute, lru or store) that
// answered. DOT renderings are drawn by this process's engine from the cfg
// and dfg stages alone, beside an unchanged report.
//
// Endpoints:
//
//	POST /analyze         {"program": "...", "stages": ["cfg","constprop"],
//	                       "predicates": false, "dot": ["cfg"]}
//	POST /analyze/batch   {"requests": [<analyze bodies>]}
//	GET  /healthz         liveness probe
//	GET  /statsz          per-stage, report-cache, store, and routing counters
//	GET  /debug/vars      expvar ("pipeline", plus "frontier" when sharded)
//	GET  /admin/backends  current backend set (frontier mode only)
//	POST /admin/backends  {"action":"add","name":"w4","addr":"host:port"} or
//	                      {"action":"remove","name":"w4"} — hot rebalance
//
// Flags:
//
//	-addr             listen address (default :8344)
//	-backends         comma-separated dfg-worker addresses, each "addr" or "name=addr" (empty = in-process)
//	-replicas         artifact replication factor R across backend stores (default 1 = off)
//	-hedge            hedge straggling requests against the next replica (default off)
//	-hedge-delay      pin the hedge delay (default 0 = adaptive, derived from observed p99)
//	-store            artifact store dir for in-process mode (empty = memory only)
//	-workers          analyses this process's engine runs at once (default GOMAXPROCS)
//	-timeout          per-request analysis timeout (default 10s)
//	-maxbody          POST /analyze body limit in bytes (default 4 MiB; batch 16x)
//	-health-interval  backend health-check cadence (default 2s)
//	-pprof            expose net/http/pprof under /debug/pprof/ (default off)
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight requests —
// including /analyze/batch fan-outs — drain before the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dfg/internal/frontier"
	"dfg/internal/pipeline"
	"dfg/internal/store"
)

var (
	flagAddr     = flag.String("addr", ":8344", "listen address")
	flagBackends = flag.String("backends", "", "comma-separated dfg-worker entries, \"addr\" or \"name=addr\"; empty = analyze in-process")
	flagStore    = flag.String("store", "", "artifact store directory for in-process mode (empty = memory only)")
	flagWorkers  = flag.Int("workers", 0, "analyses this process's engine runs at once (0 = GOMAXPROCS)")
	flagTimeout  = flag.Duration("timeout", 10*time.Second, "per-request analysis timeout")
	flagMaxBody  = flag.Int64("maxbody", 4<<20, "POST /analyze body limit in bytes")
	flagHealth   = flag.Duration("health-interval", 2*time.Second, "backend health-check cadence")
	flagReplicas = flag.Int("replicas", 1, "artifact replication factor across backend stores (1 = off)")
	flagHedge    = flag.Bool("hedge", false, "hedge straggling requests against the next replica")
	flagHedgeDur = flag.Duration("hedge-delay", 0, "pinned hedge delay (0 = adaptive p99-derived)")
	flagPprof    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default)")
)

func main() {
	flag.Parse()

	var st *store.Store
	if *flagStore != "" {
		var err error
		st, err = store.Open(*flagStore, store.Options{Schema: pipeline.ReportSchemaVersion})
		if err != nil {
			log.Fatalf("dfg-serve: %v", err)
		}
	}
	eng := pipeline.New(pipeline.Config{
		Workers:        *flagWorkers,
		DefaultTimeout: *flagTimeout,
		Store:          st,
	})

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var front *frontier.Frontier
	if *flagBackends != "" {
		// Each entry is "addr" or "name=addr". A name pins the backend's
		// placement identity, so a worker that restarts on a different
		// address keeps owning the same keys (and keeps hitting its own
		// artifact store).
		var addrs, names []string
		for _, entry := range strings.Split(*flagBackends, ",") {
			entry = strings.TrimSpace(entry)
			if name, addr, ok := strings.Cut(entry, "="); ok {
				names = append(names, strings.TrimSpace(name))
				addrs = append(addrs, strings.TrimSpace(addr))
			} else {
				names = append(names, "")
				addrs = append(addrs, entry)
			}
		}
		front = frontier.New(ctx, frontier.Config{
			Backends:       addrs,
			Names:          names,
			HealthInterval: *flagHealth,
			Replicas:       *flagReplicas,
			Hedge:          *flagHedge,
			HedgeDelay:     *flagHedgeDur,
		})
		log.Printf("dfg-serve: frontier mode, %d backend(s), replicas=%d hedge=%v: %s",
			len(addrs), *flagReplicas, *flagHedge, *flagBackends)
	}

	mux := newMux(eng, serverOptions{Frontier: front, MaxBody: *flagMaxBody, Timeout: *flagTimeout})
	if *flagPprof {
		mountPprof(mux)
	}
	srv := &http.Server{
		Addr:              *flagAddr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}

	log.Printf("dfg-serve: listening on %s (workers=%d)", *flagAddr, eng.Workers())
	if err := serveUntil(ctx, srv, nil, 30*time.Second); err != nil {
		log.Fatalf("dfg-serve: %v", err)
	}
}

// serveUntil runs srv until ctx is cancelled, then shuts down gracefully:
// the listener closes to new connections while every in-flight request —
// including /analyze/batch fan-outs — drains within drainTimeout. A nil listener means srv.Addr (production);
// the shutdown-under-load regression test passes its own loopback listener
// so it drives the exact production path on an ephemeral port.
func serveUntil(ctx context.Context, srv *http.Server, l net.Listener, drainTimeout time.Duration) error {
	errc := make(chan error, 1)
	go func() {
		if l != nil {
			errc <- srv.Serve(l)
		} else {
			errc <- srv.ListenAndServe()
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
