package frontier

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dfg/internal/pipeline"
	"dfg/internal/wire"
)

// peer is how a hand-rolled wire peer treats the connections and requests
// it is sent.
type peer struct {
	down  bool          // close every connection before the handshake
	delay time.Duration // wait this long on each request before acting
	fail  bool          // then drop the connection instead of answering
}

// startPeer runs p on loopback and returns its address and the number of
// requests it has been sent. An answer's report is {"from":name}.
func startPeer(t *testing.T, name string, p peer) (string, *atomic.Int32) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop); l.Close() })
	requests := new(atomic.Int32)
	report := json.RawMessage(fmt.Sprintf(`{"from":%q}`, name))
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if p.down {
					return
				}
				if kind, _, err := readTestFrame(conn); err != nil || kind != 1 { // hello
					return
				}
				writeTestFrame(t, conn, 2, map[string]any{
					"proto": wire.ProtoVersion, "schema": pipeline.ReportSchemaVersion, "server": name})
				for {
					kind, payload, err := readTestFrame(conn)
					if err != nil {
						return
					}
					switch kind {
					case 6: // ping
						writeTestFrame(t, conn, 7, struct{}{})
					case 3: // request
						requests.Add(1)
						var b struct {
							ID uint64 `json:"id"`
						}
						json.Unmarshal(payload, &b)
						select {
						case <-time.After(p.delay):
						case <-stop:
							return
						}
						if p.fail {
							return
						}
						writeTestFrame(t, conn, 4, map[string]any{
							"id": b.ID, "ok": true, "key": "k",
							"tier": "store", "report": report})
					default:
						return
					}
				}
			}(conn)
		}
	}()
	return l.Addr().String(), requests
}

// TestRouteCounters pins what one route does to the frontier's counters
// for each way its backends can fail, over three hand-rolled peers given
// by preference rank: which backend answers, the retries, hedges,
// hedge_wins and routed_ok/routed_err counts, and that no backend is
// attempted twice.
func TestRouteCounters(t *testing.T) {
	type counts struct{ retries, hedges, hedgeWins, ok, err int64 }
	cases := []struct {
		name   string
		hedge  bool
		peers  [3]peer // primary, second and third owner
		served int     // rank of the answering backend; -1 for none
		want   counts
		errSub string
	}{
		{
			name:   "primary down, second serves",
			peers:  [3]peer{{down: true}, {}, {}},
			served: 1,
			want:   counts{retries: 1, ok: 1},
		},
		{
			name:   "hedge fires and wins",
			hedge:  true,
			peers:  [3]peer{{delay: 5 * time.Second}, {}, {}},
			served: 1,
			want:   counts{hedges: 1, hedgeWins: 1, ok: 1},
		},
		{
			name:  "primary and hedge fail, third serves",
			hedge: true,
			peers: [3]peer{
				{delay: 300 * time.Millisecond, fail: true},
				{delay: 300 * time.Millisecond, fail: true},
				{},
			},
			served: 2,
			want:   counts{retries: 1, hedges: 1, ok: 1},
		},
		{
			name:   "every backend down",
			peers:  [3]peer{{down: true}, {down: true}, {down: true}},
			served: -1,
			want:   counts{retries: 2, err: 1},
			errSub: "all 3 backend attempt(s) failed",
		},
	}

	const key = "route-key"
	names := []string{"a", "b", "c"}
	// Placement depends only on the names, so a frontier over placeholder
	// addresses gives the preference order before any peer starts.
	pctx, pcancel := context.WithCancel(context.Background())
	defer pcancel()
	probe := New(pctx, Config{Backends: names, Names: names, HealthInterval: time.Hour})
	var ranked []string
	for _, b := range probe.order(key) {
		ranked = append(ranked, b.name)
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addrs := make([]string, len(ranked))
			requests := make([]*atomic.Int32, len(ranked))
			for rank, name := range ranked {
				addrs[rank], requests[rank] = startPeer(t, name, tc.peers[rank])
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := Config{Backends: addrs, Names: ranked, HealthInterval: time.Hour}
			if tc.hedge {
				cfg.Hedge, cfg.HedgeDelay = true, 10*time.Millisecond
			}
			f := New(ctx, cfg)

			res, err := f.Analyze(ctx, key, wire.Item{Program: "p"})
			if tc.served >= 0 {
				if err != nil {
					t.Fatalf("route failed: %v", err)
				}
				if want := fmt.Sprintf(`{"from":%q}`, ranked[tc.served]); string(res.Report) != want {
					t.Fatalf("answered by %s, want %s", res.Report, want)
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.errSub) {
				t.Fatalf("error = %v, want one containing %q", err, tc.errSub)
			}

			got := counts{f.retries.Load(), f.hedges.Load(), f.hedgeWins.Load(), f.routedOK.Load(), f.routedErr.Load()}
			if got != tc.want {
				t.Fatalf("counters {retries hedges hedgeWins ok err} = %+v, want %+v", got, tc.want)
			}
			for rank, b := range requests {
				if n := b.Load(); n > 1 {
					t.Fatalf("rank %d backend was sent %d requests", rank, n)
				}
			}
			for _, b := range f.Stats().Backends {
				if b.Requests > 1 {
					t.Fatalf("backend %s attempted %d times in one route", b.Name, b.Requests)
				}
			}
		})
	}
}
