package frontier

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dfg/internal/pipeline"
	"dfg/internal/wire"
)

// TestRoutingStability: rendezvous placement sends a key to the same
// backend every time, spreads distinct keys across backends, and changes as
// little as possible when a backend disappears (keys previously owned by
// survivors stay put).
func TestRoutingStability(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mk := func(addrs ...string) *Frontier {
		return New(ctx, Config{Backends: addrs, HealthInterval: time.Hour})
	}
	f3 := mk("a:1", "b:1", "c:1")
	f2 := mk("a:1", "b:1")

	counts := map[string]int{}
	moved := 0
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("program-%d", i)
		o3 := f3.order(key)
		if o3[0] != f3.order(key)[0] {
			t.Fatal("routing not deterministic")
		}
		counts[o3[0].addr]++
		// Removing c must not move keys that lived on a or b.
		if o3[0].addr != "c:1" && f2.order(key)[0].addr != o3[0].addr {
			moved++
		}
		// The failover order must visit every backend exactly once.
		seen := map[string]bool{}
		for _, b := range o3 {
			seen[b.addr] = true
		}
		if len(seen) != 3 {
			t.Fatalf("failover order incomplete: %v", seen)
		}
	}
	for _, n := range counts {
		if n == 0 || n == 300 {
			t.Fatalf("degenerate placement: %v", counts)
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys moved between surviving backends on shrink", moved)
	}
}

// placementKeys returns n keys shaped like the served ones: hex SHA-256
// content addresses.
func placementKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		sum := sha256.Sum256([]byte(fmt.Sprintf("program-%d", i)))
		keys[i] = hex.EncodeToString(sum[:])
	}
	return keys
}

// namedFrontier builds a frontier over backends with the given stable
// names. Nothing is dialed: the tests below only read placement.
func namedFrontier(t *testing.T, names []string) *Frontier {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	addrs := make([]string, len(names))
	for i, n := range names {
		addrs[i] = n + ":1"
	}
	return New(ctx, Config{Backends: addrs, Names: names, HealthInterval: time.Hour})
}

func backendNames(format string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf(format, i+1)
	}
	return names
}

// TestPlacementBalance: every backend owns its fair share of the keyspace
// within ±10%, for 2–8 backends under the short names deployments use.
// Short names that differ in one byte are the case unmixed FNV placement
// got wrong (w1 owned 97% of the keys against w2).
func TestPlacementBalance(t *testing.T) {
	keys := placementKeys(20000)
	for _, format := range []string{"w%d", "worker-%d"} {
		for n := 2; n <= 8; n++ {
			f := namedFrontier(t, backendNames(format, n))
			counts := map[string]int{}
			for _, k := range keys {
				counts[f.Owner(k)]++
			}
			fair := float64(len(keys)) / float64(n)
			for _, name := range backendNames(format, n) {
				if c := float64(counts[name]); c < 0.9*fair || c > 1.1*fair {
					t.Errorf("%d backends named %q: %s owns %d keys, want %.0f ±10%%: %v",
						n, format, name, counts[name], fair, counts)
				}
			}
		}
	}
}

// TestPlacementMovesOnlyChangedBackendKeys: adding a backend moves only the
// keys it now owns (about 1/N of them); removing one moves only its own.
func TestPlacementMovesOnlyChangedBackendKeys(t *testing.T) {
	keys := placementKeys(20000)
	f := namedFrontier(t, backendNames("w%d", 4))
	before := make([]string, len(keys))
	for i, k := range keys {
		before[i] = f.Owner(k)
	}

	if err := f.AddBackend("w5", "w5:1"); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i, k := range keys {
		if now := f.Owner(k); now != before[i] {
			if now != "w5" {
				t.Fatalf("key %s moved %s -> %s on adding w5", k, before[i], now)
			}
			moved++
		}
	}
	if share := float64(moved) / float64(len(keys)); share < 0.9/5 || share > 1.1/5 {
		t.Fatalf("adding a 5th backend moved %.3f of the keys, want 1/5 ±10%%", share)
	}
	if err := f.RemoveBackend("w5"); err != nil {
		t.Fatal(err)
	}

	if err := f.RemoveBackend("w2"); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		now := f.Owner(k)
		if before[i] == "w2" {
			if now == "w2" {
				t.Fatalf("key %s still owned by removed backend w2", k)
			}
		} else if now != before[i] {
			t.Fatalf("key %s moved %s -> %s on removing w2", k, before[i], now)
		}
	}
}

// TestUnhealthyBackendsDemoted: order keeps unhealthy replicas as a last
// resort rather than dropping them from the candidate list.
func TestUnhealthyBackendsDemoted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := New(ctx, Config{Backends: []string{"a:1", "b:1"}, HealthInterval: time.Hour})
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		first := f.order(key)[0]
		first.healthy.Store(false)
		demoted := f.order(key)
		if demoted[0] == first {
			t.Fatalf("unhealthy backend %s still preferred for %s", first.addr, key)
		}
		if demoted[len(demoted)-1] != first {
			t.Fatalf("unhealthy backend %s dropped from failover order", first.addr)
		}
		first.healthy.Store(true)
	}
}

// startWireBackend runs a real wire server for frontier tests and returns
// its address.
func startWireBackend(t *testing.T, h wire.Handler, storePut func(string, []byte) error) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := wire.NewServer(h, wire.ServerOptions{Schema: pipeline.ReportSchemaVersion, StorePut: storePut})
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return l.Addr().String()
}

// okHandler returns a successful result tagged with the given tier, keyed
// by the item's program text.
func okHandler(tier string, delay time.Duration, report string) wire.Handler {
	return func(ctx context.Context, item wire.Item) wire.Result {
		if delay > 0 {
			time.Sleep(delay)
		}
		return wire.Result{OK: true, Key: item.Program, Tier: tier, Report: json.RawMessage(report)}
	}
}

// TestPoolBoundsTotalConnections is the regression test for the pool's
// old behavior of only bounding *idle* connections: a 64-way burst against
// one backend must not dial more than MaxConns times.
func TestPoolBoundsTotalConnections(t *testing.T) {
	addr := startWireBackend(t, okHandler("compute", 20*time.Millisecond, `{"r":1}`), nil)
	var dials atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := New(ctx, Config{
		Backends:       []string{addr},
		HealthInterval: time.Hour,
		// Idle cap == total cap: every connection the burst opens is kept,
		// so the dial count is exactly the outstanding bound.
		PoolSize: 8,
		MaxConns: 8,
		Dialer: func(a string) (*wire.Client, error) {
			dials.Add(1)
			return wire.Dial(a, wire.ClientOptions{Schema: pipeline.ReportSchemaVersion})
		},
	})
	var wg sync.WaitGroup
	var failures atomic.Int64
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct keys so singleflight cannot mask the burst.
			_, err := f.Analyze(ctx, fmt.Sprintf("k%d", i), wire.Item{Program: fmt.Sprintf("p%d", i)})
			if err != nil {
				failures.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of 64 burst requests failed", n)
	}
	if n := dials.Load(); n > 8 {
		t.Fatalf("64-way burst dialed %d connections; MaxConns is 8", n)
	}
}

// --- hand-rolled wire peer for fault choreography -------------------------

func writeTestFrame(t *testing.T, w io.Writer, kind byte, v any) {
	t.Helper()
	payload, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [5]byte
	hdr[0] = kind
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err == nil {
		w.Write(payload)
	}
}

func readTestFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	buf := make([]byte, binary.BigEndian.Uint32(hdr[1:]))
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return hdr[0], buf, nil
}

// TestSharedErrorRetriedOutsideGroup: a singleflight follower that inherits
// the leader's transport error retries once on its own instead of
// surfacing a failure that was never its connection's fault. The fake
// backend kills the first request's connection mid-flight (the "worker
// killed mid-flight" scenario) and serves every later request normally.
func TestSharedErrorRetriedOutsideGroup(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var requests atomic.Int32
	firstRequest := make(chan struct{})
	killFirst := make(chan struct{})
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				kind, _, err := readTestFrame(conn)
				if err != nil || kind != 1 { // hello
					return
				}
				writeTestFrame(t, conn, 2, map[string]any{
					"proto": wire.ProtoVersion, "schema": pipeline.ReportSchemaVersion, "server": "fake"})
				for {
					kind, payload, err := readTestFrame(conn)
					if err != nil {
						return
					}
					switch kind {
					case 6: // ping
						writeTestFrame(t, conn, 7, struct{}{})
					case 3: // request
						var r struct {
							ID uint64 `json:"id"`
						}
						json.Unmarshal(payload, &r)
						if requests.Add(1) == 1 {
							close(firstRequest)
							<-killFirst
							return // connection dies mid-request: the leader's error
						}
						writeTestFrame(t, conn, 4, map[string]any{
							"id": r.ID, "ok": true, "key": "k",
							"tier": "compute", "report": json.RawMessage(`{"v":1}`)})
					default:
						return
					}
				}
			}(conn)
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := New(ctx, Config{Backends: []string{l.Addr().String()}, HealthInterval: time.Hour})

	leaderErr := make(chan error, 1)
	go func() {
		_, err := f.Analyze(ctx, "shared-key", wire.Item{Program: "p"})
		leaderErr <- err
	}()
	<-firstRequest // leader is in flight on the doomed connection

	type outcome struct {
		res wire.Result
		err error
	}
	followerCh := make(chan outcome, 1)
	go func() {
		res, err := f.Analyze(ctx, "shared-key", wire.Item{Program: "p"})
		followerCh <- outcome{res, err}
	}()
	time.Sleep(100 * time.Millisecond) // let the follower park in the flight group
	close(killFirst)

	if err := <-leaderErr; err == nil {
		t.Fatal("leader's connection was killed mid-flight but it saw no error")
	}
	fo := <-followerCh
	if fo.err != nil {
		t.Fatalf("follower inherited the leader's error and gave up: %v", fo.err)
	}
	if !fo.res.OK {
		t.Fatalf("follower retry result not OK: %+v", fo.res)
	}
	if n := f.dedups.Load(); n != 1 {
		t.Fatalf("dedups = %d, want 1", n)
	}
	if n := f.sharedRetries.Load(); n != 1 {
		t.Fatalf("sharedRetries = %d, want 1", n)
	}
}

// TestHedgingFirstResultWins: a straggling primary is hedged against the
// next replica after the hedge delay; the fast replica's answer is
// returned promptly, the loser is cancelled without being counted as a
// served request or a backend error.
func TestHedgingFirstResultWins(t *testing.T) {
	// Which backend owns a key depends on the placement scores of their
	// random ports, so both start fast and the owner of key-0 is made the
	// straggler once the frontier is built.
	var slowIdx atomic.Int32
	slowIdx.Store(-1)
	backend := func(idx int32) wire.Handler {
		return func(ctx context.Context, item wire.Item) wire.Result {
			if slowIdx.Load() == idx {
				return okHandler("compute", 500*time.Millisecond, `{"from":"slow"}`)(ctx, item)
			}
			return okHandler("store", 0, `{"from":"fast"}`)(ctx, item)
		}
	}
	addrs := []string{startWireBackend(t, backend(0), nil), startWireBackend(t, backend(1), nil)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := New(ctx, Config{
		Backends:       addrs,
		HealthInterval: time.Hour,
		Hedge:          true,
		HedgeDelay:     20 * time.Millisecond,
	})
	const key = "key-0"
	slow := f.order(key)[0].addr
	if slow == addrs[1] {
		slowIdx.Store(1)
	} else {
		slowIdx.Store(0)
	}
	start := time.Now()
	res, err := f.Analyze(ctx, key, wire.Item{Program: key})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Report) != `{"from":"fast"}` {
		t.Fatalf("hedge did not win: got %s after %v", res.Report, elapsed)
	}
	if elapsed > 300*time.Millisecond {
		t.Fatalf("hedged request took %v; the 20ms hedge should have cut it short", elapsed)
	}
	if n := f.hedges.Load(); n != 1 {
		t.Fatalf("hedges = %d, want 1", n)
	}
	if n := f.hedgeWins.Load(); n != 1 {
		t.Fatalf("hedgeWins = %d, want 1", n)
	}
	if n := f.routedOK.Load(); n != 1 {
		t.Fatalf("routedOK = %d, want 1 — the hedge loser must not be double-counted", n)
	}
	for _, b := range f.table().backends {
		if b.addr == slow && b.errs.Load() != 0 {
			t.Fatalf("cancelled hedge loser penalized the slow backend: errs=%d", b.errs.Load())
		}
	}
}

// TestAdaptiveHedgeDelay: the p99-derived delay stays disarmed until
// enough samples exist, then tracks the window's tail.
func TestAdaptiveHedgeDelay(t *testing.T) {
	var l latencyRing
	if d := l.p99(); d != 0 {
		t.Fatalf("empty ring p99 = %v, want 0", d)
	}
	for i := 1; i <= minHedgeSamples-1; i++ {
		l.observe(time.Duration(i) * time.Millisecond)
	}
	if d := l.p99(); d != 0 {
		t.Fatalf("p99 armed with %d samples: %v", minHedgeSamples-1, d)
	}
	var l2 latencyRing
	for i := 1; i <= 100; i++ {
		l2.observe(time.Duration(i) * time.Millisecond)
	}
	if d := l2.p99(); d < 98*time.Millisecond || d > 100*time.Millisecond {
		t.Fatalf("p99 of 1..100ms = %v", d)
	}

	f := &Frontier{cfg: Config{Hedge: true}}
	if d := f.hedgeDelay(); d != 0 {
		t.Fatalf("hedge delay armed without samples: %v", d)
	}
	for i := 0; i < latWindow; i++ {
		f.lat.observe(50 * time.Microsecond)
	}
	if d := f.hedgeDelay(); d != time.Millisecond {
		t.Fatalf("sub-millisecond p99 not floored: %v", d)
	}
	f.cfg.HedgeDelay = 7 * time.Millisecond
	if d := f.hedgeDelay(); d != 7*time.Millisecond {
		t.Fatalf("pinned hedge delay ignored: %v", d)
	}
}

// TestReplicationPushesToOtherOwners: at R=2 a compute-tier result is
// pushed into the store of the key's other owner; an off-primary read
// triggers a read-repair push back toward the primary.
func TestReplicationPushesToOtherOwners(t *testing.T) {
	type capture struct {
		mu sync.Mutex
		m  map[string]string
	}
	newCapture := func() *capture { return &capture{m: map[string]string{}} }
	put := func(c *capture) func(string, []byte) error {
		return func(key string, payload []byte) error {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.m[key] = string(payload)
			return nil
		}
	}
	capA, capB := newCapture(), newCapture()
	addrA := startWireBackend(t, okHandler("compute", 0, `{"art":"x"}`), put(capA))
	addrB := startWireBackend(t, okHandler("compute", 0, `{"art":"x"}`), put(capB))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := New(ctx, Config{
		Backends:       []string{addrA, addrB},
		HealthInterval: time.Hour,
		Replicas:       2,
	})
	caps := map[string]*capture{addrA: capA, addrB: capB}

	key := "replicated-program"
	primary := f.order(key)[0]
	var secondary *backendRec
	for _, b := range f.table().backends {
		if b != primary {
			secondary = b
		}
	}
	res, err := f.Analyze(ctx, key, wire.Item{Program: key})
	if err != nil || !res.OK {
		t.Fatalf("analyze: %v %+v", err, res)
	}
	fctx, fcancel := context.WithTimeout(ctx, 5*time.Second)
	defer fcancel()
	if err := f.FlushReplication(fctx); err != nil {
		t.Fatal(err)
	}
	sec := caps[secondary.addr]
	sec.mu.Lock()
	got := sec.m[key]
	sec.mu.Unlock()
	if got != `{"art":"x"}` {
		t.Fatalf("secondary owner never received the replicated artifact: %q", got)
	}
	if n := f.replPushed.Load(); n != 1 {
		t.Fatalf("replPushed = %d, want 1", n)
	}

	// Read repair: with the primary demoted, a store-tier hit served by the
	// secondary is pushed back to the primary — this is the path that
	// refills a wiped disk from its replica.
	capA2, capB2 := newCapture(), newCapture()
	addrA2 := startWireBackend(t, okHandler("store", 0, `{"art":"y"}`), put(capA2))
	addrB2 := startWireBackend(t, okHandler("store", 0, `{"art":"y"}`), put(capB2))
	f2 := New(ctx, Config{
		Backends:       []string{addrA2, addrB2},
		HealthInterval: time.Hour,
		Replicas:       2,
	})
	caps2 := map[string]*capture{addrA2: capA2, addrB2: capB2}
	key2 := "repaired-program"
	primary2 := f2.order(key2)[0]
	primary2.healthy.Store(false)
	res2, err := f2.Analyze(ctx, key2, wire.Item{Program: key2})
	if err != nil || !res2.OK {
		t.Fatalf("off-primary analyze: %v %+v", err, res2)
	}
	if err := f2.FlushReplication(fctx); err != nil {
		t.Fatal(err)
	}
	pc := caps2[primary2.addr]
	pc.mu.Lock()
	repaired := pc.m[key2]
	pc.mu.Unlock()
	if repaired != `{"art":"y"}` {
		t.Fatalf("primary never read-repaired: %q", repaired)
	}
	if n := f2.readRepairs.Load(); n != 1 {
		t.Fatalf("readRepairs = %d, want 1", n)
	}
}

// TestAddRemoveBackend: hot-adding a backend moves only the keyspace it
// captures; removing it restores the original assignment exactly.
func TestAddRemoveBackend(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := New(ctx, Config{Backends: []string{"a:1", "b:1"}, HealthInterval: time.Hour})
	before := map[string]string{}
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("key-%d", i)
		before[k] = f.order(k)[0].addr
	}
	if err := f.AddBackend("c", "c:1"); err != nil {
		t.Fatal(err)
	}
	if err := f.AddBackend("c", "c:2"); err == nil {
		t.Fatal("duplicate backend name accepted")
	}
	captured := 0
	for k, old := range before {
		now := f.order(k)[0].addr
		if now == "c:1" {
			captured++
		} else if now != old {
			t.Fatalf("key %s moved between survivors: %s -> %s", k, old, now)
		}
	}
	if captured == 0 {
		t.Fatal("new backend captured no keyspace")
	}
	if err := f.RemoveBackend("nope"); err == nil {
		t.Fatal("removing an unknown backend succeeded")
	}
	if err := f.RemoveBackend("c"); err != nil {
		t.Fatal(err)
	}
	for k, old := range before {
		if now := f.order(k)[0].addr; now != old {
			t.Fatalf("key %s did not return home after removal: %s -> %s", k, old, now)
		}
	}
	if got := len(f.Stats().Backends); got != 2 {
		t.Fatalf("backend count after add/remove = %d, want 2", got)
	}
}

// TestReplicaSetStableUnderHealth: ownership (where artifacts belong) must
// not shift when a backend flaps unhealthy — only the serving *order* does.
func TestReplicaSetStableUnderHealth(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := New(ctx, Config{Backends: []string{"a:1", "b:1", "c:1"}, HealthInterval: time.Hour})
	key := "pinned-key"
	owners := f.table().replicaSet(key, 2)
	if len(owners) != 2 || owners[0] == owners[1] {
		t.Fatalf("bad replica set: %v", owners)
	}
	owners[0].healthy.Store(false)
	after := f.table().replicaSet(key, 2)
	if after[0] != owners[0] || after[1] != owners[1] {
		t.Fatal("replica set shifted when a backend went unhealthy")
	}
	if f.order(key)[0] == owners[0] {
		t.Fatal("serving order still prefers the unhealthy primary")
	}
}
