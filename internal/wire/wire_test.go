package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// echoHandler answers each item with a deterministic fake report derived
// from the program text, after an optional delay encoded in the program.
func echoHandler(delay time.Duration) Handler {
	return func(ctx context.Context, item Item) Result {
		if delay > 0 {
			time.Sleep(delay)
		}
		if strings.Contains(item.Program, "BOOM") {
			panic("injected handler panic")
		}
		if strings.Contains(item.Program, "FAIL") {
			return Result{OK: false, Error: "synthetic failure", Unprocessable: true}
		}
		rep, _ := json.Marshal(map[string]any{"echo": item.Program, "stages": item.Stages})
		return Result{OK: true, Key: "key-" + item.Program, Report: rep, Tier: "compute"}
	}
}

// startServer runs a wire server on loopback and returns its address plus a
// shutdown func.
func startServer(t *testing.T, h Handler, opts ServerOptions) (addr string, srv *Server) {
	t.Helper()
	if opts.Schema == 0 {
		opts.Schema = 1
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv = NewServer(h, opts)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String(), srv
}

func TestHandshakeAndBatchStreaming(t *testing.T) {
	addr, _ := startServer(t, echoHandler(0), ServerOptions{Name: "test-worker"})
	c, err := Dial(addr, ClientOptions{Schema: 1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if ack := c.Ack(); ack.Proto != ProtoVersion || ack.Schema != 1 || ack.Server != "test-worker" {
		t.Fatalf("ack = %+v", ack)
	}

	items := make([]Item, 10)
	for i := range items {
		items[i] = Item{Program: fmt.Sprintf("p%d", i), Stages: []string{"cfg"}}
	}
	var mu sync.Mutex
	got := map[int]Result{}
	err = c.AnalyzeBatch(context.Background(), items, func(r Result) {
		mu.Lock()
		got[r.Index] = r
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("AnalyzeBatch: %v", err)
	}
	if len(got) != len(items) {
		t.Fatalf("got %d results, want %d", len(got), len(items))
	}
	for i := range items {
		r := got[i]
		if !r.OK || r.Key != "key-"+items[i].Program {
			t.Fatalf("result %d = %+v", i, r)
		}
		var rep map[string]any
		if err := json.Unmarshal(r.Report, &rep); err != nil || rep["echo"] != items[i].Program {
			t.Fatalf("result %d report = %s (%v)", i, r.Report, err)
		}
	}

	// The same connection serves a second batch.
	if err := c.AnalyzeBatch(context.Background(), items[:2], nil); err != nil {
		t.Fatalf("second batch: %v", err)
	}
}

func TestItemFailuresAndPanicsAreIsolated(t *testing.T) {
	addr, _ := startServer(t, echoHandler(0), ServerOptions{})
	c, err := Dial(addr, ClientOptions{Schema: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	items := []Item{{Program: "ok1"}, {Program: "FAIL"}, {Program: "BOOM"}, {Program: "ok2"}}
	results := make([]Result, len(items))
	if err := c.AnalyzeBatch(context.Background(), items, func(r Result) { results[r.Index] = r }); err != nil {
		t.Fatalf("AnalyzeBatch: %v", err)
	}
	if !results[0].OK || !results[3].OK {
		t.Fatalf("healthy items failed: %+v %+v", results[0], results[3])
	}
	if results[1].OK || !results[1].Unprocessable {
		t.Fatalf("FAIL item: %+v", results[1])
	}
	if results[2].OK || !strings.Contains(results[2].Error, "panicked") || !results[2].Unprocessable {
		t.Fatalf("BOOM item should surface the recovered panic: %+v", results[2])
	}
}

func TestPing(t *testing.T) {
	addr, _ := startServer(t, echoHandler(0), ServerOptions{})
	c, err := Dial(addr, ClientOptions{Schema: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if err := c.Ping(context.Background()); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
}

func TestSchemaMismatchRefused(t *testing.T) {
	addr, _ := startServer(t, echoHandler(0), ServerOptions{Schema: 2})
	_, err := Dial(addr, ClientOptions{Schema: 1})
	var werr *WireError
	if !errors.As(err, &werr) || werr.Code != "schema" {
		t.Fatalf("Dial err = %v, want schema WireError", err)
	}
}

// TestProtocolVersionNegotiation drives the handshake by hand with
// out-of-range version windows.
func TestProtocolVersionNegotiation(t *testing.T) {
	addr, _ := startServer(t, echoHandler(0), ServerOptions{})

	dialHello := func(h Hello) (byte, []byte) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := writeFrame(conn, frameHello, h); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		kind, payload, err := readFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		return kind, payload
	}

	// A future client that still speaks version 1 negotiates down to 1.
	kind, payload := dialHello(Hello{Magic: helloMagic, ProtoMin: 1, ProtoMax: 99, Schema: 1})
	if kind != frameHelloAck {
		t.Fatalf("frame kind %d, want ack", kind)
	}
	ack, err := decodeAs[HelloAck](payload)
	if err != nil || ack.Proto != ProtoVersion {
		t.Fatalf("ack = %+v (%v), want proto %d", ack, err, ProtoVersion)
	}

	// A client that requires a version beyond ours is refused.
	kind, payload = dialHello(Hello{Magic: helloMagic, ProtoMin: 99, ProtoMax: 100, Schema: 1})
	werr := errWire(kind, payload)
	var we *WireError
	if !errors.As(werr, &we) || we.Code != "version" {
		t.Fatalf("want version error, got kind=%d err=%v", kind, werr)
	}

	// Bad magic is a protocol error.
	kind, payload = dialHello(Hello{Magic: "http", ProtoMin: 1, ProtoMax: 1, Schema: 1})
	werr = errWire(kind, payload)
	if !errors.As(werr, &we) || we.Code != "proto" {
		t.Fatalf("want proto error, got kind=%d err=%v", kind, werr)
	}
}

// TestShutdownDrainsInflightBatch: a batch in progress when Shutdown is
// called completes and streams all its results; the client sees no error.
func TestShutdownDrainsInflightBatch(t *testing.T) {
	addr, srv := startServer(t, echoHandler(50*time.Millisecond), ServerOptions{Workers: 2})
	c, err := Dial(addr, ClientOptions{Schema: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	items := []Item{{Program: "a"}, {Program: "b"}, {Program: "c"}, {Program: "d"}}
	batchErr := make(chan error, 1)
	var mu sync.Mutex
	var indices []int
	go func() {
		batchErr <- c.AnalyzeBatch(context.Background(), items, func(r Result) {
			mu.Lock()
			indices = append(indices, r.Index)
			mu.Unlock()
		})
	}()
	time.Sleep(20 * time.Millisecond) // let the batch reach the server

	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-batchErr; err != nil {
		t.Fatalf("client saw an error across graceful shutdown: %v", err)
	}
	sort.Ints(indices)
	if len(indices) != len(items) {
		t.Fatalf("got %d results across shutdown, want %d (%v)", len(indices), len(items), indices)
	}

	// New connections are refused after shutdown.
	if _, err := Dial(addr, ClientOptions{Schema: 1, DialTimeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("Dial succeeded after shutdown")
	}
}

// TestClientDeadlineReapsDeadServer: a server that accepts a batch and then
// hangs forever is reaped by the client's frame deadline.
func TestClientDeadlineReapsDeadServer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Complete the handshake, then go silent.
		kind, payload, err := readFrame(conn)
		if err != nil || kind != frameHello {
			return
		}
		hello, _ := decodeAs[Hello](payload)
		writeFrame(conn, frameHelloAck, HelloAck{Proto: 1, Schema: hello.Schema, Server: "hang"})
		select {} // hang
	}()

	c, err := Dial(l.Addr().String(), ClientOptions{Schema: 1, FrameSlack: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	err = c.AnalyzeBatch(context.Background(), []Item{{Program: "p", TimeoutMS: 50}}, nil)
	if err == nil {
		t.Fatal("batch against a hung server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
	if !c.Broken() {
		t.Fatal("client not marked broken after a transport failure")
	}
	if err := c.AnalyzeBatch(context.Background(), []Item{{Program: "p"}}, nil); err == nil {
		t.Fatal("broken client accepted another batch")
	}
}

// TestStorePutRoundtrip: a proto-2 store push lands in the server's
// StorePut hook, a rejected push surfaces the error without breaking the
// connection, and a server without a store acks OK=false.
func TestStorePutRoundtrip(t *testing.T) {
	var mu sync.Mutex
	stored := map[string][]byte{}
	addr, _ := startServer(t, echoHandler(0), ServerOptions{
		StorePut: func(key string, payload []byte) error {
			if key == "reject-me" {
				return errors.New("disk full")
			}
			mu.Lock()
			stored[key] = payload
			mu.Unlock()
			return nil
		},
	})
	c, err := Dial(addr, ClientOptions{Schema: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.StorePut(context.Background(), "k1", []byte(`{"report":1}`)); err != nil {
		t.Fatalf("StorePut: %v", err)
	}
	mu.Lock()
	got := string(stored["k1"])
	mu.Unlock()
	if got != `{"report":1}` {
		t.Fatalf("stored payload = %q", got)
	}

	// A refused push errors but leaves the connection usable…
	if err := c.StorePut(context.Background(), "reject-me", []byte("x")); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("rejected push err = %v", err)
	}
	if c.Broken() {
		t.Fatal("storage refusal broke the connection")
	}
	// …for both more pushes and analysis batches.
	if err := c.StorePut(context.Background(), "k2", []byte("y")); err != nil {
		t.Fatalf("push after refusal: %v", err)
	}
	if err := c.AnalyzeBatch(context.Background(), []Item{{Program: "p"}}, nil); err != nil {
		t.Fatalf("batch after refusal: %v", err)
	}

	// A storeless server acks OK=false.
	addr2, _ := startServer(t, echoHandler(0), ServerOptions{})
	c2, err := Dial(addr2, ClientOptions{Schema: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.StorePut(context.Background(), "k", []byte("z")); err == nil || !strings.Contains(err.Error(), "no artifact store") {
		t.Fatalf("storeless push err = %v", err)
	}
}

// TestStorePutNeedsProtoV2: a client that negotiated protocol 1 refuses to
// send store pushes locally (no wasted round-trip, no protocol violation).
func TestStorePutNeedsProtoV2(t *testing.T) {
	addr, _ := startServer(t, echoHandler(0), ServerOptions{StorePut: func(string, []byte) error { return nil }})
	c, err := Dial(addr, ClientOptions{Schema: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.ack.Proto = 1 // simulate a v1 backend on the negotiated connection
	var werr *WireError
	if err := c.StorePut(context.Background(), "k", []byte("v")); !errors.As(err, &werr) || werr.Code != "version" {
		t.Fatalf("proto-1 StorePut err = %v, want version WireError", err)
	}
	if c.Broken() {
		t.Fatal("local refusal must not break the connection")
	}
}

// TestCancelInterruptsBlockedRead is the hedge-safe-cancellation property:
// cancelling the context of an in-flight batch unblocks the read
// immediately (well before the frame deadline) and marks the client broken
// so the poisoned connection is never reused.
func TestCancelInterruptsBlockedRead(t *testing.T) {
	addr, _ := startServer(t, echoHandler(2*time.Second), ServerOptions{})
	c, err := Dial(addr, ClientOptions{Schema: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	batchErr := make(chan error, 1)
	go func() {
		batchErr <- c.AnalyzeBatch(ctx, []Item{{Program: "slow", TimeoutMS: 30_000}}, nil)
	}()
	time.Sleep(50 * time.Millisecond) // batch is blocked on the 2s handler
	start := time.Now()
	cancel()
	select {
	case err := <-batchErr:
		if err == nil {
			t.Fatal("cancelled batch returned nil error")
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("cancellation took %v to unblock the read", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation never unblocked the batch read")
	}
	if !c.Broken() {
		t.Fatal("cancelled mid-batch client must be marked broken")
	}
}

// TestOversizeFrameRejected: a frame header promising more than MaxFrame is
// rejected before any allocation.
func TestOversizeFrameRejected(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	go func() {
		hdr := []byte{frameBatch, 0xff, 0xff, 0xff, 0xff}
		client.Write(hdr)
	}()
	server.SetReadDeadline(time.Now().Add(time.Second))
	_, _, err := readFrame(server)
	if err == nil || !strings.Contains(err.Error(), "MaxFrame") {
		t.Fatalf("err = %v, want MaxFrame rejection", err)
	}
}

// TestPooledClientOutlivesHandshakeTimeout: the server's handshake
// deadline must not survive the handshake. It once covered the write side
// too, which the frame loop never reset, so every pooled connection broke
// HandshakeTimeout after it was dialed.
func TestPooledClientOutlivesHandshakeTimeout(t *testing.T) {
	const hs = 100 * time.Millisecond
	addr, _ := startServer(t, echoHandler(0), ServerOptions{HandshakeTimeout: hs})
	c, err := Dial(addr, ClientOptions{Schema: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.AnalyzeBatch(context.Background(), []Item{{Program: "p0"}}, nil); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	time.Sleep(3 * hs)
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping after the handshake timeout: %v", err)
	}
	var got Result
	if err := c.AnalyzeBatch(context.Background(), []Item{{Program: "p1"}}, func(r Result) { got = r }); err != nil {
		t.Fatalf("batch after the handshake timeout: %v", err)
	}
	if !got.OK || got.Key != "key-p1" {
		t.Fatalf("batch after the handshake timeout answered %+v", got)
	}
}

// TestCancelAfterReturnKeepsPoolHealthy: cancelling a request's context
// just after the request returned must not reach into the connection's
// next request. The cancellation watcher once outlived its request and
// could move the read deadline of a connection already back in the pool;
// now disarming waits for it, and a client whose watcher fired reports
// Broken so a pool discards it. The loop below plays the pool: reuse the
// client unless it is broken.
func TestCancelAfterReturnKeepsPoolHealthy(t *testing.T) {
	addr, _ := startServer(t, echoHandler(0), ServerOptions{})
	dial := func() *Client {
		c, err := Dial(addr, ClientOptions{Schema: 1})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := dial()
	defer func() { c.Close() }()
	for i := 0; i < 2000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		err := c.AnalyzeBatch(ctx, []Item{{Program: fmt.Sprintf("a%d", i)}}, nil)
		cancel()
		if err != nil {
			t.Fatalf("iteration %d: cancellable request: %v", i, err)
		}
		if c.Broken() {
			c.Close()
			c = dial()
		}
		if err := c.AnalyzeBatch(context.Background(), []Item{{Program: fmt.Sprintf("b%d", i)}}, nil); err != nil {
			t.Fatalf("iteration %d: next request on the pooled client: %v", i, err)
		}
		if c.Broken() {
			t.Fatalf("iteration %d: an uncancelled request broke the client", i)
		}
	}
}
