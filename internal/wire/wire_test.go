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

func TestHandshakeAndRequests(t *testing.T) {
	addr, _ := startServer(t, echoHandler(0), ServerOptions{Name: "test-worker"})
	c, err := Dial(addr, ClientOptions{Schema: 1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if ack := c.Ack(); ack.Proto != ProtoVersion || ack.Schema != 1 || ack.Server != "test-worker" {
		t.Fatalf("ack = %+v", ack)
	}

	// One connection serves request after request.
	items := make([]Item, 10)
	for i := range items {
		items[i] = Item{Program: fmt.Sprintf("p%d", i), Stages: []string{"cfg"}}
		r, err := c.Analyze(context.Background(), items[i])
		if err != nil {
			t.Fatalf("Analyze %d: %v", i, err)
		}
		if !r.OK || r.Key != "key-"+items[i].Program {
			t.Fatalf("result %d = %+v", i, r)
		}
		var rep map[string]any
		if err := json.Unmarshal(r.Report, &rep); err != nil || rep["echo"] != items[i].Program {
			t.Fatalf("result %d report = %s (%v)", i, r.Report, err)
		}
	}

	// The deprecated AnalyzeBatch answers its items in order.
	var keys []string
	if err := c.AnalyzeBatch(context.Background(), items[:3], func(r Result) { keys = append(keys, r.Key) }); err != nil {
		t.Fatalf("AnalyzeBatch: %v", err)
	}
	if want := []string{"key-p0", "key-p1", "key-p2"}; fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Fatalf("AnalyzeBatch keys = %v, want %v", keys, want)
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
	for i, item := range items {
		if results[i], err = c.Analyze(context.Background(), item); err != nil {
			t.Fatalf("Analyze %s: %v", item.Program, err)
		}
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

// dialHello sends a hand-built Hello to addr and returns the frame that
// answers it.
func dialHello(t *testing.T, addr string, h Hello) (byte, []byte) {
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

// TestProtocolVersionFence: protocol 3 is not negotiated down. A client
// that offers only versions 1..2 is refused by this server, and this
// client is refused by a server that speaks only 1..2, both with a
// "version" error.
func TestProtocolVersionFence(t *testing.T) {
	addr, _ := startServer(t, echoHandler(0), ServerOptions{})
	wantCode := func(kind byte, payload []byte, code string) {
		t.Helper()
		var we *WireError
		if err := errWire(kind, payload); !errors.As(err, &we) || we.Code != code {
			t.Fatalf("want %s error, got kind=%d err=%v", code, kind, err)
		}
	}

	// An old client, offering only 1..2.
	kind, payload := dialHello(t, addr, Hello{Magic: helloMagic, ProtoMin: 1, ProtoMax: 2, Schema: 1})
	wantCode(kind, payload, "version")

	// A newer client whose range includes this version is served at it.
	kind, payload = dialHello(t, addr, Hello{Magic: helloMagic, ProtoMin: 1, ProtoMax: 99, Schema: 1})
	if ack, err := decodeAs[HelloAck](payload); kind != frameHelloAck || err != nil || ack.Proto != ProtoVersion {
		t.Fatalf("kind=%d ack=%+v (%v), want proto %d", kind, ack, err, ProtoVersion)
	}

	// Bad magic is a protocol error.
	kind, payload = dialHello(t, addr, Hello{Magic: "http", ProtoMin: ProtoVersion, ProtoMax: ProtoVersion, Schema: 1})
	wantCode(kind, payload, "proto")

	// An old server, speaking only 1..2, applies its own range check to
	// this client's Hello.
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
		kind, payload, err := readFrame(conn)
		if err != nil || kind != frameHello {
			return
		}
		hello, _ := decodeAs[Hello](payload)
		if hello.ProtoMin > 2 || hello.ProtoMax < 1 {
			writeFrame(conn, frameError, &WireError{Code: "version", Message: "no shared protocol version"})
			return
		}
		writeFrame(conn, frameHelloAck, HelloAck{Proto: 2, Schema: hello.Schema, Server: "v2"})
	}()
	_, err = Dial(l.Addr().String(), ClientOptions{Schema: 1})
	var we *WireError
	if !errors.As(err, &we) || we.Code != "version" {
		t.Fatalf("Dial against a 1..2 server: err = %v, want version WireError", err)
	}
}

// TestShutdownDrainsInflightBatch: items in progress on several
// connections when Shutdown is called complete and send their Results;
// no client sees an error.
func TestShutdownDrainsInflightBatch(t *testing.T) {
	addr, srv := startServer(t, echoHandler(50*time.Millisecond), ServerOptions{})
	programs := []string{"a", "b", "c", "d"}
	type answer struct {
		res Result
		err error
	}
	answers := make(chan answer, len(programs))
	for _, p := range programs {
		c, err := Dial(addr, ClientOptions{Schema: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		go func() {
			res, err := c.Analyze(context.Background(), Item{Program: p})
			answers <- answer{res, err}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the items reach the server

	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	var keys []string
	for range programs {
		a := <-answers
		if a.err != nil {
			t.Fatalf("client saw an error across graceful shutdown: %v", a.err)
		}
		keys = append(keys, a.res.Key)
	}
	sort.Strings(keys)
	if want := []string{"key-a", "key-b", "key-c", "key-d"}; fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Fatalf("results across shutdown = %v, want %v", keys, want)
	}

	// New connections are refused after shutdown.
	if _, err := Dial(addr, ClientOptions{Schema: 1, DialTimeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("Dial succeeded after shutdown")
	}
}

// blockingHandler holds every item until its context is cancelled (or 5s
// pass) and reports that context on entered.
func blockingHandler(entered chan<- context.Context) Handler {
	return func(ctx context.Context, item Item) Result {
		entered <- ctx
		select {
		case <-ctx.Done():
			return Result{OK: false, Error: ctx.Err().Error()}
		case <-time.After(5 * time.Second):
			return Result{OK: true, Key: "key-" + item.Program}
		}
	}
}

// TestClosedConnectionCancelsItem: a client that gives up on a request
// (its context cancelled, the broken connection closed, as a pool does)
// cancels the item on the server: closing is the cancel.
func TestClosedConnectionCancelsItem(t *testing.T) {
	entered := make(chan context.Context, 1)
	addr, _ := startServer(t, blockingHandler(entered), ServerOptions{})
	c, err := Dial(addr, ClientOptions{Schema: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Analyze(ctx, Item{Program: "slow"})
		done <- err
	}()
	itemCtx := <-entered
	cancel()
	if err := <-done; err == nil || !c.Broken() {
		t.Fatalf("cancelled Analyze: err=%v broken=%v, want an error and a broken client", err, c.Broken())
	}
	c.Close()
	select {
	case <-itemCtx.Done():
	case <-time.After(time.Second):
		t.Fatal("closing the connection did not cancel the item within 1s")
	}
}

// TestStrayFrameCancelsItem: a frame sent while an item computes breaks
// the protocol; the item is cancelled and the connection closed without a
// Result.
func TestStrayFrameCancelsItem(t *testing.T) {
	entered := make(chan context.Context, 1)
	addr, _ := startServer(t, blockingHandler(entered), ServerOptions{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	writeFrame(conn, frameHello, Hello{Magic: helloMagic, ProtoMin: ProtoVersion, ProtoMax: ProtoVersion, Schema: 1})
	if kind, _, err := readFrame(conn); err != nil || kind != frameHelloAck {
		t.Fatalf("handshake: kind=%d err=%v", kind, err)
	}
	writeFrame(conn, frameRequest, Request{ID: 1, Item: Item{Program: "slow"}})
	itemCtx := <-entered
	writeFrame(conn, framePing, struct{}{})
	select {
	case <-itemCtx.Done():
	case <-time.After(time.Second):
		t.Fatal("a stray frame did not cancel the item within 1s")
	}
	if kind, _, err := readFrame(conn); err == nil {
		t.Fatalf("server answered frame kind %d after a stray frame, want a closed connection", kind)
	}
}

// TestClientDeadlineReapsDeadServer: a server that accepts a request and
// then hangs forever is reaped by the client's frame deadline.
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
		writeFrame(conn, frameHelloAck, HelloAck{Proto: ProtoVersion, Schema: hello.Schema, Server: "hang"})
		select {} // hang
	}()

	c, err := Dial(l.Addr().String(), ClientOptions{Schema: 1, FrameSlack: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Analyze(context.Background(), Item{Program: "p", TimeoutMS: 50})
	if err == nil {
		t.Fatal("request against a hung server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
	if !c.Broken() {
		t.Fatal("client not marked broken after a transport failure")
	}
	if _, err := c.Analyze(context.Background(), Item{Program: "p"}); err == nil {
		t.Fatal("broken client accepted another request")
	}
}

// TestStorePutRoundtrip: a store push lands in the server's
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
	// …for both more pushes and analysis requests.
	if err := c.StorePut(context.Background(), "k2", []byte("y")); err != nil {
		t.Fatalf("push after refusal: %v", err)
	}
	if _, err := c.Analyze(context.Background(), Item{Program: "p"}); err != nil {
		t.Fatalf("request after refusal: %v", err)
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

// TestCancelInterruptsBlockedRead is the hedge-safe-cancellation property:
// cancelling the context of an in-flight request unblocks the read
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
	reqErr := make(chan error, 1)
	go func() {
		_, err := c.Analyze(ctx, Item{Program: "slow", TimeoutMS: 30_000})
		reqErr <- err
	}()
	time.Sleep(50 * time.Millisecond) // the request is blocked on the 2s handler
	start := time.Now()
	cancel()
	select {
	case err := <-reqErr:
		if err == nil {
			t.Fatal("cancelled request returned nil error")
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("cancellation took %v to unblock the read", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation never unblocked the read")
	}
	if !c.Broken() {
		t.Fatal("cancelled mid-request client must be marked broken")
	}
}

// TestOversizeFrameRejected: a frame header promising more than MaxFrame is
// rejected before any allocation.
func TestOversizeFrameRejected(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	go func() {
		hdr := []byte{frameRequest, 0xff, 0xff, 0xff, 0xff}
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
	if _, err := c.Analyze(context.Background(), Item{Program: "p0"}); err != nil {
		t.Fatalf("first request: %v", err)
	}
	time.Sleep(3 * hs)
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping after the handshake timeout: %v", err)
	}
	got, err := c.Analyze(context.Background(), Item{Program: "p1"})
	if err != nil {
		t.Fatalf("request after the handshake timeout: %v", err)
	}
	if !got.OK || got.Key != "key-p1" {
		t.Fatalf("request after the handshake timeout answered %+v", got)
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
		_, err := c.Analyze(ctx, Item{Program: fmt.Sprintf("a%d", i)})
		cancel()
		if err != nil {
			t.Fatalf("iteration %d: cancellable request: %v", i, err)
		}
		if c.Broken() {
			c.Close()
			c = dial()
		}
		if _, err := c.Analyze(context.Background(), Item{Program: fmt.Sprintf("b%d", i)}); err != nil {
			t.Fatalf("iteration %d: next request on the pooled client: %v", i, err)
		}
		if c.Broken() {
			t.Fatalf("iteration %d: an uncancelled request broke the client", i)
		}
	}
}
