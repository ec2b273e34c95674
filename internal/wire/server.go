package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"
)

// Handler computes one item. It must be safe for concurrent use:
// connections run their items concurrently. ctx is cancelled when the
// item's connection closes.
type Handler func(ctx context.Context, item Item) Result

// idleTimeout reaps connections with no frame activity between requests.
const idleTimeout = 5 * time.Minute

// ServerOptions configure a Server.
type ServerOptions struct {
	// Schema is the artifact schema version this backend produces. A client
	// whose Hello names any other schema is refused.
	Schema int
	// Deprecated: the server runs one item per connection at a time and
	// the engine behind the Handler bounds analyses per process
	// (pipeline.Config.Workers), so Workers is ignored.
	Workers int
	// Name identifies the server in HelloAck (e.g. "dfg-worker").
	Name string
	// HandshakeTimeout bounds the hello exchange. Zero means 5s.
	HandshakeTimeout time.Duration
	// StorePut accepts a replicated artifact pushed by the frontier. nil
	// means pushes are acked with OK=false — the backend has no store,
	// which costs replication coverage, never correctness.
	StorePut func(key string, payload []byte) error
}

func (o *ServerOptions) defaults() {
	if o.Name == "" {
		o.Name = "dfg-backend"
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = 5 * time.Second
	}
}

// Server speaks the backend side of the protocol. Create with NewServer,
// run with Serve, stop with Shutdown (which drains in-flight items).
type Server struct {
	handler Handler
	opts    ServerOptions

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]bool
	closed   bool

	inflight sync.WaitGroup // items being computed
	connWG   sync.WaitGroup // connection goroutines
}

// NewServer returns a Server that answers requests with h.
func NewServer(h Handler, opts ServerOptions) *Server {
	opts.defaults()
	if opts.Schema < 1 {
		panic("wire: ServerOptions.Schema must be >= 1")
	}
	return &Server{handler: h, opts: opts, conns: make(map[net.Conn]bool)}
}

// Serve accepts connections on l until Shutdown (or a fatal listener
// error). It returns ErrServerClosed after Shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = true
		s.connWG.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.connWG.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.serveConn(conn)
		}()
	}
}

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("wire: server closed")

// Shutdown stops accepting, waits for in-flight items to drain (bounded by
// ctx), then closes every connection. Idle connections are closed
// immediately after the drain; an item in progress finishes and sends its
// Result first, which is the "no client-visible error on graceful restart"
// property the frontier's retry logic builds on. Closing a connection whose
// item is still computing (ctx expired first) cancels that item.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}

	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}

	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	return err
}

// Close force-closes everything without draining.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: skip the drain wait
	s.Shutdown(ctx)
	return nil
}

// serveConn runs the handshake then the frame loop for one connection.
// Protocol violations terminate the connection; the client's next dial gets
// a fresh one.
func (s *Server) serveConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	send := func(kind byte, v any) error {
		if err := writeFrame(bw, kind, v); err != nil {
			return err
		}
		return bw.Flush()
	}

	// Handshake.
	conn.SetDeadline(time.Now().Add(s.opts.HandshakeTimeout))
	kind, payload, err := readFrame(br)
	if err != nil || kind != frameHello {
		return
	}
	hello, err := decodeAs[Hello](payload)
	if err != nil || hello.Magic != helloMagic {
		send(frameError, &WireError{Code: "proto", Message: "malformed hello"})
		return
	}
	if hello.ProtoMin > ProtoVersion || hello.ProtoMax < ProtoVersion {
		send(frameError, &WireError{Code: "version",
			Message: fmt.Sprintf("no shared protocol version: client %d..%d, server %d",
				hello.ProtoMin, hello.ProtoMax, ProtoVersion)})
		return
	}
	if hello.Schema != s.opts.Schema {
		send(frameError, &WireError{Code: "schema",
			Message: fmt.Sprintf("schema mismatch: client %d, server %d", hello.Schema, s.opts.Schema)})
		return
	}
	if err := send(frameHelloAck, HelloAck{Proto: ProtoVersion, Schema: s.opts.Schema, Server: s.opts.Name}); err != nil {
		return
	}
	// Clear the handshake deadline: the frame loop below only refreshes the
	// read side, and a stale write deadline would break every pooled
	// connection HandshakeTimeout after it was dialed.
	conn.SetDeadline(time.Time{})

	// Frame loop.
	for {
		conn.SetReadDeadline(time.Now().Add(idleTimeout))
		kind, payload, err := readFrame(br)
		if err != nil {
			return
		}
		switch kind {
		case framePing:
			if err := send(framePong, struct{}{}); err != nil {
				return
			}
		case frameRequest:
			req, err := decodeAs[Request](payload)
			if err != nil {
				send(frameError, &WireError{Code: "proto", Message: "malformed request"})
				return
			}
			if !s.beginItem() {
				send(frameError, &WireError{Code: "overload", Message: "server shutting down"})
				return
			}
			// The Result is written before the item stops counting as in
			// flight, so a draining Shutdown sees it on the wire.
			res, ok := s.runItem(conn, br, req.Item)
			if ok {
				res.ID = req.ID
				ok = send(frameResult, res) == nil
			}
			s.inflight.Done()
			if !ok {
				return
			}
		case frameStorePut:
			put, err := decodeAs[StorePut](payload)
			if err != nil {
				send(frameError, &WireError{Code: "proto", Message: "malformed store-put"})
				return
			}
			ack := StoreAck{OK: true}
			if s.opts.StorePut == nil {
				ack = StoreAck{OK: false, Error: "backend has no artifact store"}
			} else if err := s.opts.StorePut(put.Key, put.Payload); err != nil {
				// Storage trouble fails the push, not the connection: the
				// artifact still exists wherever it was computed.
				ack = StoreAck{OK: false, Error: err.Error()}
			}
			if err := send(frameStoreAck, ack); err != nil {
				return
			}
		default:
			send(frameError, &WireError{Code: "proto", Message: fmt.Sprintf("unexpected frame kind %d", kind)})
			return
		}
	}
}

// beginItem registers an in-flight item unless the server is draining.
func (s *Server) beginItem() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.inflight.Add(1)
	return true
}

// runItem computes one item while watching its connection. The client
// sends nothing until it has the answer, so anything the watcher sees —
// EOF, a read error, a byte of a stray frame — cancels the item's context,
// and runItem reports ok=false: the connection is done and gets no Result.
// The watcher only peeks, so stopping it once the item is computed consumes
// nothing from the stream.
func (s *Server) runItem(conn net.Conn, br *bufio.Reader, item Item) (res Result, ok bool) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	conn.SetReadDeadline(time.Time{})
	peer := make(chan error, 1)
	go func() {
		_, err := br.Peek(1)
		cancel()
		peer <- err
	}()
	res = s.safeHandle(ctx, item)
	conn.SetReadDeadline(time.Now()) // stop the watcher
	return res, errors.Is(<-peer, os.ErrDeadlineExceeded)
}

// safeHandle guards the handler: a panic fails the one item, not the
// connection or the process.
func (s *Server) safeHandle(ctx context.Context, item Item) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{OK: false, Error: fmt.Sprintf("handler panicked: %v", r), Unprocessable: true}
		}
	}()
	return s.handler(ctx, item)
}
