package wire

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"time"
)

// ClientOptions configure Dial.
type ClientOptions struct {
	// Schema is the artifact schema version the client requires (must match
	// the server's exactly).
	Schema int
	// DialTimeout bounds connection establishment plus the handshake.
	// Zero means 2s.
	DialTimeout time.Duration
	// FrameSlack is added beyond an item's analysis timeout when computing
	// the read deadline for its Result frame. Zero means 5s.
	FrameSlack time.Duration
}

func (o *ClientOptions) defaults() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.FrameSlack <= 0 {
		o.FrameSlack = 5 * time.Second
	}
}

// Client is one negotiated connection to a backend. It is not safe for
// concurrent use: a connection carries one request at a time. Callers that
// need concurrency hold several Clients (see the frontier's per-backend
// pool).
type Client struct {
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	opts   ClientOptions
	ack    HelloAck
	nextID uint64
	broken bool // a transport/protocol error occurred; do not reuse
}

// Dial connects to addr and performs the handshake.
func Dial(addr string, opts ClientOptions) (*Client, error) {
	opts.defaults()
	if opts.Schema < 1 {
		return nil, fmt.Errorf("wire: client schema version must be >= 1")
	}
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
		opts: opts,
	}
	conn.SetDeadline(time.Now().Add(opts.DialTimeout))
	hello := Hello{Magic: helloMagic, ProtoMin: ProtoVersion, ProtoMax: ProtoVersion, Schema: opts.Schema}
	if err := c.send(frameHello, hello); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: handshake send: %w", err)
	}
	kind, payload, err := readFrame(c.br)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: handshake read: %w", err)
	}
	if werr := errWire(kind, payload); werr != nil {
		conn.Close()
		return nil, werr
	}
	if kind != frameHelloAck {
		conn.Close()
		return nil, fmt.Errorf("wire: handshake: unexpected frame kind %d", kind)
	}
	ack, err := decodeAs[HelloAck](payload)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: handshake: malformed ack: %w", err)
	}
	if ack.Proto != ProtoVersion {
		conn.Close()
		return nil, &WireError{Code: "version", Message: fmt.Sprintf("server picked unsupported protocol %d", ack.Proto)}
	}
	if ack.Schema != opts.Schema {
		conn.Close()
		return nil, &WireError{Code: "schema", Message: fmt.Sprintf("server schema %d, client %d", ack.Schema, opts.Schema)}
	}
	c.ack = ack
	conn.SetDeadline(time.Time{})
	return c, nil
}

// Ack returns the server's handshake acceptance.
func (c *Client) Ack() HelloAck { return c.ack }

// Broken reports whether the connection hit a transport or protocol error
// and must not be reused.
func (c *Client) Broken() bool { return c.broken }

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) send(kind byte, v any) error {
	if err := writeFrame(c.bw, kind, v); err != nil {
		return err
	}
	return c.bw.Flush()
}

// fail marks the connection unusable and returns err.
func (c *Client) fail(err error) error {
	c.broken = true
	return err
}

// Analyze sends one item and returns its Result. The read deadline is
// ctx's deadline, or without one the item's timeout (30s if unset) plus
// FrameSlack: a hung server is reaped.
//
// Cancelling ctx interrupts a blocked read immediately (not at the next
// deadline): a hedged request whose other replica won can release this
// connection right away. The interrupted connection is marked broken and
// will be discarded, never reused mid-request — that is what makes
// cancellation hedge-safe — and closing it is what tells the server to
// cancel the item.
func (c *Client) Analyze(ctx context.Context, item Item) (Result, error) {
	timeout := time.Duration(item.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	c.nextID++
	payload, err := c.call(ctx, frameRequest, Request{ID: c.nextID, Item: item}, frameResult, timeout+c.opts.FrameSlack)
	if err != nil {
		return Result{}, err
	}
	res, err := decodeAs[Result](payload)
	if err != nil {
		return Result{}, c.fail(fmt.Errorf("wire: malformed result: %w", err))
	}
	if res.ID != c.nextID {
		return Result{}, c.fail(fmt.Errorf("wire: result for request %d on request %d", res.ID, c.nextID))
	}
	return res, nil
}

// AnalyzeBatch analyzes items one request at a time, in order, handing
// each Result to onResult.
//
// Deprecated: the protocol carries one item per request; use Analyze.
func (c *Client) AnalyzeBatch(ctx context.Context, items []Item, onResult func(Result)) error {
	for _, item := range items {
		res, err := c.Analyze(ctx, item)
		if err != nil {
			return err
		}
		if onResult != nil {
			onResult(res)
		}
	}
	return nil
}

// call sends one frame and reads the one frame of kind want that answers
// it, by ctx's deadline or, without one, within budget. Any transport or
// protocol failure marks the client broken.
func (c *Client) call(ctx context.Context, kind byte, v any, want byte, budget time.Duration) ([]byte, error) {
	if c.broken {
		return nil, fmt.Errorf("wire: client is broken")
	}
	defer c.watchCancel(ctx)()
	deadline := deadlineFrom(ctx, budget)
	c.conn.SetWriteDeadline(deadline)
	if err := c.send(kind, v); err != nil {
		return nil, c.fail(fmt.Errorf("wire: send frame %d: %w", kind, err))
	}
	// Order matters: set the deadline first, check ctx after. The
	// cancellation watcher may stomp the deadline concurrently, but then
	// ctx.Err() is already non-nil and this check returns before the read.
	c.conn.SetReadDeadline(deadline)
	if err := ctx.Err(); err != nil {
		return nil, c.fail(err)
	}
	got, payload, err := readFrame(c.br)
	if err != nil {
		return nil, c.fail(fmt.Errorf("wire: read reply to frame %d: %w", kind, err))
	}
	if got != want {
		if werr := errWire(got, payload); werr != nil {
			return nil, c.fail(werr)
		}
		return nil, c.fail(fmt.Errorf("wire: frame %d answered with frame kind %d", kind, got))
	}
	c.conn.SetDeadline(time.Time{})
	return payload, nil
}

// watchCancel arranges for the connection's read deadline to be yanked to
// "now" the moment ctx is cancelled, unblocking a read in progress. The
// returned func disarms it; call via defer. Disarming waits for a
// deadline change already under way, so none can land after it returns,
// and a client whose watcher fired is marked broken: the change may have
// come after the request finished, and a pooled connection must not carry
// it into the next one.
func (c *Client) watchCancel(ctx context.Context) func() {
	if ctx.Done() == nil {
		return func() {}
	}
	fired := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		c.conn.SetReadDeadline(time.Now())
		close(fired)
	})
	return func() {
		if !stop() {
			<-fired
			c.broken = true
		}
	}
}

// StorePut pushes one finished artifact into the backend's store, for the
// frontier's replication and read-repair paths. A storage failure on the
// backend comes back as an error but leaves the connection healthy;
// transport failures mark it broken as usual.
func (c *Client) StorePut(ctx context.Context, key string, payload []byte) error {
	reply, err := c.call(ctx, frameStorePut, StorePut{Key: key, Payload: payload}, frameStoreAck, 10*time.Second)
	if err != nil {
		return err
	}
	ack, err := decodeAs[StoreAck](reply)
	if err != nil {
		return c.fail(fmt.Errorf("wire: malformed store-ack: %w", err))
	}
	if !ack.OK {
		return fmt.Errorf("wire: backend store refused %q: %s", key, ack.Error)
	}
	return nil
}

// Ping round-trips a liveness probe.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.call(ctx, framePing, struct{}{}, framePong, 2*time.Second)
	return err
}
