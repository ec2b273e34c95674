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
	// FrameSlack is added beyond a batch's analysis timeout when computing
	// the read deadline for its result frames. Zero means 5s.
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
// concurrent use: a connection carries one batch at a time. Callers that
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
	hello := Hello{Magic: helloMagic, ProtoMin: 1, ProtoMax: ProtoVersion, Schema: opts.Schema}
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
	if ack.Proto < 1 || ack.Proto > ProtoVersion {
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

// Ack returns the server's handshake acceptance (negotiated versions).
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

// AnalyzeBatch sends items and invokes onResult for every Result frame as it
// arrives (out of order, tagged by Result.Index), returning after BatchDone.
// The read deadline is the soonest of ctx's deadline and the batch's largest
// item timeout plus FrameSlack, pushed forward on every received frame —
// a batch making progress is not reaped, a hung server is.
//
// Cancelling ctx interrupts a blocked read immediately (not at the next
// deadline): a hedged request whose other replica won can release this
// connection right away. The interrupted connection is marked broken and
// will be discarded, never reused mid-batch — that is what makes
// cancellation hedge-safe.
func (c *Client) AnalyzeBatch(ctx context.Context, items []Item, onResult func(Result)) error {
	if c.broken {
		return fmt.Errorf("wire: client is broken")
	}
	c.nextID++
	id := c.nextID
	var maxTimeout time.Duration
	for _, it := range items {
		if d := time.Duration(it.TimeoutMS) * time.Millisecond; d > maxTimeout {
			maxTimeout = d
		}
	}
	if maxTimeout <= 0 {
		maxTimeout = 30 * time.Second
	}
	frameBudget := maxTimeout + c.opts.FrameSlack
	defer c.watchCancel(ctx)()

	c.conn.SetWriteDeadline(deadlineFrom(ctx, frameBudget))
	if err := c.send(frameBatch, Batch{ID: id, Items: items}); err != nil {
		return c.fail(fmt.Errorf("wire: send batch: %w", err))
	}
	seen := 0
	for {
		// Order matters: set the deadline first, check ctx after. The
		// cancellation watcher may stomp the deadline concurrently, but then
		// ctx.Err() is already non-nil and this check returns before the read.
		c.conn.SetReadDeadline(deadlineFrom(ctx, frameBudget))
		if err := ctx.Err(); err != nil {
			return c.fail(err)
		}
		kind, payload, err := readFrame(c.br)
		if err != nil {
			return c.fail(fmt.Errorf("wire: read batch result: %w", err))
		}
		switch kind {
		case frameResult:
			res, err := decodeAs[Result](payload)
			if err != nil {
				return c.fail(fmt.Errorf("wire: malformed result: %w", err))
			}
			if res.ID != id {
				return c.fail(fmt.Errorf("wire: result for batch %d on batch %d", res.ID, id))
			}
			seen++
			if onResult != nil {
				onResult(res)
			}
		case frameBatchDone:
			done, err := decodeAs[BatchDone](payload)
			if err != nil {
				return c.fail(fmt.Errorf("wire: malformed batch-done: %w", err))
			}
			if done.ID != id || done.Results != seen {
				return c.fail(fmt.Errorf("wire: batch-done mismatch: id=%d results=%d, saw %d on batch %d",
					done.ID, done.Results, seen, id))
			}
			c.conn.SetReadDeadline(time.Time{})
			c.conn.SetWriteDeadline(time.Time{})
			return nil
		case framePong:
			// A stray pong (health check raced a batch) is harmless.
		default:
			if werr := errWire(kind, payload); werr != nil {
				return c.fail(werr)
			}
			return c.fail(fmt.Errorf("wire: unexpected frame kind %d during batch", kind))
		}
	}
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

// StorePut (proto >= 2) pushes one finished artifact into the backend's
// store, for the frontier's replication and read-repair paths. A storage
// failure on the backend comes back as an error but leaves the connection
// healthy; transport failures mark it broken as usual.
func (c *Client) StorePut(ctx context.Context, key string, payload []byte) error {
	if c.broken {
		return fmt.Errorf("wire: client is broken")
	}
	if c.ack.Proto < 2 {
		return &WireError{Code: "version", Message: fmt.Sprintf("backend speaks proto %d; store push needs >= 2", c.ack.Proto)}
	}
	defer c.watchCancel(ctx)()
	c.conn.SetWriteDeadline(deadlineFrom(ctx, 10*time.Second))
	if err := c.send(frameStorePut, StorePut{Key: key, Payload: payload}); err != nil {
		return c.fail(fmt.Errorf("wire: send store-put: %w", err))
	}
	for {
		c.conn.SetReadDeadline(deadlineFrom(ctx, 10*time.Second))
		if err := ctx.Err(); err != nil {
			return c.fail(err)
		}
		kind, payload, err := readFrame(c.br)
		if err != nil {
			return c.fail(fmt.Errorf("wire: read store-ack: %w", err))
		}
		switch kind {
		case frameStoreAck:
			ack, err := decodeAs[StoreAck](payload)
			if err != nil {
				return c.fail(fmt.Errorf("wire: malformed store-ack: %w", err))
			}
			c.conn.SetReadDeadline(time.Time{})
			c.conn.SetWriteDeadline(time.Time{})
			if !ack.OK {
				return fmt.Errorf("wire: backend store refused %q: %s", key, ack.Error)
			}
			return nil
		case framePong:
			// A stray pong (health check raced the push) is harmless.
		default:
			if werr := errWire(kind, payload); werr != nil {
				return c.fail(werr)
			}
			return c.fail(fmt.Errorf("wire: unexpected frame kind %d during store-put", kind))
		}
	}
}

// Ping round-trips a liveness probe.
func (c *Client) Ping(ctx context.Context) error {
	if c.broken {
		return fmt.Errorf("wire: client is broken")
	}
	c.conn.SetWriteDeadline(deadlineFrom(ctx, 2*time.Second))
	if err := c.send(framePing, struct{}{}); err != nil {
		return c.fail(err)
	}
	c.conn.SetReadDeadline(deadlineFrom(ctx, 2*time.Second))
	kind, payload, err := readFrame(c.br)
	if err != nil {
		return c.fail(err)
	}
	if kind != framePong {
		if werr := errWire(kind, payload); werr != nil {
			return c.fail(werr)
		}
		return c.fail(fmt.Errorf("wire: ping answered with frame kind %d", kind))
	}
	c.conn.SetReadDeadline(time.Time{})
	c.conn.SetWriteDeadline(time.Time{})
	return nil
}
