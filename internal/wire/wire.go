// Package wire is the versioned streaming protocol between the serving
// frontier (cmd/dfg-serve) and analysis backends (cmd/dfg-worker). It is
// gRPC in spirit — typed messages, a handshake, streamed responses — hand
// rolled on net + encoding/json so the repository stays stdlib-only
// (turbo-geth's remote-DB proto files are the design reference, not a
// dependency).
//
// Framing. Every message on the connection is one frame:
//
//	byte 0      frame kind
//	bytes 1..4  big-endian payload length
//	bytes 5..   payload, a single JSON document
//
// Frames are small enough to decode eagerly; MaxFrame bounds the payload so
// a corrupt or hostile peer cannot make a reader allocate unboundedly.
//
// Handshake. The client speaks first: a Hello frame carrying the protocol
// version range it supports and the artifact schema version it expects. The
// server answers with a HelloAck, or an Error frame and a close. Both sides
// speak exactly ProtoVersion: a peer whose range leaves it out is refused
// with a "version" error. Schema versions must match exactly too — a
// frontier must never mix Report payloads of two schemas, that is what the
// version field is for.
//
// Requests. One Request frame carries one analysis item under an ID, and
// the server answers it with one Result frame carrying that ID. A
// connection carries one request at a time (the frontier holds a pool of
// connections per backend instead of multiplexing streams; simpler, and
// connection setup is two frames). The server bounds nothing per
// connection: the engine behind the Handler admits at most its Workers
// analyses at once, process-wide.
//
// Liveness and cancellation. Ping/Pong frames serve health checks, and
// every read on both sides carries a deadline: the server's idle-read
// deadline reaps dead clients between requests, and the client's
// per-request deadline (the item's timeout plus slack, or the context
// deadline if sooner) reaps dead servers. While an item computes, the
// server keeps reading its connection. The client sends nothing until the
// answer arrives, so EOF, a read error or any stray byte means the client
// has gone or broken the protocol: the item's context is cancelled, and the
// analysis stops at its next stage boundary (or never starts, if it was
// waiting for an engine slot). There is no cancel frame: a client whose
// context is cancelled mid-request marks itself broken, and a pool closes a
// broken client, so closing the connection is the cancel.
package wire

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// ProtoVersion is the one protocol version this build speaks. Version 3:
// one Request frame (ID + one Item) answered by one Result frame, the
// connection read while the item computes so that a close cancels it, and
// StorePut/StoreAck frames — a frontier pushing a finished artifact into a
// replica's store (replication and read repair). Versions 1 and 2 carried
// multi-item batches streamed out of order behind a trailer frame; a peer
// that speaks only those is refused at the handshake.
const ProtoVersion = 3

// MaxFrame bounds a frame payload (64 MiB — a Report for a very large
// program is well under 1 MiB).
const MaxFrame = 64 << 20

// Frame kinds. Kind 5 was the batch trailer of versions 1 and 2.
const (
	frameHello    = byte(1)
	frameHelloAck = byte(2)
	frameRequest  = byte(3)
	frameResult   = byte(4)
	framePing     = byte(6)
	framePong     = byte(7)
	frameError    = byte(8)
	frameStorePut = byte(9)
	frameStoreAck = byte(10)
)

// Hello is the client's opening message.
type Hello struct {
	Magic    string `json:"magic"` // "dfgwire"
	ProtoMin int    `json:"proto_min"`
	ProtoMax int    `json:"proto_max"`
	Schema   int    `json:"schema"` // artifact (Report) schema version; must match exactly
}

// HelloAck is the server's acceptance.
type HelloAck struct {
	Proto  int    `json:"proto"`  // ProtoVersion
	Schema int    `json:"schema"` // echoed schema version
	Server string `json:"server"` // free-form identification, e.g. "dfg-worker"
}

const helloMagic = "dfgwire"

// Item is one program analysis request. It mirrors the HTTP
// API's analyzeRequest, flattened to plain data so this package needs no
// knowledge of the pipeline.
type Item struct {
	Program    string   `json:"program"`
	Stages     []string `json:"stages,omitempty"`
	Predicates bool     `json:"predicates,omitempty"`
	// SourceKind selects the frontend for Program ("" = toy-language
	// source, "bytecode" = bytecode assembly text). Binary containers are
	// disassembled before they reach the wire.
	SourceKind string  `json:"source_kind,omitempty"`
	Inputs     []int64 `json:"inputs,omitempty"`
	TimeoutMS  int64   `json:"timeout_ms,omitempty"`
}

// Request is the request frame payload: one item under an ID that its
// Result echoes.
type Request struct {
	ID   uint64 `json:"id"`
	Item Item   `json:"item"`
}

// Result is the answer to one Request. Report is the raw Report JSON exactly as
// the backend produced it: the frontier forwards these bytes verbatim, which
// is what makes "byte-identical to in-process analysis" a meaningful
// end-to-end property.
type Result struct {
	ID     uint64          `json:"id"`
	OK     bool            `json:"ok"`
	Key    string          `json:"key,omitempty"`
	Report json.RawMessage `json:"report,omitempty"`
	Meta   map[string]Meta `json:"meta,omitempty"`
	Tier   string          `json:"tier,omitempty"` // compute | lru | store
	Error  string          `json:"error,omitempty"`
	// Unprocessable distinguishes "this program is at fault" (parse error,
	// stage panic — do not retry elsewhere) from backend trouble.
	Unprocessable bool `json:"unprocessable,omitempty"`
}

// Meta is one stage's compute record, mirroring the HTTP stageMeta. A
// computed answer carries one per stage with NS set; a cache-tier answer
// carries a single "report" entry with CacheHit set.
type Meta struct {
	CacheHit bool  `json:"cache_hit"`
	NS       int64 `json:"ns"`
}

// StorePut pushes one finished artifact into the backend's
// store: the frontier's replication and read-repair primitive. Payload is
// the canonical Report JSON exactly as some backend produced it — the
// receiver stores the bytes verbatim, preserving the byte-identical
// end-to-end property. The schema was fenced at handshake time, so both
// sides already agree on what the bytes mean.
type StorePut struct {
	Key     string `json:"key"`
	Payload []byte `json:"payload"` // base64 inside the JSON frame
}

// StoreAck answers a StorePut. OK=false carries the storage error; the
// connection stays healthy either way (a full replica disk must not sever
// the analysis path).
type StoreAck struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// WireError is the Error frame payload and the error type handshake and
// protocol failures surface as.
type WireError struct {
	Code    string `json:"code"` // "version", "schema", "proto", "overload"
	Message string `json:"message"`
}

func (e *WireError) Error() string { return fmt.Sprintf("wire: %s: %s", e.Code, e.Message) }

// writeFrame emits one frame. The caller serializes access to w.
func writeFrame(w io.Writer, kind byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("wire: marshal frame %d: %w", kind, err)
	}
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame %d payload %d exceeds MaxFrame", kind, len(payload))
	}
	var hdr [5]byte
	hdr[0] = kind
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// readFrame reads one frame, returning its kind and raw payload.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame payload %d exceeds MaxFrame", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("wire: short frame: %w", err)
	}
	return hdr[0], payload, nil
}

// decodeAs unmarshals payload into a fresh T.
func decodeAs[T any](payload []byte) (T, error) {
	var v T
	err := json.Unmarshal(payload, &v)
	return v, err
}

// deadlineFrom converts a context deadline to a net deadline, using fallback
// (from now) when the context carries none.
func deadlineFrom(ctx context.Context, fallback time.Duration) time.Time {
	if d, ok := ctx.Deadline(); ok {
		return d
	}
	return time.Now().Add(fallback)
}

// errWire extracts a *WireError if the frame is an Error frame.
func errWire(kind byte, payload []byte) error {
	if kind != frameError {
		return nil
	}
	we, err := decodeAs[*WireError](payload)
	if err != nil || we == nil {
		return &WireError{Code: "proto", Message: "malformed error frame"}
	}
	return we
}
