// Package wire is the framed-TCP implementation of transport.Transport: the
// four FabricCRDT streams (Deliver, Broadcast, Endorse, Submit) as
// version-tagged JSON messages inside internal/framing frames — the record
// discipline of the durable stores (docs/PERSISTENCE.md, "Record format
// and recovery"), lifted onto a socket. NewServer exposes a
// transport.Transport (usually a *transport.Node) on a listener; Dial
// returns a client Transport whose unary calls share one lazily
// reconnecting connection, multiplexed by stream id, while each Deliver
// stream owns a connection of its own, so TCP flow control bounds it. The
// client verifies per-stream sequence numbers and reports every medium
// failure as a retryable transport.Error so deliver loops reconnect with
// backoff instead of wedging.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"fabriccrdt/internal/framing"
)

// Version is the wire protocol version carried by every frame. A receiver
// rejects any other value — no negotiation, both ends of a deployment ship
// together.
const Version = 1

// Every message is one framing frame whose payload starts with a fixed
// header, followed by frame-type-specific JSON:
//
//	[1B version][1B type][8B LE stream][8B LE seq][body]
const (
	// headerLen is the fixed header opening every payload.
	headerLen = 1 + 1 + 8 + 8
	// MaxFrameBytes caps a frame's declared payload length BEFORE any
	// allocation — a corrupt or hostile length prefix must not balloon
	// memory. 64 MiB comfortably clears any block the cutter produces.
	MaxFrameBytes = 64 << 20
)

// frameType discriminates the multiplexed traffic on a connection.
type frameType uint8

const (
	// ftHello is sent by the server immediately after accept; its body is
	// the endpoint's transport.Info.
	ftHello frameType = iota + 1
	// ftOpenDeliver opens a block stream (body: deliverOpen). The server
	// answers with ftMsg frames carrying blocks, seq 1,2,3,… then ftEnd on
	// clean shutdown or ftErr on failure.
	ftOpenDeliver
	// ftBroadcast, ftEndorse and ftSubmit are unary requests (bodies: the
	// transaction, proposal, transaction); the server answers each with a
	// single ftMsg (the result) or ftErr on the same stream id.
	ftBroadcast
	ftEndorse
	ftSubmit
	// ftMsg carries a response or stream element.
	ftMsg
	// ftEnd closes a deliver stream cleanly (io.EOF to the consumer).
	ftEnd
	// ftErr fails a stream or request (body: wireError).
	ftErr
)

// frame is one decoded frame.
type frame struct {
	Type   frameType
	Stream uint64
	Seq    uint64
	Body   []byte
}

// deliverOpen is the ftOpenDeliver body.
type deliverOpen struct {
	Channel string `json:"channel"`
	From    uint64 `json:"from"`
}

// wireError is the ftErr body: a transport failure serialized across the
// socket, preserving the retryable/fatal distinction.
type wireError struct {
	Op        string `json:"op"`
	Retryable bool   `json:"retryable"`
	Msg       string `json:"msg"`
}

// writeFrame encodes and writes one frame. Callers serialize writes per
// connection (a torn interleaved frame is unrecoverable for the reader).
func writeFrame(w io.Writer, f frame) error {
	buf := make([]byte, framing.HeaderLen+headerLen+len(f.Body))
	payload := buf[framing.HeaderLen:]
	payload[0] = Version
	payload[1] = byte(f.Type)
	binary.LittleEndian.PutUint64(payload[2:10], f.Stream)
	binary.LittleEndian.PutUint64(payload[10:18], f.Seq)
	copy(payload[headerLen:], f.Body)
	if err := framing.Seal(buf, MaxFrameBytes); err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	_, err := w.Write(buf)
	return err
}

// readFrame reads and verifies one frame. Any malformed input — truncation,
// a length prefix beyond MaxFrameBytes, a checksum mismatch, a payload
// shorter than the header, a version mismatch — returns an error; readFrame
// never panics and never allocates more than the declared (capped) length.
// The fuzz harnesses here and in internal/framing hold it to that. io.EOF
// at a frame boundary is a clean close.
func readFrame(r io.Reader) (frame, error) {
	payload, err := framing.Read(r, MaxFrameBytes)
	if err != nil {
		return frame{}, err
	}
	if len(payload) < headerLen {
		return frame{}, fmt.Errorf("wire: frame length %d below header size %d", len(payload), headerLen)
	}
	if payload[0] != Version {
		return frame{}, fmt.Errorf("wire: protocol version %d, want %d", payload[0], Version)
	}
	return frame{
		Type:   frameType(payload[1]),
		Stream: binary.LittleEndian.Uint64(payload[2:10]),
		Seq:    binary.LittleEndian.Uint64(payload[10:18]),
		Body:   payload[headerLen:],
	}, nil
}

// marshalBody JSON-encodes a frame body, failing loudly rather than
// shipping a half-built frame.
func marshalBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("wire: encoding %T: %w", v, err)
	}
	return b, nil
}

// unmarshalBody decodes a frame body.
func unmarshalBody(data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("wire: decoding %T: %w", v, err)
	}
	return nil
}
