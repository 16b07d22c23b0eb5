package wire

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/peer"
	"fabriccrdt/internal/transport"
)

// ClientConfig has no fields; Dial keeps the parameter so existing callers
// compile unchanged.
type ClientConfig struct{}

// Connection handling. A lazy reconnect of the unary connection re-dials
// dialRetries times with exponential backoff from dialBackoff before the
// call fails retryable.
const (
	dialTimeout  = 3 * time.Second // each dial and its Hello
	dialRetries  = 3               // re-dials per lazy reconnect
	dialBackoff  = 25 * time.Millisecond
	callTimeout  = 30 * time.Second // each unary request
	writeTimeout = 10 * time.Second // each frame write
)

// Client is the dialing side of the wire transport. Unary calls
// (Broadcast, Endorse, Submit) share one TCP connection, routed by
// client-assigned stream ids; when it dies every in-flight call fails with
// a RETRYABLE transport.Error and the next call re-dials with exponential
// backoff. Each Deliver stream dials a connection of its own and reads its
// frames straight off that socket, so a slow consumer is bounded by TCP
// flow control — and, past the server's write timeout, disconnected —
// without stalling anyone else; the deliver loop's reconnect discipline
// composes on top. Client implements transport.Transport.
type Client struct {
	addr string

	mu      sync.Mutex
	conn    net.Conn               // unary connection; nil when disconnected
	writeMu *sync.Mutex            // per-connection write lock
	calls   map[uint64]chan reply  // in-flight unary calls, routed by the read loop
	streams map[*clientStream]bool // open deliver streams, closed by Close
	nextID  uint64
	info    transport.Info
	closed  bool
	// everConnected distinguishes a reconnect from the first dial in the
	// reconnect counter.
	everConnected bool
}

// reply is what an in-flight unary call receives, exactly once: its
// response frame or the failure of its connection.
type reply struct {
	f   frame
	err error
}

// Dial connects to a wire server and reads its Hello. The returned client
// lazily reconnects after failures.
func Dial(addr string, _ ClientConfig) (*Client, error) {
	c := &Client{addr: addr, calls: make(map[uint64]chan reply), streams: make(map[*clientStream]bool)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.connectLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// Info returns the server's handshake metadata (name, MSP id, channels).
func (c *Client) Info() transport.Info {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.info
}

// handshake dials once and reads the server's Hello.
func (c *Client) handshake() (net.Conn, transport.Info, error) {
	var info transport.Info
	conn, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return nil, info, transport.Errorf("dial", true, "wire: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(dialTimeout))
	hello, err := readFrame(conn)
	if err != nil || hello.Type != ftHello {
		conn.Close()
		return nil, info, transport.Errorf("dial", true, "wire: bad hello from %s: %v", c.addr, err)
	}
	if err := unmarshalBody(hello.Body, &info); err != nil {
		conn.Close()
		return nil, info, transport.Errorf("dial", true, "wire: bad hello body from %s: %v", c.addr, err)
	}
	conn.SetReadDeadline(time.Time{})
	framesClientIn.Inc()
	bytesClientIn.Add(frameBytes(hello))
	return conn, info, nil
}

// connectLocked dials the unary connection and starts its read loop. c.mu
// held.
func (c *Client) connectLocked() error {
	conn, info, err := c.handshake()
	if err != nil {
		return err
	}
	if c.everConnected {
		reconnects.Inc()
	}
	c.everConnected = true
	c.conn = conn
	c.writeMu = &sync.Mutex{}
	c.info = info
	go c.readLoop(conn)
	return nil
}

// ensure returns the live unary connection and its write lock,
// reconnecting with exponential backoff when the previous one died.
func (c *Client) ensure() (net.Conn, *sync.Mutex, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, nil, transport.ErrClosed
	}
	if c.conn != nil {
		return c.conn, c.writeMu, nil
	}
	backoff := dialBackoff
	var err error
	for attempt := 0; attempt <= dialRetries; attempt++ {
		if attempt > 0 {
			c.mu.Unlock()
			time.Sleep(backoff)
			backoff *= 2
			c.mu.Lock()
			if c.closed {
				return nil, nil, transport.ErrClosed
			}
			if c.conn != nil { // another caller reconnected while we slept
				return c.conn, c.writeMu, nil
			}
		}
		if err = c.connectLocked(); err == nil {
			return c.conn, c.writeMu, nil
		}
	}
	return nil, nil, err
}

// readLoop hands each response frame to the call waiting for it until the
// connection dies, then fails every in-flight call retryably.
func (c *Client) readLoop(conn net.Conn) {
	for {
		f, err := readFrame(conn)
		if err != nil {
			countFrameErr(frameErrsClient, err)
			c.teardown(conn, err)
			return
		}
		framesClientIn.Inc()
		bytesClientIn.Add(frameBytes(f))
		c.mu.Lock()
		call := c.calls[f.Stream]
		delete(c.calls, f.Stream)
		c.mu.Unlock()
		if call != nil {
			call <- reply{f: f} // one slot, one sender: whoever removed it
		}
	}
}

// teardown clears a dead unary connection and fails its in-flight calls.
func (c *Client) teardown(conn net.Conn, cause error) {
	conn.Close()
	c.mu.Lock()
	if c.conn != conn { // already replaced
		c.mu.Unlock()
		return
	}
	c.conn = nil
	calls := c.calls
	c.calls = make(map[uint64]chan reply)
	closed := c.closed
	c.mu.Unlock()
	err := transport.Errorf("conn", true, "wire: connection to %s lost: %v", c.addr, cause)
	if closed {
		err = &transport.Error{Op: "conn", Retryable: false, Err: transport.ErrClosed}
	}
	for _, call := range calls {
		call <- reply{err: err}
	}
}

// register allocates a stream id on the given connection.
func (c *Client) register(conn net.Conn) (uint64, chan reply, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != conn { // torn down between ensure and register
		return 0, nil, false
	}
	c.nextID++
	id := c.nextID
	call := make(chan reply, 1)
	c.calls[id] = call
	return id, call, true
}

func (c *Client) unregister(id uint64) {
	c.mu.Lock()
	delete(c.calls, id)
	c.mu.Unlock()
}

// send writes one frame on the unary connection under its write lock. A
// failed write may have left a torn frame behind, so it tears the
// connection down.
func (c *Client) send(conn net.Conn, writeMu *sync.Mutex, f frame) error {
	writeMu.Lock()
	defer writeMu.Unlock()
	if err := writeFrameCounted(conn, f); err != nil {
		c.teardown(conn, err)
		return transport.Errorf("conn", true, "wire: writing to %s: %v", c.addr, err)
	}
	return nil
}

// unary performs one request/response exchange.
func (c *Client) unary(ft frameType, op string, body []byte) ([]byte, error) {
	conn, writeMu, err := c.ensure()
	if err != nil {
		return nil, err
	}
	id, call, ok := c.register(conn)
	if !ok {
		return nil, transport.Errorf(op, true, "wire: connection to %s lost", c.addr)
	}
	defer c.unregister(id)
	if err := c.send(conn, writeMu, frame{Type: ft, Stream: id, Body: body}); err != nil {
		return nil, err
	}
	timer := time.NewTimer(callTimeout)
	defer timer.Stop()
	var r reply
	select {
	case r = <-call:
	case <-timer.C:
		return nil, transport.Errorf("call", false, "wire: call timed out")
	}
	if r.err != nil {
		return nil, r.err
	}
	switch r.f.Type {
	case ftMsg:
		return r.f.Body, nil
	case ftErr:
		return nil, decodeWireError(op, r.f.Body)
	default:
		return nil, transport.Errorf(op, false, "wire: unexpected frame type %d in response", r.f.Type)
	}
}

// decodeWireError rebuilds the server-side transport error, preserving its
// retryable/fatal classification.
func decodeWireError(op string, body []byte) error {
	var we wireError
	if err := unmarshalBody(body, &we); err != nil {
		return transport.Errorf(op, false, "wire: undecodable error frame: %v", err)
	}
	if we.Op == "" {
		we.Op = op
	}
	return transport.Errorf(we.Op, we.Retryable, "%s", we.Msg)
}

// Deliver opens a block stream on a connection of its own. The returned
// stream verifies per-stream sequence contiguity: a skipped or repeated
// wire frame is a medium failure and surfaces as a retryable error.
func (c *Client) Deliver(channelID string, from uint64) (transport.BlockStream, error) {
	body, err := marshalBody(deliverOpen{Channel: channelID, From: from})
	if err != nil {
		return nil, err
	}
	if c.isClosed() {
		return nil, transport.ErrClosed
	}
	conn, _, err := c.handshake()
	if err != nil {
		return nil, err
	}
	s := &clientStream{c: c, conn: conn}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return nil, transport.ErrClosed
	}
	c.streams[s] = true
	c.mu.Unlock()
	if err := writeFrameCounted(conn, frame{Type: ftOpenDeliver, Stream: 1, Body: body}); err != nil {
		s.Close()
		return nil, transport.Errorf("deliver", true, "wire: writing to %s: %v", c.addr, err)
	}
	return s, nil
}

func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// writeFrameCounted writes one frame under the client's write deadline and
// counts it in the client's traffic or frame-error counters.
func writeFrameCounted(conn net.Conn, f frame) error {
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err := writeFrame(conn, f); err != nil {
		countFrameErr(frameErrsClient, err)
		return err
	}
	framesClientOut.Inc()
	bytesClientOut.Add(frameBytes(f))
	return nil
}

// Broadcast submits one envelope for ordering.
func (c *Client) Broadcast(tx *ledger.Transaction) error {
	body, err := tx.Marshal()
	if err != nil {
		return fmt.Errorf("wire: encoding transaction: %w", err)
	}
	_, err = c.unary(ftBroadcast, "broadcast", body)
	return err
}

// Endorse simulates a proposal on the remote peer.
func (c *Client) Endorse(prop peer.Proposal) (peer.ProposalResponse, error) {
	body, err := marshalBody(prop)
	if err != nil {
		return peer.ProposalResponse{}, err
	}
	respBody, err := c.unary(ftEndorse, "endorse", body)
	if err != nil {
		return peer.ProposalResponse{}, err
	}
	var resp peer.ProposalResponse
	if err := unmarshalBody(respBody, &resp); err != nil {
		return peer.ProposalResponse{}, err
	}
	return resp, nil
}

// Submit runs the full gateway lifecycle on the remote endpoint.
func (c *Client) Submit(tx *ledger.Transaction) (peer.CommitEvent, error) {
	body, err := tx.Marshal()
	if err != nil {
		return peer.CommitEvent{}, fmt.Errorf("wire: encoding transaction: %w", err)
	}
	respBody, err := c.unary(ftSubmit, "submit", body)
	if err != nil {
		return peer.CommitEvent{}, err
	}
	var ev peer.CommitEvent
	if err := unmarshalBody(respBody, &ev); err != nil {
		return peer.CommitEvent{}, err
	}
	return ev, nil
}

// Close severs the unary connection, failing its in-flight calls with
// ErrClosed, and closes every open stream, whose Recv then returns io.EOF.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	streams := make([]*clientStream, 0, len(c.streams))
	for s := range c.streams {
		streams = append(streams, s)
	}
	c.mu.Unlock()
	if conn != nil {
		c.teardown(conn, transport.ErrClosed)
	}
	for _, s := range streams {
		s.Close()
	}
	return nil
}

// clientStream is one open wire deliver session: its own connection,
// carrying one stream.
type clientStream struct {
	c    *Client
	conn net.Conn

	seq    uint64 // last verified wire sequence number
	closed atomic.Bool
}

// Recv reads the next block off the stream's connection, verifying
// wire-level sequence contiguity. One goroutine consumes a stream (the
// BlockStream contract); Close from another goroutine unblocks it.
func (s *clientStream) Recv() (*ledger.Block, error) {
	if s.closed.Load() {
		return nil, io.EOF
	}
	f, err := readFrame(s.conn)
	if err != nil {
		if s.closed.Load() {
			return nil, io.EOF
		}
		countFrameErr(frameErrsClient, err)
		s.conn.Close()
		return nil, transport.Errorf("deliver", true, "wire: connection to %s lost: %v", s.c.addr, err)
	}
	framesClientIn.Inc()
	bytesClientIn.Add(frameBytes(f))
	switch f.Type {
	case ftMsg:
		if f.Seq != s.seq+1 {
			return nil, transport.Errorf("deliver", true,
				"wire: stream sequence gap: frame seq %d, expected %d", f.Seq, s.seq+1)
		}
		s.seq = f.Seq
		b, err := ledger.UnmarshalBlock(f.Body)
		if err != nil {
			return nil, transport.Errorf("deliver", true, "wire: undecodable block frame: %v", err)
		}
		return b, nil
	case ftEnd:
		return nil, io.EOF
	case ftErr:
		return nil, decodeWireError("deliver", f.Body)
	default:
		return nil, transport.Errorf("deliver", false, "wire: unexpected frame type %d on deliver stream", f.Type)
	}
}

// Close closes the stream's connection; the server sees the disconnect
// and releases its cursor.
func (s *clientStream) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.c.mu.Lock()
	delete(s.c.streams, s)
	s.c.mu.Unlock()
	s.conn.Close()
	return nil
}

// Compile-time interface check.
var _ transport.Transport = (*Client)(nil)
