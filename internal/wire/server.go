package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/peer"
	"fabriccrdt/internal/transport"
)

// Server exposes a transport.Transport (usually a *transport.Node) on a TCP
// listener. Each accepted connection is greeted with a Hello frame carrying
// the endpoint's Info, then serves streams by stream id: deliver sessions
// stream blocks with per-stream sequence numbers; unary requests (broadcast,
// endorse, submit) each get one response frame. Every handler runs in its
// own goroutine, writes serialized per connection. The Client gives each
// deliver stream a connection of its own, so a slow consumer's TCP
// backpressure holds up only its own stream — never the transport behind
// the server, whose History cursors absorb lag without queues — and a
// consumer that stops reading for WriteTimeout is disconnected, to re-open
// at its next block. A failed write closes its connection: a partly
// written frame cannot be resumed, and the reader must see the break
// rather than wait inside a torn frame.
type Server struct {
	tr   transport.Transport
	info transport.Info
	// WriteTimeout bounds each frame write (default 10s): a peer that
	// stops reading that long loses its connection instead of pinning
	// server goroutines forever.
	WriteTimeout time.Duration

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps tr for serving. Info is handed to every connecting client.
func NewServer(tr transport.Transport, info transport.Info) *Server {
	return &Server{tr: tr, info: info, WriteTimeout: 10 * time.Second, conns: make(map[net.Conn]struct{})}
}

// Listen starts serving on addr (e.g. "127.0.0.1:0") and returns the bound
// address. Serving proceeds in the background until Close.
func (s *Server) Listen(addr string) (net.Addr, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return nil, transport.ErrClosed
	}
	s.lis = lis
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(lis)
	}()
	return lis.Addr(), nil
}

func (s *Server) acceptLoop(lis net.Listener) {
	for {
		conn, err := lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops the listener and severs every connection; in-flight handlers
// drain. The wrapped transport belongs to the caller and is not closed.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	lis := s.lis
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

// serverConn is the per-connection state: the write lock serializing frames
// and the open deliver sessions, closed at teardown.
type serverConn struct {
	srv  *Server
	conn net.Conn

	writeMu sync.Mutex
	mu      sync.Mutex
	streams map[uint64]transport.BlockStream
}

func (s *Server) serveConn(conn net.Conn) {
	sc := &serverConn{srv: s, conn: conn, streams: make(map[uint64]transport.BlockStream)}
	var handlers sync.WaitGroup
	// Teardown order matters (defers run LIFO): first sever the connection
	// and close every deliver session — handlers may be blocked in a stream
	// Recv or a conn write — THEN wait for them to drain.
	defer handlers.Wait()
	defer func() {
		conn.Close()
		sc.mu.Lock()
		for _, st := range sc.streams {
			st.Close()
		}
		sc.mu.Unlock()
	}()
	hello, err := marshalBody(s.info)
	if err != nil {
		return
	}
	if sc.write(frame{Type: ftHello, Body: hello}) != nil {
		return
	}
	for {
		f, err := readFrame(conn)
		if err != nil {
			countFrameErr(frameErrsServer, err)
			return // disconnect or garbage: drop the connection
		}
		framesServerIn.Inc()
		bytesServerIn.Add(frameBytes(f))
		switch f.Type {
		case ftOpenDeliver:
			handlers.Add(1)
			go func() {
				defer handlers.Done()
				sc.handleDeliver(f)
			}()
		case ftBroadcast, ftEndorse, ftSubmit:
			handlers.Add(1)
			go func() {
				defer handlers.Done()
				sc.handleUnary(f)
			}()
		default:
			// Unknown frame type: protocol violation, drop the connection.
			return
		}
	}
}

// write sends one frame under the connection write lock and deadline. A
// failed write may have left a torn frame behind, so it closes the
// connection; the read loop then tears the rest down.
func (sc *serverConn) write(f frame) error {
	sc.writeMu.Lock()
	defer sc.writeMu.Unlock()
	if t := sc.srv.WriteTimeout; t > 0 {
		sc.conn.SetWriteDeadline(time.Now().Add(t))
	}
	if err := writeFrame(sc.conn, f); err != nil {
		sc.conn.Close()
		countFrameErr(frameErrsServer, err)
		return err
	}
	framesServerOut.Inc()
	bytesServerOut.Add(frameBytes(f))
	return nil
}

// writeErr fails a stream, preserving the retryable/fatal split across the
// socket.
func (sc *serverConn) writeErr(stream uint64, op string, err error) {
	we := wireError{Op: op, Retryable: transport.Retryable(err), Msg: err.Error()}
	body, merr := marshalBody(we)
	if merr != nil {
		return
	}
	sc.write(frame{Type: ftErr, Stream: stream, Body: body})
}

// handleDeliver opens the block stream and pumps it to the client, stamping
// seq 1,2,3,… — the client verifies contiguity.
func (sc *serverConn) handleDeliver(f frame) {
	var open deliverOpen
	if err := unmarshalBody(f.Body, &open); err != nil {
		sc.writeErr(f.Stream, "deliver", err)
		return
	}
	st, err := sc.srv.tr.Deliver(open.Channel, open.From)
	if err != nil {
		sc.writeErr(f.Stream, "deliver", err)
		return
	}
	sc.mu.Lock()
	sc.streams[f.Stream] = st
	sc.mu.Unlock()
	defer func() {
		sc.mu.Lock()
		delete(sc.streams, f.Stream)
		sc.mu.Unlock()
		st.Close()
	}()
	var seq uint64
	for {
		b, err := st.Recv()
		if err != nil {
			if errors.Is(err, io.EOF) {
				sc.write(frame{Type: ftEnd, Stream: f.Stream})
			} else {
				sc.writeErr(f.Stream, "deliver", err)
			}
			return
		}
		body, err := b.Marshal()
		if err != nil {
			sc.writeErr(f.Stream, "deliver", err)
			return
		}
		seq++
		if sc.write(frame{Type: ftMsg, Stream: f.Stream, Seq: seq, Body: body}) != nil {
			return // connection gone; teardown closes the stream
		}
	}
}

// handleUnary dispatches one request frame and writes its single response.
func (sc *serverConn) handleUnary(f frame) {
	var (
		body []byte
		err  error
		op   string
	)
	switch f.Type {
	case ftBroadcast:
		op = "broadcast"
		var tx *ledger.Transaction
		if tx, err = ledger.UnmarshalTransaction(f.Body); err == nil {
			err = sc.srv.tr.Broadcast(tx)
		}
	case ftEndorse:
		op = "endorse"
		var prop peer.Proposal
		if err = unmarshalBody(f.Body, &prop); err == nil {
			var resp peer.ProposalResponse
			if resp, err = sc.srv.tr.Endorse(prop); err == nil {
				body, err = marshalBody(resp)
			}
		}
	case ftSubmit:
		op = "submit"
		var tx *ledger.Transaction
		if tx, err = ledger.UnmarshalTransaction(f.Body); err == nil {
			var ev peer.CommitEvent
			if ev, err = sc.srv.tr.Submit(tx); err == nil {
				body, err = marshalBody(ev)
			}
		}
	}
	if err != nil {
		sc.writeErr(f.Stream, op, err)
		return
	}
	sc.write(frame{Type: ftMsg, Stream: f.Stream, Seq: 1, Body: body})
}
