package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/peer"
	"fabriccrdt/internal/transport"
)

const testChannel = "ch1"

// bigBlocks returns n blocks numbered 1..n, each carrying size bytes of
// transaction payload. They share one payload slice, so only the frames
// in flight cost memory.
func bigBlocks(n, size int) []*ledger.Block {
	payload := bytes.Repeat([]byte{'x'}, size)
	out := make([]*ledger.Block, n)
	for i := range out {
		out[i] = &ledger.Block{
			Header:       ledger.BlockHeader{Number: uint64(i + 1)},
			Transactions: []*ledger.Transaction{{ID: fmt.Sprintf("tx%d", i+1), ChannelID: testChannel, Args: [][]byte{payload}}},
		}
	}
	return out
}

type echoEndorser struct{}

func (echoEndorser) Endorse(prop peer.Proposal) (peer.ProposalResponse, error) {
	return peer.ProposalResponse{ChannelID: prop.ChannelID}, nil
}

type nopBroadcaster struct{}

func (nopBroadcaster) Broadcast(*ledger.Transaction) error { return nil }

// testNode serves one in-memory history holding blocks, plus an endorser
// and a broadcaster that answer at once.
func testNode(t *testing.T, blocks []*ledger.Block) (*transport.Node, *transport.History) {
	t.Helper()
	h := transport.NewHistory(1)
	for _, b := range blocks {
		if err := h.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	return &transport.Node{
		NodeInfo:   transport.Info{Name: "wire-test", Channels: []string{testChannel}},
		Histories:  map[string]*transport.History{testChannel: h},
		Broadcasts: map[string]transport.Broadcaster{testChannel: nopBroadcaster{}},
		Endorser:   echoEndorser{},
	}, h
}

// listen serves node on loopback; a positive writeTimeout replaces the
// server's default.
func listen(t *testing.T, node *transport.Node, writeTimeout time.Duration) (*Server, string) {
	t.Helper()
	srv := NewServer(node, node.NodeInfo)
	if writeTimeout > 0 {
		srv.WriteTimeout = writeTimeout
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFailedWriteClosesConnection pins that a frame write the server
// gives up on closes the connection: a reader that stalled past the
// write timeout drains the whole frames, then sees the break at once,
// instead of waiting forever inside the torn frame.
func TestFailedWriteClosesConnection(t *testing.T) {
	const n = 64
	node, _ := testNode(t, bigBlocks(n, 256<<10))
	_, addr := listen(t, node, 100*time.Millisecond)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.(*net.TCPConn).SetReadBuffer(16 << 10); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(conn); err != nil {
		t.Fatalf("hello: %v", err)
	}
	body, err := marshalBody(deliverOpen{Channel: testChannel, From: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frame{Type: ftOpenDeliver, Stream: 1, Body: body}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Second) // stall well past the server's write timeout

	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	for whole := 0; ; whole++ {
		f, err := readFrame(conn)
		if err == nil {
			if f.Type != ftMsg || f.Seq != uint64(whole+1) {
				t.Fatalf("frame %d: type %d seq %d", whole, f.Type, f.Seq)
			}
			continue
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			if whole == n {
				t.Fatal("every frame arrived: the stall never tripped the write timeout")
			}
			t.Fatalf("after %d whole frames the reader hung inside a torn frame: %v", whole, err)
		}
		return // the break is visible: EOF or a truncated frame
	}
}

// TestCleanClosesAreNotFrameErrors pins that closing streams and the
// client counts no frame error on either side: only bytes that fail to
// decode and writes that fail on a connection both sides hold open do.
func TestCleanClosesAreNotFrameErrors(t *testing.T) {
	node, _ := testNode(t, bigBlocks(3, 1<<10))
	srv, addr := listen(t, node, 0)
	c := dial(t, addr)
	clientBefore, serverBefore := frameErrsClient.Value(), frameErrsServer.Value()

	for i := 0; i < 5; i++ {
		s, err := c.Deliver(testChannel, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Recv(); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	if _, err := c.Endorse(peer.Proposal{ChannelID: testChannel}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	srv.Close() // waits for every handler, so the server is done writing

	if d := frameErrsClient.Value() - clientBefore; d != 0 {
		t.Errorf("client frame errors grew by %d on clean closes", d)
	}
	if d := frameErrsServer.Value() - serverBefore; d != 0 {
		t.Errorf("server frame errors grew by %d on clean closes", d)
	}
}

// TestCloseEndsOpenStreams pins that Client.Close ends every open stream
// with io.EOF and that the server then releases every History cursor.
func TestCloseEndsOpenStreams(t *testing.T) {
	node, h := testNode(t, bigBlocks(2, 1<<10))
	_, addr := listen(t, node, 0)
	c := dial(t, addr)

	const streams = 3
	ended := make(chan error, streams)
	for i := 0; i < streams; i++ {
		s, err := c.Deliver(testChannel, 1)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for {
				if _, err := s.Recv(); err != nil {
					ended <- err
					return
				}
			}
		}()
	}
	waitFor(t, "every cursor to open", func() bool { return h.Streams() == streams })
	c.Close()
	timeout := time.After(2 * time.Second)
	for i := 0; i < streams; i++ {
		select {
		case err := <-ended:
			if !errors.Is(err, io.EOF) {
				t.Fatalf("stream %d after Close: got %v, want io.EOF", i, err)
			}
		case <-timeout:
			t.Fatalf("only %d of %d streams ended within 2s of Close", i, streams)
		}
	}
	waitFor(t, "the server to release every cursor", func() bool { return h.Streams() == 0 })
}

// TestUnreadStreamDoesNotDelayOthers pins that a stream nobody reads,
// over blocks large enough to fill its socket buffers, holds up neither
// the unary calls of the same client nor a second stream.
func TestUnreadStreamDoesNotDelayOthers(t *testing.T) {
	const n = 64
	node, h := testNode(t, bigBlocks(n, 256<<10))
	_, addr := listen(t, node, 0)
	c := dial(t, addr)

	stuck, err := c.Deliver(testChannel, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Close()
	waitFor(t, "the unread stream's cursor", func() bool { return h.Streams() == 1 })

	// Well inside the server's 10s write timeout, so the stuck stream is
	// still connected throughout.
	start := time.Now()
	for i := 0; i < 10; i++ {
		if _, err := c.Endorse(peer.Proposal{ChannelID: testChannel}); err != nil {
			t.Fatal(err)
		}
		if err := c.Broadcast(&ledger.Transaction{ID: "x", ChannelID: testChannel}); err != nil {
			t.Fatal(err)
		}
	}
	// The second stream reads the last blocks, which sit behind everything
	// the unread stream was sent.
	live, err := c.Deliver(testChannel, n-3)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	for want := uint64(n - 3); want <= n; want++ {
		b, err := live.Recv()
		if err != nil {
			t.Fatalf("live stream at block %d: %v", want, err)
		}
		if b.Header.Number != want {
			t.Fatalf("live stream: block %d, want %d", b.Header.Number, want)
		}
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("calls and a second stream took %v beside an unread stream", d)
	}
}

// TestStalledConsumerResyncs pins the slow-consumer policy: a consumer
// that stops reading past the server's write timeout drains what was
// buffered, then gets a retryable error; it re-opens at its next block
// and reaches the tail, and the server holds no extra cursor.
func TestStalledConsumerResyncs(t *testing.T) {
	// Enough bytes to overflow the socket buffers while the consumer
	// stalls. The kernel wakes a blocked writer only once a good share of
	// its send buffer has drained, so the write timeout must leave a
	// reading consumer (slowed by -race) time to drain that much.
	const n = 256
	node, h := testNode(t, bigBlocks(n, 32<<10))
	_, addr := listen(t, node, time.Second)
	c := dial(t, addr)

	s, err := c.Deliver(testChannel, 1)
	if err != nil {
		t.Fatal(err)
	}
	next := uint64(1)
	recv := func(s transport.BlockStream) error {
		b, err := s.Recv()
		if err != nil {
			return err
		}
		if b.Header.Number != next {
			t.Fatalf("block %d, want %d", b.Header.Number, next)
		}
		next++
		return nil
	}
	time.Sleep(1500 * time.Millisecond) // stall past the write timeout
	var stalled error
	for next <= n && stalled == nil {
		stalled = recv(s)
	}
	s.Close()
	if stalled == nil {
		t.Fatal("every block arrived: the stall never tripped the write timeout")
	}
	if !transport.Retryable(stalled) {
		t.Fatalf("stalled consumer: got %v, want a retryable error", stalled)
	}

	s, err = c.Deliver(testChannel, next)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for next <= n {
		if err := recv(s); err != nil {
			t.Fatalf("re-opened stream at block %d: %v", next, err)
		}
	}
	waitFor(t, "only the re-opened cursor to remain", func() bool { return h.Streams() == 1 })
}
