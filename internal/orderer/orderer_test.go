package orderer

import (
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"

	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/transport"
)

func smallTx(id string) *ledger.Transaction {
	return &ledger.Transaction{ID: id, ChannelID: "ch1", Chaincode: "cc"}
}

func TestCutterCutsAtMaxMessages(t *testing.T) {
	c := NewCutter(Config{MaxMessageCount: 3, BatchTimeout: time.Hour})
	var cut []Batch
	for i := 0; i < 7; i++ {
		batches, err := c.Ordered(smallTx("t" + string(rune('0'+i))))
		if err != nil {
			t.Fatal(err)
		}
		cut = append(cut, batches...)
	}
	if len(cut) != 2 {
		t.Fatalf("cut %d batches, want 2", len(cut))
	}
	for _, b := range cut {
		if len(b.Transactions) != 3 || b.Reason != CutMaxMessages {
			t.Fatalf("batch = %d txs, reason %s", len(b.Transactions), b.Reason)
		}
	}
	if c.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", c.Pending())
	}
}

func TestCutterTimeoutCut(t *testing.T) {
	c := NewCutter(Config{MaxMessageCount: 100})
	if _, err := c.Ordered(smallTx("a")); err != nil {
		t.Fatal(err)
	}
	b := c.Cut(CutTimeout)
	if len(b.Transactions) != 1 || b.Reason != CutTimeout {
		t.Fatalf("batch = %+v", b)
	}
	if c.Pending() != 0 {
		t.Fatal("pending not cleared")
	}
	empty := c.Cut(CutTimeout)
	if len(empty.Transactions) != 0 {
		t.Fatal("cut of empty cutter returned transactions")
	}
}

func TestCutterPreferredBytes(t *testing.T) {
	// Transactions of ~N bytes; preferred limit forces cuts before count.
	tx := smallTx("x")
	size := tx.Size()
	c := NewCutter(Config{MaxMessageCount: 1000, PreferredMaxBytes: size*2 + 1, AbsoluteMaxBytes: size * 100})
	var batches []Batch
	for i := 0; i < 5; i++ {
		got, err := c.Ordered(smallTx("x"))
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, got...)
	}
	if len(batches) != 2 {
		t.Fatalf("batches = %d, want 2 (cut every 2 txs by bytes)", len(batches))
	}
	for _, b := range batches {
		if b.Reason != CutPreferredBytes {
			t.Fatalf("reason = %s", b.Reason)
		}
	}
}

func TestCutterOversizedTxGetsOwnBlock(t *testing.T) {
	small := smallTx("s")
	big := smallTx("big")
	big.Args = [][]byte{make([]byte, 4096)}
	c := NewCutter(Config{MaxMessageCount: 1000, PreferredMaxBytes: 1024, AbsoluteMaxBytes: 1 << 20})
	if _, err := c.Ordered(small); err != nil {
		t.Fatal(err)
	}
	batches, err := c.Ordered(big)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 {
		t.Fatalf("batches = %d, want 2 (flush + own block)", len(batches))
	}
	if batches[0].Reason != CutPreferredBytes || len(batches[0].Transactions) != 1 {
		t.Fatalf("first batch = %+v", batches[0])
	}
	if batches[1].Reason != CutOversizedTx || batches[1].Transactions[0].ID != "big" {
		t.Fatalf("second batch = %+v", batches[1])
	}
}

func TestCutterRejectsAbsoluteOversize(t *testing.T) {
	big := smallTx("big")
	big.Args = [][]byte{make([]byte, 4096)}
	c := NewCutter(Config{MaxMessageCount: 10, AbsoluteMaxBytes: 100, PreferredMaxBytes: 50})
	if _, err := c.Ordered(big); err == nil {
		t.Fatal("oversized tx accepted")
	}
}

// Property: the cutter never loses, duplicates or reorders transactions and
// never exceeds MaxMessageCount.
func TestCutterConservationProperty(t *testing.T) {
	f := func(nTx uint8, maxCount uint8) bool {
		n := int(nTx)%200 + 1
		mc := int(maxCount)%50 + 1
		c := NewCutter(Config{MaxMessageCount: mc, BatchTimeout: time.Hour})
		var out []*ledger.Transaction
		for i := 0; i < n; i++ {
			batches, err := c.Ordered(smallTx(itoa(i)))
			if err != nil {
				return false
			}
			for _, b := range batches {
				if len(b.Transactions) > mc {
					return false
				}
				out = append(out, b.Transactions...)
			}
		}
		final := c.Cut(CutFlush)
		out = append(out, final.Transactions...)
		if len(out) != n {
			return false
		}
		for i, tx := range out {
			if tx.ID != itoa(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func TestAssemblerChainsBlocks(t *testing.T) {
	chain := ledger.NewChain("ch1")
	a := NewAssembler(ledger.Genesis("ch1"))
	for i := 0; i < 3; i++ {
		block, err := a.Assemble(Batch{
			Transactions: []*ledger.Transaction{smallTx("t" + itoa(i))},
			Reason:       CutMaxMessages,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := chain.Append(block); err != nil {
			t.Fatalf("append block %d: %v", i, err)
		}
		if block.Metadata.CutReason != string(CutMaxMessages) {
			t.Fatalf("cut reason = %q", block.Metadata.CutReason)
		}
	}
	if err := chain.Verify(); err != nil {
		t.Fatalf("chain verify: %v", err)
	}
}

// newService starts a service over a fresh in-memory History, the block
// log the network wires it to.
func newService(cfg Config) (*Service, *transport.History) {
	h := transport.NewHistory(1)
	return NewService(cfg, ledger.Genesis("ch1"), h), h
}

// openStream opens a cursor into the log at block 1.
func openStream(t *testing.T, h *transport.History) transport.BlockStream {
	t.Helper()
	s, err := h.Stream(1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// broadcast submits transactions t0..t(n-1) one by one. It reports
// failures with t.Errorf, so it may run off the test goroutine.
func broadcast(t *testing.T, s *Service, n int) {
	for i := 0; i < n; i++ {
		if err := s.Broadcast(smallTx("t" + itoa(i))); err != nil {
			t.Errorf("broadcast %d: %v", i, err)
			return
		}
	}
}

// drain reads a stream until EOF; any other error fails the test.
func drain(t *testing.T, s transport.BlockStream) []*ledger.Block {
	var got []*ledger.Block
	for {
		b, err := s.Recv()
		if errors.Is(err, io.EOF) {
			return got
		}
		if err != nil {
			t.Errorf("recv after %d blocks: %v", len(got), err)
			return got
		}
		got = append(got, b)
	}
}

// checkSequence fails unless got is blocks 1..n, in order, carrying the
// transactions t0..t(txs-1) in order.
func checkSequence(t *testing.T, got []*ledger.Block, n, txs int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("stream delivered %d blocks, want %d", len(got), n)
	}
	k := 0
	for i, b := range got {
		if b.Header.Number != uint64(i+1) {
			t.Fatalf("block %d delivered as number %d", i+1, b.Header.Number)
		}
		for _, tx := range b.Transactions {
			if tx.ID != "t"+itoa(k) {
				t.Fatalf("block %d: tx %q, want t%d", b.Header.Number, tx.ID, k)
			}
			k++
		}
	}
	if k != txs {
		t.Fatalf("stream carried %d transactions, want %d", k, txs)
	}
}

func TestServiceCutsBySize(t *testing.T) {
	s, h := newService(Config{MaxMessageCount: 2, BatchTimeout: time.Hour})
	broadcast(t, s, 4)
	s.Stop()
	got := drain(t, openStream(t, h))
	checkSequence(t, got, 2, 4)
	if len(got[0].Transactions) != 2 {
		t.Fatalf("block sizes %d, %d", len(got[0].Transactions), len(got[1].Transactions))
	}
}

func TestServiceTimeoutCut(t *testing.T) {
	s, h := newService(Config{MaxMessageCount: 100, BatchTimeout: 30 * time.Millisecond})
	defer s.Stop()
	deliver := openStream(t, h)
	if err := s.Broadcast(smallTx("only")); err != nil {
		t.Fatal(err)
	}
	within(t, 2*time.Second, "waiting for the timeout block", func() {
		b, err := deliver.Recv()
		if err != nil || len(b.Transactions) != 1 || b.Metadata.CutReason != string(CutTimeout) {
			t.Errorf("timeout block = %+v, err %v", b, err)
		}
	})
}

func TestServiceStopFlushesAndCloses(t *testing.T) {
	s, h := newService(Config{MaxMessageCount: 100, BatchTimeout: time.Hour})
	deliver := openStream(t, h)
	if err := s.Broadcast(smallTx("pending")); err != nil {
		t.Fatal(err)
	}
	go s.Stop()
	if got := drain(t, deliver); len(got) != 1 || len(got[0].Transactions) != 1 {
		t.Fatalf("stop delivered %d blocks, want the one flush block", len(got))
	}
	if err := s.Broadcast(smallTx("late")); err == nil {
		t.Fatal("broadcast after stop accepted")
	}
}

// TestBroadcastReturnsLogError: a block the log refuses surfaces from the
// Broadcast that cut it.
func TestBroadcastReturnsLogError(t *testing.T) {
	h := transport.NewHistory(2) // expects block 2; the service cuts block 1
	s := NewService(Config{MaxMessageCount: 1, BatchTimeout: time.Hour}, ledger.Genesis("ch1"), h)
	defer s.Stop()
	if err := s.Broadcast(smallTx("t0")); err == nil {
		t.Fatal("broadcast succeeded although the log refused its block")
	}
}

// within fails the test if fn does not return in the given time — the
// shape of every fan-out regression below: an earlier implementation
// deadlocked (fan-out sent into bounded subscriber channels while holding
// the service mutex), so "returns at all" is the property under test.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v (fan-out wedged)", what, d)
	}
}

// TestBroadcastSurvivesStuckSubscriber is the deadlock regression: a
// stream that is opened and never read must not wedge Broadcast, Flush or
// Stop, and a healthy stream on the same log must receive every block in
// order and then EOF. The 200 single-transaction blocks far exceed the
// 64-slot subscriber buffer that once filled and blocked emit under the
// mutex.
func TestBroadcastSurvivesStuckSubscriber(t *testing.T) {
	s, h := newService(Config{MaxMessageCount: 1, BatchTimeout: time.Hour})
	stuck := openStream(t, h) // never read
	defer stuck.Close()
	healthy := openStream(t, h)

	const blocks = 200
	received := make(chan []*ledger.Block, 1)
	go func() { received <- drain(t, healthy) }()
	within(t, 10*time.Second, "Broadcast x200", func() { broadcast(t, s, blocks) })
	within(t, 5*time.Second, "Flush", s.Flush)
	within(t, 5*time.Second, "Stop", s.Stop)
	checkSequence(t, <-received, blocks, blocks)
}

// TestStopWithNeverReadingSubscriber: Stop once flushed pending
// transactions into a subscriber's full buffer while holding the mutex,
// blocking forever. It must return while a stream sits unread — and the
// unread stream still holds every block, the final flush included.
func TestStopWithNeverReadingSubscriber(t *testing.T) {
	s, h := newService(Config{MaxMessageCount: 2, BatchTimeout: time.Hour})
	unread := openStream(t, h)
	// 201 transactions: 100 full blocks and one left pending, so Stop's
	// flush path also runs.
	within(t, 10*time.Second, "Broadcast x201", func() { broadcast(t, s, 201) })
	within(t, 5*time.Second, "Stop", s.Stop)
	if err := s.Broadcast(smallTx("late")); err == nil {
		t.Fatal("broadcast after stop accepted")
	}
	checkSequence(t, drain(t, unread), 101, 201)
}

// TestSlowSubscriberStillGetsEverything: a reader that lags (reads with a
// delay after many blocks were cut) receives the full ordered stream and a
// clean EOF — lag leaves blocks in the log, it never drops them.
func TestSlowSubscriberStillGetsEverything(t *testing.T) {
	s, h := newService(Config{MaxMessageCount: 1, BatchTimeout: time.Hour})
	slow := openStream(t, h)
	const blocks = 150
	broadcast(t, s, blocks)
	go s.Stop()
	var got []*ledger.Block
	for {
		b, err := slow.Recv()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b)
		if len(got)%50 == 0 {
			time.Sleep(10 * time.Millisecond) // fall behind on purpose
		}
	}
	checkSequence(t, got, blocks, blocks)
}

// TestStreamAfterStopYieldsRetainedThenEOF: a reader that arrives after
// Stop still gets every block the service cut, then EOF — never a stream
// that waits forever.
func TestStreamAfterStopYieldsRetainedThenEOF(t *testing.T) {
	s, h := newService(Config{MaxMessageCount: 1, BatchTimeout: time.Hour})
	broadcast(t, s, 3)
	s.Stop()
	late := openStream(t, h)
	var got []*ledger.Block
	within(t, 2*time.Second, "reading a stopped log", func() { got = drain(t, late) })
	checkSequence(t, got, 3, 3)
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(25)
	if cfg.MaxMessageCount != 25 || cfg.BatchTimeout != 2*time.Second {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.AbsoluteMaxBytes != 128*1024*1024 {
		t.Fatalf("abs bytes = %d", cfg.AbsoluteMaxBytes)
	}
}
