package transport_test

import (
	"testing"
	"time"

	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/transport"
)

// blockingStore is a block store whose Get waits until release closes —
// a catch-up reader stuck on a slow disk read.
type blockingStore struct {
	*ledger.MemStore
	reading chan struct{}
	release chan struct{}
}

func (s *blockingStore) Get(n uint64) (*ledger.Block, error) {
	s.reading <- struct{}{}
	<-s.release
	return s.MemStore.Get(n)
}

// TestHistoryReadDoesNotStallWriters: while a stream's store read is
// blocked, Append and Advance still return — the History's mutex is not
// held across the read, so the orderer's emit never waits on a reader.
func TestHistoryReadDoesNotStallWriters(t *testing.T) {
	store := &blockingStore{MemStore: ledger.NewMemStore(0), reading: make(chan struct{}), release: make(chan struct{})}
	for n := uint64(0); n < 2; n++ {
		if err := store.Append(&ledger.Block{Header: ledger.BlockHeader{Number: n}}); err != nil {
			t.Fatal(err)
		}
	}
	h := transport.NewStoreHistory(store)
	stream, err := h.Stream(1)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		b, err := stream.Recv()
		if err == nil && b.Header.Number != 1 {
			t.Errorf("Recv = block %d, want 1", b.Header.Number)
		}
		got <- err
	}()
	<-store.reading // the reader is inside Get

	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := h.Append(&ledger.Block{Header: ledger.BlockHeader{Number: 2}}); err != nil {
			t.Errorf("Append: %v", err)
		}
		h.Advance(2)
		if h.Height() != 2 || h.MaxLag() != 1 {
			t.Errorf("height %d, lag %d; want 2, 1", h.Height(), h.MaxLag())
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Append/Advance blocked behind a reader's store read")
	}

	close(store.release)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	stream.Close()
	h.Close()
}
