package client

import (
	"errors"
	"sync"
	"testing"
	"time"

	"fabriccrdt/internal/cryptoid"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/peer"
	"fabriccrdt/internal/rwset"
)

// fakeEndorser returns a canned response or error.
type fakeEndorser struct {
	name string
	resp peer.ProposalResponse
	err  error
}

func (f *fakeEndorser) Endorse(peer.Proposal) (peer.ProposalResponse, error) {
	return f.resp, f.err
}
func (f *fakeEndorser) MSPID() string { return "Org1" }
func (f *fakeEndorser) Name() string  { return f.name }

// fakeOrderer records broadcast transactions. It is also the client's
// Committer: when verdict is set, each broadcast commits at once with that
// code to the waits registered for it.
type fakeOrderer struct {
	mu      sync.Mutex
	txs     []*ledger.Transaction
	err     error
	verdict ledger.ValidationCode
	waits   map[string][]chan peer.CommitEvent
}

func (f *fakeOrderer) Broadcast(tx *ledger.Transaction) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return f.err
	}
	f.txs = append(f.txs, tx)
	if f.verdict != ledger.CodeNotValidated {
		key := tx.ChannelID + "/" + tx.ID
		for _, ch := range f.waits[key] {
			ch <- peer.CommitEvent{TxID: tx.ID, ChannelID: tx.ChannelID, BlockNum: 1, Code: f.verdict}
		}
		delete(f.waits, key)
	}
	return nil
}

func (f *fakeOrderer) AwaitCommit(channelID, txID string) (<-chan peer.CommitEvent, func(), error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.waits == nil {
		f.waits = make(map[string][]chan peer.CommitEvent)
	}
	key := channelID + "/" + txID
	ch := make(chan peer.CommitEvent, 1)
	f.waits[key] = append(f.waits[key], ch)
	return ch, func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		delete(f.waits, key)
	}, nil
}

// pending counts the registered waits not yet resolved or cancelled.
func (f *fakeOrderer) pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.waits)
}

// newTestClient builds a client whose orderer is also its committer.
func newTestClient(t *testing.T, channelID string, ord *fakeOrderer, endorsers ...Endorser) *Client {
	t.Helper()
	c := New(testSigner(t), channelID, endorsers, ord)
	c.AttachCommitter(ord)
	return c
}

func testSigner(t *testing.T) *cryptoid.Signer {
	t.Helper()
	ca, err := cryptoid.NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	s, err := ca.Issue("client0")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func respWith(rw rwset.ReadWriteSet) peer.ProposalResponse {
	return peer.ProposalResponse{Endorser: []byte("e"), RWSet: rw, Signature: []byte("s")}
}

func TestNewTxIDUnique(t *testing.T) {
	c := New(testSigner(t), "ch", nil, &fakeOrderer{})
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := c.NewTxID()
		if seen[id] {
			t.Fatalf("duplicate tx ID %s", id)
		}
		seen[id] = true
	}
}

func TestSubmitNoEndorsers(t *testing.T) {
	c := New(testSigner(t), "ch", nil, &fakeOrderer{})
	if _, err := c.Prepare("cc"); !errors.Is(err, ErrNoEndorsers) {
		t.Fatalf("err = %v, want ErrNoEndorsers", err)
	}
}

func TestSubmitBroadcasts(t *testing.T) {
	ord := &fakeOrderer{verdict: ledger.CodeValid}
	rw := rwset.ReadWriteSet{Writes: []rwset.Write{{Key: "k", Value: []byte("v")}}}
	c := newTestClient(t, "ch", ord, &fakeEndorser{name: "p0", resp: respWith(rw)})
	code, err := c.SubmitAndWait(time.Second, "cc", []byte("arg"))
	if err != nil || code != ledger.CodeValid {
		t.Fatalf("code = %v, err = %v", code, err)
	}
	if len(ord.txs) != 1 || ord.txs[0].ChannelID != "ch" {
		t.Fatalf("broadcast txs = %v", ord.txs)
	}
	if ord.txs[0].SubmitUnixNano == 0 {
		t.Fatal("submit time not stamped")
	}
	if len(ord.txs[0].Endorsements) != 1 {
		t.Fatal("endorsement missing")
	}
	if n := ord.pending(); n != 0 {
		t.Fatalf("%d waits left behind", n)
	}
}

func TestSubmitEndorserMismatch(t *testing.T) {
	rw1 := rwset.ReadWriteSet{Writes: []rwset.Write{{Key: "k", Value: []byte("v1")}}}
	rw2 := rwset.ReadWriteSet{Writes: []rwset.Write{{Key: "k", Value: []byte("v2")}}}
	c := New(testSigner(t), "ch", []Endorser{
		&fakeEndorser{name: "p0", resp: respWith(rw1)},
		&fakeEndorser{name: "p1", resp: respWith(rw2)},
	}, &fakeOrderer{})
	if _, err := c.Prepare("cc"); !errors.Is(err, ErrEndorseMismatch) {
		t.Fatalf("err = %v, want ErrEndorseMismatch", err)
	}
}

func TestSubmitToleratesPartialEndorserFailure(t *testing.T) {
	rw := rwset.ReadWriteSet{Writes: []rwset.Write{{Key: "k", Value: []byte("v")}}}
	c := New(testSigner(t), "ch", []Endorser{
		&fakeEndorser{name: "p0", err: errors.New("down")},
		&fakeEndorser{name: "p1", resp: respWith(rw)},
	}, &fakeOrderer{})
	if _, err := c.Prepare("cc"); err != nil {
		t.Fatalf("prepare with one healthy endorser: %v", err)
	}
}

func TestSubmitAllEndorsersFail(t *testing.T) {
	c := New(testSigner(t), "ch", []Endorser{
		&fakeEndorser{name: "p0", err: errors.New("down")},
	}, &fakeOrderer{})
	if _, err := c.Prepare("cc"); err == nil {
		t.Fatal("want error when all endorsers fail")
	}
}

func TestSubmitAndWaitRequiresCommitter(t *testing.T) {
	ord := &fakeOrderer{verdict: ledger.CodeValid}
	c := New(testSigner(t), "ch", []Endorser{&fakeEndorser{name: "p", resp: respWith(rwset.ReadWriteSet{})}}, ord)
	if _, err := c.SubmitAndWait(time.Second, "cc"); !errors.Is(err, ErrNoCommitter) {
		t.Fatalf("err = %v, want ErrNoCommitter", err)
	}
	if len(ord.txs) != 0 {
		t.Fatal("broadcast without a committer to learn the outcome from")
	}
}

func TestSubmitAndWaitTimeout(t *testing.T) {
	ord := &fakeOrderer{} // never commits
	c := newTestClient(t, "ch", ord, &fakeEndorser{name: "p", resp: respWith(rwset.ReadWriteSet{})})
	_, err := c.SubmitAndWait(20*time.Millisecond, "cc")
	if !errors.Is(err, ErrCommitTimeout) {
		t.Fatalf("err = %v, want ErrCommitTimeout", err)
	}
	if n := ord.pending(); n != 0 {
		t.Fatalf("%d waits left behind after the timeout", n)
	}
}

func TestSubmitAndWaitFailureCode(t *testing.T) {
	ord := &fakeOrderer{verdict: ledger.CodeMVCCConflict}
	c := newTestClient(t, "ch", ord, &fakeEndorser{name: "p", resp: respWith(rwset.ReadWriteSet{})})
	code, err := c.SubmitAndWait(5*time.Second, "cc")
	if !errors.Is(err, ErrTxFailed) || code != ledger.CodeMVCCConflict {
		t.Fatalf("code = %v, err = %v", code, err)
	}
}

// TestSubmitAndWaitCommitterClosed: a committer that shuts down before the
// commit releases the wait at once — an error, not a timeout.
func TestSubmitAndWaitCommitterClosed(t *testing.T) {
	c := New(testSigner(t), "ch", []Endorser{&fakeEndorser{name: "p", resp: respWith(rwset.ReadWriteSet{})}}, &fakeOrderer{})
	c.AttachCommitter(closedCommitter{})
	_, err := c.SubmitAndWait(time.Minute, "cc")
	if err == nil || errors.Is(err, ErrCommitTimeout) {
		t.Fatalf("err = %v, want a committer-closed error", err)
	}
}

// closedCommitter is a committer that has already shut down.
type closedCommitter struct{}

func (closedCommitter) AwaitCommit(string, string) (<-chan peer.CommitEvent, func(), error) {
	ch := make(chan peer.CommitEvent)
	close(ch)
	return ch, func() {}, nil
}

func TestSubmitBroadcastError(t *testing.T) {
	ord := &fakeOrderer{err: errors.New("stopped")}
	c := newTestClient(t, "ch", ord, &fakeEndorser{name: "p", resp: respWith(rwset.ReadWriteSet{})})
	if _, err := c.SubmitAndWait(time.Minute, "cc"); err == nil || errors.Is(err, ErrCommitTimeout) {
		t.Fatalf("err = %v, want the broadcast error", err)
	}
	if n := ord.pending(); n != 0 {
		t.Fatalf("%d waits left behind after a broadcast error", n)
	}
}

// TestDefaultChannelClientAdoptsResolvedChannel: a client constructed with
// an empty channel ID must assemble its transactions with the channel the
// endorsers resolved (ProposalResponse.ChannelID) — an empty ChannelID in
// the envelope is rejected at commit — and wait on that channel.
func TestDefaultChannelClientAdoptsResolvedChannel(t *testing.T) {
	ord := &fakeOrderer{verdict: ledger.CodeValid}
	resp := respWith(rwset.ReadWriteSet{})
	resp.ChannelID = "channel1"
	c := newTestClient(t, "", ord, &fakeEndorser{name: "p0", resp: resp})
	if _, err := c.SubmitAndWait(time.Second, "cc", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := ord.txs[0].ChannelID; got != "channel1" {
		t.Fatalf("tx channel = %q, want resolved channel1", got)
	}
	// Endorsers resolving to different channels is a mismatch.
	resp2 := respWith(rwset.ReadWriteSet{})
	resp2.ChannelID = "channel2"
	c2 := New(testSigner(t), "", []Endorser{
		&fakeEndorser{name: "p0", resp: resp},
		&fakeEndorser{name: "p1", resp: resp2},
	}, ord)
	if _, err := c2.Prepare("cc", []byte("x")); err == nil {
		t.Fatal("diverging resolved channels accepted")
	}
}
