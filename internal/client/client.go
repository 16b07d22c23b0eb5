// Package client implements the application SDK: it drives the
// execute-order-validate lifecycle on behalf of an application (paper §2.1,
// Figure 1) — creating proposals, collecting and cross-checking
// endorsements, assembling the transaction envelope, submitting it for
// ordering, and waiting for the commit event. The wait is registered with
// the committing peer (Committer) before the broadcast, so the client runs
// no goroutine of its own.
package client

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fabriccrdt/internal/cryptoid"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/obs"
	"fabriccrdt/internal/peer"
	"fabriccrdt/internal/rwset"
)

// Endorser is the peer surface the client needs for the execution phase.
type Endorser interface {
	Endorse(prop peer.Proposal) (peer.ProposalResponse, error)
	MSPID() string
	Name() string
}

// Broadcaster is the ordering service surface the client needs.
type Broadcaster interface {
	Broadcast(tx *ledger.Transaction) error
}

// Committer is the surface SubmitAndWait learns commit outcomes from —
// satisfied by *peer.Peer: AwaitCommit registers a wait for one
// transaction on one channel, returning a channel that receives its event
// (closed without one if the committer shuts down) and a cancel func.
type Committer interface {
	AwaitCommit(channelID, txID string) (<-chan peer.CommitEvent, func(), error)
}

// Client errors.
var (
	ErrNoEndorsers     = errors.New("client: no endorsers configured")
	ErrEndorseMismatch = errors.New("client: endorsers returned different read/write sets")
	ErrCommitTimeout   = errors.New("client: timed out waiting for commit")
	ErrTxFailed        = errors.New("client: transaction failed validation")
	ErrNoCommitter     = errors.New("client: no committer attached")
)

// Client submits transactions on behalf of one identity.
type Client struct {
	signer    *cryptoid.Signer
	channelID string
	endorsers []Endorser
	orderer   Broadcaster

	nonce atomic.Uint64
	// txSalt makes transaction IDs unique per client *instance*: two
	// processes (or one restarted process) recreating a client with the
	// same identity must not re-derive the IDs of already-committed
	// transactions — peers durably screen duplicates. Mirrors the random
	// nonce Fabric clients put into every proposal.
	txSalt string

	committer Committer
}

// New creates a client for the given channel submitting through the given
// endorsers and orderer.
func New(signer *cryptoid.Signer, channelID string, endorsers []Endorser, orderer Broadcaster) *Client {
	var salt [8]byte
	if _, err := rand.Read(salt[:]); err != nil {
		// crypto/rand is effectively infallible; fall back to a timestamp
		// rather than silently reusing a fixed salt.
		binary.LittleEndian.PutUint64(salt[:], uint64(time.Now().UnixNano()))
	}
	return &Client{
		signer:    signer,
		channelID: channelID,
		endorsers: endorsers,
		orderer:   orderer,
		txSalt:    hex.EncodeToString(salt[:]),
	}
}

// ChannelID returns the channel this client submits on.
func (c *Client) ChannelID() string { return c.channelID }

// AttachCommitter names the peer whose commits SubmitAndWait waits on.
// Call once, before submitting.
func (c *Client) AttachCommitter(cm Committer) { c.committer = cm }

// NewTxID derives a unique transaction ID from the client identity, the
// instance salt and a monotonic nonce, as Fabric does from (creator,
// random nonce).
func (c *Client) NewTxID() string {
	n := c.nonce.Add(1)
	h := sha256.Sum256([]byte(fmt.Sprintf("%s/%s/%s/%d", c.signer.MSPID, c.signer.Name, c.txSalt, n)))
	return hex.EncodeToString(h[:16])
}

// Prepare runs the execution phase only: it endorses one invocation across
// the client's endorsers and assembles the signed, submission-stamped
// envelope WITHOUT broadcasting it. Callers hand the envelope to whatever
// ordering path they use — the local orderer, or a gateway's Submit stream
// (transport.Transport.Submit), which broadcasts and waits for the commit
// event server-side.
func (c *Client) Prepare(chaincodeName string, args ...[]byte) (*ledger.Transaction, error) {
	tx, err := c.prepare(chaincodeName, args)
	if err != nil {
		return nil, err
	}
	tx.SubmitUnixNano = time.Now().UnixNano()
	return tx, nil
}

// SubmitAndWait runs execution + ordering for one invocation and blocks
// until the attached committer commits it (or timeout). It returns the
// validation code; a non-committed code is also an ErrTxFailed error.
func (c *Client) SubmitAndWait(timeout time.Duration, chaincodeName string, args ...[]byte) (ledger.ValidationCode, error) {
	if c.committer == nil {
		return ledger.CodeNotValidated, ErrNoCommitter
	}
	tx, err := c.prepare(chaincodeName, args)
	if err != nil {
		return ledger.CodeNotValidated, err
	}
	wait, cancel, err := c.committer.AwaitCommit(tx.ChannelID, tx.ID)
	if err != nil {
		return ledger.CodeNotValidated, err
	}
	defer cancel()
	tx.SubmitUnixNano = time.Now().UnixNano()
	if err := c.orderer.Broadcast(tx); err != nil {
		return ledger.CodeNotValidated, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case ev, ok := <-wait:
		switch {
		case !ok:
			return ledger.CodeNotValidated, fmt.Errorf("client: committer closed before %s committed", tx.ID)
		case !ev.Code.Committed():
			return ev.Code, fmt.Errorf("%w: %s (%s)", ErrTxFailed, tx.ID, ev.Code)
		}
		return ev.Code, nil
	case <-timer.C:
		return ledger.CodeNotValidated, fmt.Errorf("%w: %s", ErrCommitTimeout, tx.ID)
	}
}

// prepare runs the execution/endorsement phase and assembles the envelope.
func (c *Client) prepare(chaincodeName string, args [][]byte) (*ledger.Transaction, error) {
	if len(c.endorsers) == 0 {
		return nil, ErrNoEndorsers
	}
	creator, err := c.signer.Identity.Marshal()
	if err != nil {
		return nil, err
	}
	// Tracing: the client mints the trace ID here, at the very start of the
	// transaction lifecycle; it rides the proposal to endorsers and the
	// envelope through ordering to every committing peer. Zero cost when
	// tracing is off — no ID is minted and every downstream span site
	// no-ops on the empty string.
	var traceID string
	start := time.Now()
	if obs.TracingEnabled() {
		traceID = obs.NewTraceID()
	}
	prop := peer.Proposal{
		TxID:      c.NewTxID(),
		ChannelID: c.channelID,
		Chaincode: chaincodeName,
		Args:      args,
		Creator:   creator,
		TraceID:   traceID,
	}

	// Execution phase: submit the proposal to all endorsers in parallel
	// (paper Figure 1, step 1) and collect signed responses (step 2).
	type outcome struct {
		resp peer.ProposalResponse
		err  error
	}
	results := make([]outcome, len(c.endorsers))
	var wg sync.WaitGroup
	for i, e := range c.endorsers {
		wg.Add(1)
		go func(i int, e Endorser) {
			defer wg.Done()
			resp, err := e.Endorse(prop)
			results[i] = outcome{resp: resp, err: err}
		}(i, e)
	}
	wg.Wait()

	var (
		responses []peer.ProposalResponse
		firstErr  error
	)
	for i, r := range results {
		if r.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("endorser %s: %w", c.endorsers[i].Name(), r.err)
			}
			continue
		}
		responses = append(responses, r.resp)
	}
	if len(responses) == 0 {
		return nil, fmt.Errorf("client: all endorsements failed: %w", firstErr)
	}

	// All endorsers must agree on the simulation result; a mismatch means
	// non-deterministic chaincode or divergent state. They must also agree
	// on the resolved channel: endorsers normalize an empty proposal
	// ChannelID to their default channel and sign over the resolved ID, so
	// the envelope must carry it — a transaction naming any other channel
	// (empty included) is rejected at commit (WRONG_CHANNEL).
	var agreed rwset.ReadWriteSet
	channelID := prop.ChannelID
	for i, resp := range responses {
		if i == 0 {
			agreed = resp.RWSet
		} else if !agreed.Equal(resp.RWSet) {
			return nil, ErrEndorseMismatch
		}
		switch {
		case resp.ChannelID == "":
			// An endorser that does not echo a channel (test fakes) adds
			// no constraint.
		case channelID == "":
			channelID = resp.ChannelID
		case resp.ChannelID != channelID:
			return nil, ErrEndorseMismatch
		}
	}

	tx := &ledger.Transaction{
		ID:        prop.TxID,
		ChannelID: channelID,
		Chaincode: prop.Chaincode,
		Creator:   creator,
		Args:      args,
		RWSet:     agreed,
		TraceID:   traceID,
	}
	for _, resp := range responses {
		tx.Endorsements = append(tx.Endorsements, ledger.Endorsement{
			Endorser:  resp.Endorser,
			Signature: resp.Signature,
		})
	}
	obs.Trace(traceID, "client.prepare", start,
		"client", c.signer.Name, "txID", tx.ID, "channel", channelID,
		"chaincode", chaincodeName)
	return tx, nil
}
