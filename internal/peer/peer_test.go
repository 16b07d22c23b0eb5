package peer

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"fabriccrdt/internal/chaincode"
	"fabriccrdt/internal/cryptoid"
	"fabriccrdt/internal/endorse"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/orderer"
)

// testEnv wires one org CA, an MSP, one peer and a client signer.
type testEnv struct {
	ca     *cryptoid.CA
	msp    *cryptoid.MSP
	peer   *Peer
	client *cryptoid.Signer
}

func newEnv(t *testing.T, enableCRDT bool) *testEnv {
	t.Helper()
	return newEnvWithCommitter(t, enableCRDT, CommitterConfig{})
}

// newEnvWithCommitter is newEnv with an explicit committer configuration
// (backend selection, worker pool).
func newEnvWithCommitter(t *testing.T, enableCRDT bool, committer CommitterConfig) *testEnv {
	t.Helper()
	return newEnvChannels(t, enableCRDT, committer, "ch1")
}

// newEnvChannels is newEnvWithCommitter with the peer joining an explicit
// channel list (the first is the default channel).
func newEnvChannels(t *testing.T, enableCRDT bool, committer CommitterConfig, channels ...string) *testEnv {
	t.Helper()
	ca, err := cryptoid.NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	msp := cryptoid.NewMSP()
	msp.AddOrg("Org1", ca.PublicKey())
	peerSigner, err := ca.Issue("Org1.peer0")
	if err != nil {
		t.Fatal(err)
	}
	clientSigner, err := ca.Issue("client0")
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Name:       "Org1.peer0",
		MSPID:      "Org1",
		Channels:   channels,
		EnableCRDT: enableCRDT,
		Committer:  committer,
	}, peerSigner, msp)
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{ca: ca, msp: msp, peer: p, client: clientSigner}
}

// iotChaincode reads a device key and appends a reading via PutCRDT.
func iotChaincode() chaincode.Chaincode {
	return chaincode.Func(func(stub chaincode.Stub) error {
		_, params := stub.Function()
		device, reading := params[0], params[1]
		if _, err := stub.GetState(device); err != nil {
			return err
		}
		delta, err := json.Marshal(map[string]any{
			"tempReadings": []any{map[string]any{"temperature": reading}},
		})
		if err != nil {
			return err
		}
		return stub.PutCRDT(device, delta)
	})
}

func (e *testEnv) install(t *testing.T, name string, cc chaincode.Chaincode) {
	t.Helper()
	e.peer.InstallChaincode(name, cc, endorse.MustParse("'Org1.member'"))
}

// endorseTx simulates one proposal on the peer and assembles the envelope.
func (e *testEnv) endorseTx(t *testing.T, txID, ccName string, args ...string) *ledger.Transaction {
	t.Helper()
	return e.endorseTxOn(t, "ch1", txID, ccName, args...)
}

// endorseTxOn is endorseTx against an explicit channel.
func (e *testEnv) endorseTxOn(t *testing.T, channelID, txID, ccName string, args ...string) *ledger.Transaction {
	t.Helper()
	creator, err := e.client.Identity.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rawArgs := make([][]byte, len(args))
	for i, a := range args {
		rawArgs[i] = []byte(a)
	}
	resp, err := e.peer.Endorse(Proposal{
		TxID: txID, ChannelID: channelID, Chaincode: ccName, Args: rawArgs, Creator: creator,
	})
	if err != nil {
		t.Fatalf("endorse %s on %s: %v", txID, channelID, err)
	}
	return &ledger.Transaction{
		ID:           txID,
		ChannelID:    channelID,
		Chaincode:    ccName,
		Creator:      creator,
		Args:         rawArgs,
		RWSet:        resp.RWSet,
		Endorsements: []ledger.Endorsement{{Endorser: resp.Endorser, Signature: resp.Signature}},
	}
}

// makeBlock assembles a hash-chained block after the peer's default
// channel's chain resume point (its last block, or its checkpoint when
// restored from disk).
func makeBlock(t *testing.T, p *Peer, txs []*ledger.Transaction) *ledger.Block {
	t.Helper()
	return makeBlockOn(t, p, "", txs)
}

// makeBlockOn is makeBlock against an explicit channel.
func makeBlockOn(t *testing.T, p *Peer, channelID string, txs []*ledger.Transaction) *ledger.Block {
	t.Helper()
	chain := p.Chain()
	if channelID != "" {
		var err error
		chain, err = p.ChainOn(channelID)
		if err != nil {
			t.Fatal(err)
		}
	}
	num, hash := chain.LastRef()
	a := orderer.NewAssemblerAt(num, hash)
	block, err := a.Assemble(orderer.Batch{Transactions: txs, Reason: orderer.CutMaxMessages})
	if err != nil {
		t.Fatal(err)
	}
	return block
}

func TestEndorseDoesNotTouchState(t *testing.T) {
	env := newEnv(t, true)
	env.install(t, "iot", iotChaincode())
	env.endorseTx(t, "tx1", "iot", "record", "dev1", "21")
	if env.peer.DB().KeyCount() != 0 {
		t.Fatal("endorsement modified world state")
	}
}

func TestEndorseRejectsUnknownChaincode(t *testing.T) {
	env := newEnv(t, true)
	creator, _ := env.client.Identity.Marshal()
	_, err := env.peer.Endorse(Proposal{TxID: "t", Chaincode: "nope", Creator: creator})
	if err == nil {
		t.Fatal("unknown chaincode endorsed")
	}
}

func TestEndorseRejectsBadCreator(t *testing.T) {
	env := newEnv(t, true)
	env.install(t, "iot", iotChaincode())
	if _, err := env.peer.Endorse(Proposal{TxID: "t", Chaincode: "iot", Creator: []byte("junk")}); err == nil {
		t.Fatal("junk creator endorsed")
	}
	// An identity from an untrusted CA must also fail.
	foreignCA, err := cryptoid.NewCA("Mallory")
	if err != nil {
		t.Fatal(err)
	}
	mallory, err := foreignCA.Issue("m")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := mallory.Identity.Marshal()
	if _, err := env.peer.Endorse(Proposal{TxID: "t", Chaincode: "iot", Creator: raw}); err == nil {
		t.Fatal("untrusted creator endorsed")
	}
}

func TestEndorseFailsWhenChaincodeErrors(t *testing.T) {
	env := newEnv(t, true)
	env.install(t, "bad", chaincode.Func(func(chaincode.Stub) error {
		return fmt.Errorf("boom")
	}))
	creator, _ := env.client.Identity.Marshal()
	if _, err := env.peer.Endorse(Proposal{TxID: "t", Chaincode: "bad", Creator: creator}); err == nil {
		t.Fatal("failing chaincode endorsed")
	}
}

func TestStockPeerDropsCRDTFlag(t *testing.T) {
	env := newEnv(t, false) // stock Fabric
	env.install(t, "iot", iotChaincode())
	tx := env.endorseTx(t, "tx1", "iot", "record", "dev1", "21")
	if tx.RWSet.HasCRDTWrites() {
		t.Fatal("stock peer kept the CRDT flag")
	}
}

func TestCommitCRDTBlockMergesAll(t *testing.T) {
	env := newEnv(t, true)
	env.install(t, "iot", iotChaincode())
	// Three conflicting txs (same key, same snapshot) in one block.
	txs := []*ledger.Transaction{
		env.endorseTx(t, "tx1", "iot", "record", "dev1", "15"),
		env.endorseTx(t, "tx2", "iot", "record", "dev1", "20"),
		env.endorseTx(t, "tx3", "iot", "record", "dev1", "25"),
	}
	block := makeBlock(t, env.peer, txs)
	res, err := env.peer.CommitBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	for i, code := range res.Codes {
		if code != ledger.CodeCRDTMerged {
			t.Fatalf("tx%d code = %v, want CRDT_MERGED", i+1, code)
		}
	}
	vv, ok := env.peer.DB().Get("dev1")
	if !ok {
		t.Fatal("dev1 not committed")
	}
	var doc map[string]any
	if err := json.Unmarshal(vv.Value, &doc); err != nil {
		t.Fatal(err)
	}
	want := []any{
		map[string]any{"temperature": "15"},
		map[string]any{"temperature": "20"},
		map[string]any{"temperature": "25"},
	}
	if !reflect.DeepEqual(doc["tempReadings"], want) {
		t.Fatalf("merged doc = %v, want %v", doc["tempReadings"], want)
	}
}

func TestCommitStockBlockFailsConflicts(t *testing.T) {
	env := newEnv(t, false)
	env.install(t, "iot", iotChaincode())
	txs := []*ledger.Transaction{
		env.endorseTx(t, "tx1", "iot", "record", "dev1", "15"),
		env.endorseTx(t, "tx2", "iot", "record", "dev1", "20"),
		env.endorseTx(t, "tx3", "iot", "record", "dev1", "25"),
	}
	block := makeBlock(t, env.peer, txs)
	res, err := env.peer.CommitBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	want := []ledger.ValidationCode{ledger.CodeValid, ledger.CodeMVCCConflict, ledger.CodeMVCCConflict}
	if !reflect.DeepEqual(res.Codes, want) {
		t.Fatalf("codes = %v, want %v (only the first conflicting tx commits on Fabric)", res.Codes, want)
	}
	if res.CommittedTx != 1 {
		t.Fatalf("committed = %d, want 1", res.CommittedTx)
	}
}

func TestCommitRejectsBadEndorsementSignature(t *testing.T) {
	env := newEnv(t, true)
	env.install(t, "iot", iotChaincode())
	tx := env.endorseTx(t, "tx1", "iot", "record", "dev1", "15")
	tx.Endorsements[0].Signature[0] ^= 0xff
	block := makeBlock(t, env.peer, []*ledger.Transaction{tx})
	res, err := env.peer.CommitBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if res.Codes[0] != ledger.CodeBadSignature {
		t.Fatalf("code = %v, want BAD_SIGNATURE", res.Codes[0])
	}
	if env.peer.DB().KeyCount() != 0 {
		t.Fatal("forged tx reached the state")
	}
}

func TestCommitRejectsTamperedRWSet(t *testing.T) {
	env := newEnv(t, true)
	env.install(t, "iot", iotChaincode())
	tx := env.endorseTx(t, "tx1", "iot", "record", "dev1", "15")
	// The client tampers with the endorsed write set.
	tx.RWSet.Writes[0].Value = []byte(`{"tempReadings":[{"temperature":"999"}]}`)
	block := makeBlock(t, env.peer, []*ledger.Transaction{tx})
	res, err := env.peer.CommitBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if res.Codes[0] != ledger.CodeBadSignature {
		t.Fatalf("code = %v, want BAD_SIGNATURE (payload no longer matches)", res.Codes[0])
	}
}

func TestCommitRejectsUnsatisfiedPolicy(t *testing.T) {
	env := newEnv(t, true)
	// Policy demands Org2, which never endorses.
	env.peer.InstallChaincode("iot", iotChaincode(), endorse.MustParse("'Org2.member'"))
	tx := env.endorseTx(t, "tx1", "iot", "record", "dev1", "15")
	block := makeBlock(t, env.peer, []*ledger.Transaction{tx})
	res, err := env.peer.CommitBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if res.Codes[0] != ledger.CodeEndorsementFailure {
		t.Fatalf("code = %v, want ENDORSEMENT_POLICY_FAILURE", res.Codes[0])
	}
}

func TestCommitMarksDuplicates(t *testing.T) {
	env := newEnv(t, true)
	env.install(t, "iot", iotChaincode())
	tx := env.endorseTx(t, "dup", "iot", "record", "dev1", "15")
	// Same tx twice in one block.
	b1 := makeBlock(t, env.peer, []*ledger.Transaction{tx, tx})
	res, err := env.peer.CommitBlock(b1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Codes[0] != ledger.CodeCRDTMerged || res.Codes[1] != ledger.CodeDuplicate {
		t.Fatalf("codes = %v", res.Codes)
	}
	// Same ID again in a later block.
	tx2 := env.endorseTx(t, "dup", "iot", "record", "dev1", "20")
	b2 := makeBlock(t, env.peer, []*ledger.Transaction{tx2})
	res2, err := env.peer.CommitBlock(b2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Codes[0] != ledger.CodeDuplicate {
		t.Fatalf("cross-block duplicate code = %v", res2.Codes[0])
	}
}

func TestChainStoresPristineBlocks(t *testing.T) {
	env := newEnv(t, true)
	env.install(t, "iot", iotChaincode())
	txs := []*ledger.Transaction{
		env.endorseTx(t, "tx1", "iot", "record", "dev1", "15"),
		env.endorseTx(t, "tx2", "iot", "record", "dev1", "20"),
	}
	block := makeBlock(t, env.peer, txs)
	if _, err := env.peer.CommitBlock(block); err != nil {
		t.Fatal(err)
	}
	// The chain must verify end-to-end: merge rewriting must not have
	// corrupted the stored blocks' data hashes.
	if err := env.peer.Chain().Verify(); err != nil {
		t.Fatalf("chain verify after CRDT commit: %v", err)
	}
	stored, err := env.peer.Chain().Get(1)
	if err != nil {
		t.Fatal(err)
	}
	// Stored block carries the ORIGINAL delta, not the converged doc.
	var delta map[string]any
	if err := json.Unmarshal(stored.Transactions[0].RWSet.Writes[0].Value, &delta); err != nil {
		t.Fatal(err)
	}
	if n := len(delta["tempReadings"].([]any)); n != 1 {
		t.Fatalf("stored delta has %d readings, want 1 (pristine)", n)
	}
	if stored.Metadata.ValidationCodes[0] != ledger.CodeCRDTMerged {
		t.Fatalf("stored codes = %v", stored.Metadata.ValidationCodes)
	}
}

func TestRebuildStateReproducesWorldState(t *testing.T) {
	env := newEnv(t, true)
	env.install(t, "iot", iotChaincode())
	// Commit three blocks of readings.
	for b := 0; b < 3; b++ {
		var txs []*ledger.Transaction
		for i := 0; i < 4; i++ {
			id := fmt.Sprintf("tx-%d-%d", b, i)
			txs = append(txs, env.endorseTx(t, id, "iot", "record", "dev1", fmt.Sprintf("%d", 10*b+i)))
		}
		if _, err := env.peer.CommitBlock(makeBlock(t, env.peer, txs)); err != nil {
			t.Fatal(err)
		}
	}
	before, ok := env.peer.DB().Get("dev1")
	if !ok {
		t.Fatal("dev1 missing")
	}
	if err := env.peer.RebuildState(); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	after, ok := env.peer.DB().Get("dev1")
	if !ok {
		t.Fatal("dev1 missing after rebuild")
	}
	if string(before.Value) != string(after.Value) || before.Version != after.Version {
		t.Fatalf("rebuild diverged:\nbefore %s @ %v\nafter  %s @ %v",
			before.Value, before.Version, after.Value, after.Version)
	}
}

// TestCommitEvents: every waiter registered for a transaction receives its
// event once the block commits, resolved waiters leave the table, and
// Close releases the waits still open.
func TestCommitEvents(t *testing.T) {
	env := newEnv(t, true)
	env.install(t, "iot", iotChaincode())
	first, cancel, err := env.peer.AwaitCommit("", "tx1")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	second, _, err := env.peer.AwaitCommit("ch1", "tx1")
	if err != nil {
		t.Fatal(err)
	}
	tx := env.endorseTx(t, "tx1", "iot", "record", "dev1", "15")
	if _, err := env.peer.CommitBlock(makeBlock(t, env.peer, []*ledger.Transaction{tx})); err != nil {
		t.Fatal(err)
	}
	for _, wait := range []<-chan CommitEvent{first, second} {
		ev := <-wait
		if ev.TxID != "tx1" || ev.ChannelID != "ch1" || ev.Code != ledger.CodeCRDTMerged || ev.BlockNum != 1 {
			t.Fatalf("event = %+v", ev)
		}
	}
	if n := len(env.peer.waiters["ch1"].byTx); n != 0 {
		t.Fatalf("%d resolved waiters left in the table", n)
	}
	if h, ok := env.peer.AwaitHeightOn("", 1, nil); !ok || h != 1 {
		t.Fatalf("AwaitHeightOn = %d, %v; want 1, true", h, ok)
	}
	if _, _, err := env.peer.AwaitCommit("nope", "tx1"); !errors.Is(err, ErrUnknownChannel) {
		t.Fatalf("unknown channel: err = %v", err)
	}

	open, _, err := env.peer.AwaitCommit("", "never")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	heightDone := make(chan bool, 1)
	go func() {
		_, ok := env.peer.AwaitHeightOn("", 2, stop)
		heightDone <- ok
	}()
	if err := env.peer.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-open; ok {
		t.Fatal("Close delivered an event to an uncommitted waiter")
	}
	if ok := <-heightDone; ok {
		t.Fatal("AwaitHeightOn reported height 2 after Close")
	}
	late, _, err := env.peer.AwaitCommit("", "late")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := <-late; ok {
		t.Fatal("a wait registered after Close got an event")
	}
}

// TestAwaitCommitCancelLeavesNoWaiter: cancelling withdraws exactly its
// own registration, and cancelling after the event arrived is harmless.
func TestAwaitCommitCancelLeavesNoWaiter(t *testing.T) {
	env := newEnv(t, true)
	env.install(t, "iot", iotChaincode())
	_, cancelA, err := env.peer.AwaitCommit("", "tx1")
	if err != nil {
		t.Fatal(err)
	}
	kept, cancelB, err := env.peer.AwaitCommit("", "tx1")
	if err != nil {
		t.Fatal(err)
	}
	cancelA()
	cancelA()
	table := env.peer.waiters["ch1"]
	if n := len(table.byTx["tx1"]); n != 1 {
		t.Fatalf("%d registrations left for tx1, want 1", n)
	}
	tx := env.endorseTx(t, "tx1", "iot", "record", "dev1", "15")
	if _, err := env.peer.CommitBlock(makeBlock(t, env.peer, []*ledger.Transaction{tx})); err != nil {
		t.Fatal(err)
	}
	if ev := <-kept; ev.TxID != "tx1" {
		t.Fatalf("event = %+v", ev)
	}
	cancelB()
	_, cancelC, err := env.peer.AwaitCommit("", "tx2")
	if err != nil {
		t.Fatal(err)
	}
	cancelC()
	if n := len(table.byTx); n != 0 {
		t.Fatalf("%d waiters left behind", n)
	}
}

// TestUnreadCommitWaiterNeverBlocksCommit: finalize hands each event to
// a one-slot buffer — waiters that never read cannot stall it, however
// many blocks commit, and a height waiter still sees every block.
func TestUnreadCommitWaiterNeverBlocksCommit(t *testing.T) {
	env := newEnv(t, true)
	env.install(t, "iot", iotChaincode())
	const n, perBlock = 200, 10
	txs := make([]*ledger.Transaction, n)
	for i := range txs {
		id := fmt.Sprintf("t%d", i)
		txs[i] = env.endorseTx(t, id, "iot", "record", "dev1", "1")
		for range 2 { // two registrations per transaction, neither ever read
			if _, _, err := env.peer.AwaitCommit("", id); err != nil {
				t.Fatal(err)
			}
		}
	}
	committed := make(chan error, 1)
	go func() {
		num, hash := env.peer.Chain().LastRef()
		a := orderer.NewAssemblerAt(num, hash)
		for i := 0; i < n; i += perBlock {
			block, err := a.Assemble(orderer.Batch{Transactions: txs[i : i+perBlock], Reason: orderer.CutMaxMessages})
			if err == nil {
				_, err = env.peer.CommitBlock(block)
			}
			if err != nil {
				committed <- err
				return
			}
		}
		committed <- nil
	}()
	if h, ok := env.peer.AwaitHeightOn("", n/perBlock, nil); !ok || h != n/perBlock {
		t.Fatalf("AwaitHeightOn = %d, %v; want %d, true", h, ok, n/perBlock)
	}
	select {
	case err := <-committed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("finalize blocked on an unread waiter")
	}
}
