package peer

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"fabriccrdt/internal/chaincode"
	"fabriccrdt/internal/endorse"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/orderer"
)

// readOnlyChaincode reads a key and writes nothing.
func readOnlyChaincode() chaincode.Chaincode {
	return chaincode.Func(func(stub chaincode.Stub) error {
		_, params := stub.Function()
		_, err := stub.GetState(params[0])
		return err
	})
}

// assertSameChain compares the two peers' full chains byte for byte —
// header hashes and marshaled block bodies, validation-code metadata
// included.
func assertSameChain(t *testing.T, a, b *Peer) {
	t.Helper()
	if ah, bh := a.Chain().Height(), b.Chain().Height(); ah != bh {
		t.Fatalf("chain heights diverged: %s=%d %s=%d", a.Name(), ah, b.Name(), bh)
	}
	for n := uint64(0); n < a.Chain().Height(); n++ {
		ba, err := a.Chain().Get(n)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := b.Chain().Get(n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba.HeaderHash(), bb.HeaderHash()) {
			t.Errorf("block %d header hash diverged between %s and %s", n, a.Name(), b.Name())
		}
		rawA, err := ba.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		rawB, err := bb.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rawA, rawB) {
			t.Errorf("block %d bytes diverged between %s and %s", n, a.Name(), b.Name())
		}
	}
}

// TestScheduledFinalizeDeterminism is the tentpole's guarantee: the
// dependency-scheduled finalize produces byte-identical state, validation
// codes and block hashes at every worker count, across randomized conflict
// mixes — CRDT chains, MVCC winners and losers, read-only transactions,
// invalid deltas, duplicates and forged signatures. The baseline and the
// GOMAXPROCS 1 variant run the serial finalize — the reference. Runs under
// -race via `make race` / CI, which is what makes the merge-beside-MVCC
// concurrency claim trustworthy.
func TestScheduledFinalizeDeterminism(t *testing.T) {
	env := newPipelineEnv(t, []variant{{procs: 1}, {procs: 2}, {procs: 4}, {procs: 8}})
	env.install(t, "iot", multiKeyCRDTChaincode())
	env.install(t, "plain", plainChaincode())
	env.install(t, "bad", badCRDTChaincode())
	env.install(t, "reader", readOnlyChaincode())

	rng := rand.New(rand.NewSource(99))
	txNo := 0
	makeTxs := func(n int) []*ledger.Transaction {
		var txs []*ledger.Transaction
		for i := 0; i < n; i++ {
			txNo++
			id := fmt.Sprintf("tx-%d", txNo)
			switch r := rng.Intn(10); {
			case r < 4: // CRDT chain appends over a small device pool
				devA := fmt.Sprintf("dev%d", rng.Intn(3))
				devB := fmt.Sprintf("dev%d", rng.Intn(3))
				txs = append(txs, env.endorseTx(t, id, "iot", "append", devA, devB, id))
			case r < 7: // plain writes over a small key pool: MVCC conflicts
				key := fmt.Sprintf("k%d", rng.Intn(4))
				txs = append(txs, env.endorseTx(t, id, "plain", "put", key, id))
			case r < 8: // read-only
				txs = append(txs, env.endorseTx(t, id, "reader", "get", fmt.Sprintf("k%d", rng.Intn(4))))
			case r < 9: // invalid CRDT delta inside a device chain
				txs = append(txs, env.endorseTx(t, id, "bad", "poison", fmt.Sprintf("dev%d", rng.Intn(3)), "junk"))
			default: // forged signature
				forged := env.endorseTx(t, id, "plain", "put", fmt.Sprintf("k%d", rng.Intn(4)), id)
				forged.Endorsements[0].Signature[0] ^= 0xff
				txs = append(txs, forged)
			}
		}
		if len(txs) > 1 && rng.Intn(2) == 0 {
			txs = append(txs, txs[rng.Intn(len(txs))]) // in-block duplicate
		}
		return txs
	}

	for blockRound := 0; blockRound < 4; blockRound++ {
		txs := makeTxs(12 + rng.Intn(24))
		block := makeBlock(t, env.baseline, txs)
		want, err := env.baseline.CommitBlock(block)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range env.variants {
			got, err := p.CommitBlock(block)
			if err != nil {
				t.Fatalf("peer %s: %v", p.Name(), err)
			}
			if !reflect.DeepEqual(want.Codes, got.Codes) {
				t.Errorf("block %d: %s codes = %v, baseline %v", blockRound, p.Name(), got.Codes, want.Codes)
			}
			if !reflect.DeepEqual(want.MergedKeys, got.MergedKeys) {
				t.Errorf("block %d: %s merged keys = %v, baseline %v", blockRound, p.Name(), got.MergedKeys, want.MergedKeys)
			}
			if want.CommittedTx != got.CommittedTx {
				t.Errorf("block %d: %s committed %d, baseline %d", blockRound, p.Name(), got.CommittedTx, want.CommittedTx)
			}
		}
	}
	for _, p := range env.variants {
		assertSameWorldState(t, env.baseline, p)
		assertSameChain(t, env.baseline, p)
	}
}

// commitEverywhere commits one block on the baseline and every variant and
// asserts identical results all around, returning the baseline's result.
func commitEverywhere(t *testing.T, env *pipelineEnv, txs []*ledger.Transaction) CommitResult {
	t.Helper()
	block := makeBlock(t, env.baseline, txs)
	want, err := env.baseline.CommitBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range env.variants {
		got, err := p.CommitBlock(block)
		if err != nil {
			t.Fatalf("peer %s: %v", p.Name(), err)
		}
		if !reflect.DeepEqual(want.Codes, got.Codes) {
			t.Errorf("%s codes = %v, baseline %v", p.Name(), got.Codes, want.Codes)
		}
		assertSameWorldState(t, env.baseline, p)
	}
	return want
}

// TestScheduledFinalizeAllConflicting: every transaction writes the same
// plain key — the schedule degenerates to one transaction per wave (fully
// serial) and must neither deadlock nor change the single-winner outcome.
func TestScheduledFinalizeAllConflicting(t *testing.T) {
	env := newPipelineEnv(t, []variant{{procs: 4}})
	env.install(t, "plain", plainChaincode())
	var txs []*ledger.Transaction
	for i := 0; i < 20; i++ {
		txs = append(txs, env.endorseTx(t, fmt.Sprintf("hot-%d", i), "plain", "put", "hot", fmt.Sprintf("%d", i)))
	}
	res := commitEverywhere(t, env, txs)
	valid := 0
	for _, c := range res.Codes {
		if c == ledger.CodeValid {
			valid++
		}
	}
	if valid != 1 || res.Codes[0] != ledger.CodeValid {
		t.Fatalf("valid = %d (first=%v), want exactly the first writer", valid, res.Codes[0])
	}
}

// TestScheduledFinalizeAllIndependent: disjoint keys — one wave, every
// transaction commits.
func TestScheduledFinalizeAllIndependent(t *testing.T) {
	env := newPipelineEnv(t, []variant{{procs: 4}})
	env.install(t, "plain", plainChaincode())
	var txs []*ledger.Transaction
	for i := 0; i < 20; i++ {
		txs = append(txs, env.endorseTx(t, fmt.Sprintf("ind-%d", i), "plain", "put", fmt.Sprintf("k%d", i), "v"))
	}
	res := commitEverywhere(t, env, txs)
	if res.CommittedTx != 20 {
		t.Fatalf("committed = %d, want all 20", res.CommittedTx)
	}
}

// TestScheduledFinalizeReadOnly: read-only transactions commit as valid and
// order correctly around a writer of the same key.
func TestScheduledFinalizeReadOnly(t *testing.T) {
	env := newPipelineEnv(t, []variant{{procs: 4}})
	env.install(t, "plain", plainChaincode())
	env.install(t, "reader", readOnlyChaincode())
	// Seed the key, then a block of readers around a writer: the readers
	// endorsed against the same snapshot as the writer conflict once its
	// write lands first in the block.
	commitEverywhere(t, env, []*ledger.Transaction{env.endorseTx(t, "seed", "plain", "put", "acct", "1")})
	txs := []*ledger.Transaction{
		env.endorseTx(t, "w", "plain", "put", "acct", "2"),
		env.endorseTx(t, "r1", "reader", "get", "acct"),
		env.endorseTx(t, "r2", "reader", "get", "acct"),
		env.endorseTx(t, "r3", "reader", "get", "other"), // independent: absent key
	}
	res := commitEverywhere(t, env, txs)
	want := []ledger.ValidationCode{ledger.CodeValid, ledger.CodeMVCCConflict, ledger.CodeMVCCConflict, ledger.CodeValid}
	if !reflect.DeepEqual(res.Codes, want) {
		t.Fatalf("codes = %v, want %v", res.Codes, want)
	}
}

// TestScheduledInvalidCRDTInChain: an INVALID_CRDT transaction in the
// middle of a document chain fails, but its intact delta still extends the
// document (the PR 5 replay semantics) — under the scheduled finalize too.
func TestScheduledInvalidCRDTInChain(t *testing.T) {
	env := newPipelineEnv(t, []variant{{procs: 4}})
	env.install(t, "iot", multiKeyCRDTChaincode())
	env.install(t, "bad", badCRDTChaincode())
	txs := []*ledger.Transaction{
		env.endorseTx(t, "good-1", "iot", "append", "dev0", "dev1", "before"),
		// Intact delta to dev0, unparseable delta to junk: the tx fails,
		// the dev0 chain keeps its contribution.
		env.endorseTx(t, "bad-1", "bad", "poison", "dev0", "junk"),
		env.endorseTx(t, "good-2", "iot", "append", "dev0", "dev2", "after"),
	}
	res := commitEverywhere(t, env, txs)
	want := []ledger.ValidationCode{ledger.CodeCRDTMerged, ledger.CodeInvalidCRDT, ledger.CodeCRDTMerged}
	if !reflect.DeepEqual(res.Codes, want) {
		t.Fatalf("codes = %v, want %v", res.Codes, want)
	}
	for _, p := range append([]*Peer{env.baseline}, env.variants...) {
		vv, ok := p.DB().Get("dev0")
		if !ok {
			t.Fatalf("%s: dev0 missing", p.Name())
		}
		// The converged document carries the failed transaction's intact
		// "ok" field alongside both good appends.
		if doc := string(vv.Value); !strings.Contains(doc, `"ok"`) ||
			!strings.Contains(doc, "before") || !strings.Contains(doc, "after") {
			t.Fatalf("%s: dev0 doc lost a chain contribution: %s", p.Name(), doc)
		}
	}
}

// TestCrossChannelInvokeRejected is the per-channel installation
// regression test: a chaincode installed on one channel is unknown on the
// peer's other channels, at endorsement and at commit.
func TestCrossChannelInvokeRejected(t *testing.T) {
	// The endorser peer has the chaincode everywhere and produces a valid
	// ch1 transaction.
	env := newEnvChannels(t, true, CommitterConfig{}, "ch1", "ch2")
	env.install(t, "iot", iotChaincode())

	// The committer peer installs it on ch2 ONLY.
	signer, err := env.ca.Issue("Org1.peer1")
	if err != nil {
		t.Fatal(err)
	}
	committer, err := New(Config{
		Name: "Org1.peer1", MSPID: "Org1", Channels: []string{"ch1", "ch2"},
		EnableCRDT: true,
	}, signer, env.msp)
	if err != nil {
		t.Fatal(err)
	}
	if err := committer.InstallChaincodeOn("ch2", "iot", iotChaincode(), endorse.MustParse("'Org1.member'")); err != nil {
		t.Fatal(err)
	}
	if err := committer.InstallChaincodeOn("nope", "iot", iotChaincode(), endorse.MustParse("'Org1.member'")); !errors.Is(err, ErrUnknownChannel) {
		t.Fatalf("install on unjoined channel: err = %v, want ErrUnknownChannel", err)
	}

	// Endorsement on the channel without the chaincode is refused.
	creator, err := env.client.Identity.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := committer.Endorse(Proposal{
		TxID: "p1", ChannelID: "ch1", Chaincode: "iot",
		Args: [][]byte{[]byte("record"), []byte("dev1"), []byte("20")}, Creator: creator,
	}); !errors.Is(err, ErrUnknownChaincode) {
		t.Fatalf("endorse on ch1: err = %v, want ErrUnknownChaincode", err)
	}

	// A validly endorsed ch1 transaction fails endorsement validation on
	// the committer, whose ch1 has no such chaincode...
	tx1 := env.endorseTxOn(t, "ch1", "tx1", "iot", "record", "dev1", "20")
	res, err := committer.CommitBlockOn("ch1", makeBlockOn(t, committer, "ch1", []*ledger.Transaction{tx1}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Codes[0] != ledger.CodeEndorsementFailure {
		t.Fatalf("ch1 commit code = %v, want CodeEndorsementFailure", res.Codes[0])
	}
	// ...while the same chaincode on ch2 — where it IS installed — merges.
	tx2 := env.endorseTxOn(t, "ch2", "tx2", "iot", "record", "dev1", "20")
	res, err = committer.CommitBlockOn("ch2", makeBlockOn(t, committer, "ch2", []*ledger.Transaction{tx2}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Codes[0] != ledger.CodeCRDTMerged {
		t.Fatalf("ch2 commit code = %v, want CodeCRDTMerged", res.Codes[0])
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

// TestCommitAggregateAndSchedulerCounters: the skew-free timing rollup and
// the scheduler's conflict counters are populated by a scheduled commit.
func TestCommitAggregateAndSchedulerCounters(t *testing.T) {
	setGOMAXPROCS(t, 2)
	env := newEnv(t, true)
	env.install(t, "plain", plainChaincode())
	txs := []*ledger.Transaction{
		env.endorseTx(t, "a", "plain", "put", "k1", "1"),
		env.endorseTx(t, "b", "plain", "put", "k2", "2"),
	}
	if _, err := env.peer.CommitBlock(makeBlock(t, env.peer, txs)); err != nil {
		t.Fatal(err)
	}
	agg := env.peer.CommitAggregate()
	if agg.Wall <= 0 || agg.CPU <= 0 {
		t.Fatalf("aggregate = %+v, want positive wall and cpu", agg)
	}
	counters := make(map[string]int64)
	for _, c := range env.peer.SchedulerCounters() {
		counters[c.Name] = c.Value
	}
	if counters[CounterSchedBlocks] != 1 || counters[CounterSchedTxs] != 2 ||
		counters[CounterSchedGroups] != 2 || counters[CounterSchedConflicted] != 0 ||
		counters[CounterSchedWaves] != 1 {
		t.Fatalf("scheduler counters = %v, want 1 block, 2 txs, 2 groups, 0 conflicted, 1 wave", counters)
	}
}
