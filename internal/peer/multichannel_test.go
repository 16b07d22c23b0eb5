package peer

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"fabriccrdt/internal/channel"
	"fabriccrdt/internal/cryptoid"
	"fabriccrdt/internal/endorse"
	"fabriccrdt/internal/ledger"
)

// newTwoChannelEnv wires one peer joined to ch1 and ch2.
func newTwoChannelEnv(t *testing.T, enableCRDT bool, committer CommitterConfig) *testEnv {
	t.Helper()
	return newEnvChannels(t, enableCRDT, committer, "ch1", "ch2")
}

func TestNewRejectsBadChannelList(t *testing.T) {
	ca, err := cryptoid.NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	signer, err := ca.Issue("Org1.peer0")
	if err != nil {
		t.Fatal(err)
	}
	for name, channels := range map[string][]string{
		"duplicate": {"ch1", "ch1"},
		"empty":     {"ch1", ""},
		"unsafe":    {"ch/1"},
	} {
		if _, err := New(Config{
			Name: "Org1.peer0", MSPID: "Org1", Channels: channels,
		}, signer, cryptoid.NewMSP()); err == nil {
			t.Errorf("%s: channel list %q accepted", name, channels)
		}
	}
}

// TestChannelQualifiedAccessors covers the channel-routing surface:
// default-channel conveniences bind to the first channel, qualified
// variants resolve every joined channel, unknown channels error.
func TestChannelQualifiedAccessors(t *testing.T) {
	env := newTwoChannelEnv(t, true, CommitterConfig{})
	p := env.peer
	if got := p.DefaultChannel(); got != "ch1" {
		t.Fatalf("DefaultChannel = %q, want ch1", got)
	}
	if got := p.Channels(); !reflect.DeepEqual(got, []string{"ch1", "ch2"}) {
		t.Fatalf("Channels = %v", got)
	}
	if db1, err := p.DBOn("ch1"); err != nil || db1 != p.DB() {
		t.Fatalf("DBOn(ch1) != DB(): %v", err)
	}
	db2, err := p.DBOn("ch2")
	if err != nil {
		t.Fatal(err)
	}
	if db2 == p.DB() {
		t.Fatal("channels share a world state")
	}
	c2, err := p.ChainOn("ch2")
	if err != nil {
		t.Fatal(err)
	}
	if c2 == p.Chain() {
		t.Fatal("channels share a chain")
	}
	if _, err := p.DBOn("nope"); err == nil {
		t.Fatal("unknown channel resolved")
	}
	if _, err := p.HeightOn("nope"); err == nil {
		t.Fatal("unknown channel height resolved")
	}
	if _, err := p.CommitBlockOn("nope", makeBlock(t, p, nil)); err == nil {
		t.Fatal("commit on unknown channel accepted")
	}
	if _, err := p.Endorse(Proposal{TxID: "t", ChannelID: "nope", Chaincode: "iot"}); err == nil {
		t.Fatal("endorsement on unknown channel accepted")
	}
}

// TestSameTxIDAcrossChannelsNotDeduplicated is the paper-faithful channel
// semantics: channels are independent ledgers, so duplicate screening is
// channel-local — the same transaction ID on two channels is two distinct
// transactions and both commit.
func TestSameTxIDAcrossChannelsNotDeduplicated(t *testing.T) {
	env := newTwoChannelEnv(t, true, CommitterConfig{})
	env.install(t, "iot", iotChaincode())

	tx1 := env.endorseTxOn(t, "ch1", "tx-shared", "iot", "record", "dev1", "11")
	res1, err := env.peer.CommitBlockOn("ch1", makeBlockOn(t, env.peer, "ch1", []*ledger.Transaction{tx1}))
	if err != nil {
		t.Fatal(err)
	}
	if res1.Codes[0] != ledger.CodeCRDTMerged {
		t.Fatalf("ch1 code = %v", res1.Codes[0])
	}

	tx2 := env.endorseTxOn(t, "ch2", "tx-shared", "iot", "record", "dev1", "22")
	res2, err := env.peer.CommitBlockOn("ch2", makeBlockOn(t, env.peer, "ch2", []*ledger.Transaction{tx2}))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Codes[0] != ledger.CodeCRDTMerged {
		t.Fatalf("same txID on ch2 = %v, want CRDT_MERGED (dedup must be channel-local)", res2.Codes[0])
	}

	// And a genuine duplicate on the SAME channel still fails.
	dup := env.endorseTxOn(t, "ch1", "tx-shared", "iot", "record", "dev1", "33")
	res3, err := env.peer.CommitBlockOn("ch1", makeBlockOn(t, env.peer, "ch1", []*ledger.Transaction{dup}))
	if err != nil {
		t.Fatal(err)
	}
	if res3.Codes[0] != ledger.CodeDuplicate {
		t.Fatalf("same-channel duplicate code = %v, want DUPLICATE_TXID", res3.Codes[0])
	}
}

// TestCrossChannelReplayRejected: a validly endorsed envelope for one
// channel injected into another channel's block stream must fail with
// WRONG_CHANNEL — its endorsements cover its own ChannelID, so every
// later check would otherwise pass against the wrong channel's state.
func TestCrossChannelReplayRejected(t *testing.T) {
	env := newTwoChannelEnv(t, true, CommitterConfig{})
	env.install(t, "iot", iotChaincode())
	tx := env.endorseTxOn(t, "ch1", "replay", "iot", "record", "dev1", "11")

	// Replay onto ch2: rejected, and nothing reaches ch2's state.
	res, err := env.peer.CommitBlockOn("ch2", makeBlockOn(t, env.peer, "ch2", []*ledger.Transaction{tx}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Codes[0] != ledger.CodeWrongChannel {
		t.Fatalf("replayed tx code = %v, want WRONG_CHANNEL", res.Codes[0])
	}
	db2, err := env.peer.DBOn("ch2")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := db2.Get("dev1"); ok {
		t.Fatal("cross-channel replay reached the state")
	}

	// The genuine channel still accepts it (the replay must not have
	// poisoned duplicate screening anywhere).
	res, err = env.peer.CommitBlockOn("ch1", makeBlockOn(t, env.peer, "ch1", []*ledger.Transaction{tx}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Codes[0] != ledger.CodeCRDTMerged {
		t.Fatalf("genuine-channel commit code = %v", res.Codes[0])
	}

	// A replay that is ALSO a dedup hit (same ID already committed on the
	// delivering channel) still reports the channel mismatch — the more
	// fundamental rejection is not relabeled as a duplicate.
	tx2 := env.endorseTxOn(t, "ch2", "replay", "iot", "record", "dev1", "33")
	res, err = env.peer.CommitBlockOn("ch1", makeBlockOn(t, env.peer, "ch1", []*ledger.Transaction{tx2}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Codes[0] != ledger.CodeWrongChannel {
		t.Fatalf("replayed duplicate code = %v, want WRONG_CHANNEL", res.Codes[0])
	}
}

// TestEndorseNormalizesEmptyChannel: a proposal with an empty ChannelID
// endorses against the default channel AND signs the resolved channel ID,
// so a transaction assembled with that ID commits cleanly — the empty
// string must never leak into a signed payload the committer would reject.
func TestEndorseNormalizesEmptyChannel(t *testing.T) {
	env := newTwoChannelEnv(t, true, CommitterConfig{})
	env.install(t, "iot", iotChaincode())
	creator, err := env.client.Identity.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	args := [][]byte{[]byte("record"), []byte("dev1"), []byte("21")}
	resp, err := env.peer.Endorse(Proposal{
		TxID: "default-ch", ChannelID: "", Chaincode: "iot", Args: args, Creator: creator,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The response echoes the resolved channel — what the caller must put
	// into the envelope for the signature to verify and the commit to land.
	if resp.ChannelID != env.peer.DefaultChannel() {
		t.Fatalf("resolved channel = %q, want %q", resp.ChannelID, env.peer.DefaultChannel())
	}
	tx := &ledger.Transaction{
		ID: "default-ch", ChannelID: resp.ChannelID, Chaincode: "iot",
		Creator: creator, Args: args, RWSet: resp.RWSet,
		Endorsements: []ledger.Endorsement{{Endorser: resp.Endorser, Signature: resp.Signature}},
	}
	res, err := env.peer.CommitBlock(makeBlock(t, env.peer, []*ledger.Transaction{tx}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Codes[0] != ledger.CodeCRDTMerged {
		t.Fatalf("default-channel endorsement committed with %v, want CRDT_MERGED", res.Codes[0])
	}
}

// TestMVCCConflictsIsolatedPerChannel: a version conflict on one channel
// must never invalidate a transaction on another — channels have
// independent MVCC version spaces even for identical key names.
func TestMVCCConflictsIsolatedPerChannel(t *testing.T) {
	env := newTwoChannelEnv(t, false, CommitterConfig{}) // stock Fabric: MVCC path
	env.install(t, "iot", iotChaincode())

	// ch1: two conflicting writes of dev1 in one block — the second fails.
	txsA := []*ledger.Transaction{
		env.endorseTxOn(t, "ch1", "a1", "iot", "record", "dev1", "10"),
		env.endorseTxOn(t, "ch1", "a2", "iot", "record", "dev1", "20"),
	}
	resA, err := env.peer.CommitBlockOn("ch1", makeBlockOn(t, env.peer, "ch1", txsA))
	if err != nil {
		t.Fatal(err)
	}
	want := []ledger.ValidationCode{ledger.CodeValid, ledger.CodeMVCCConflict}
	if !reflect.DeepEqual(resA.Codes, want) {
		t.Fatalf("ch1 codes = %v, want %v", resA.Codes, want)
	}

	// ch2: a single write of the same key name, endorsed BEFORE ch1's
	// commit would have bumped any shared version — it must commit VALID.
	txB := env.endorseTxOn(t, "ch2", "b1", "iot", "record", "dev1", "30")
	resB, err := env.peer.CommitBlockOn("ch2", makeBlockOn(t, env.peer, "ch2", []*ledger.Transaction{txB}))
	if err != nil {
		t.Fatal(err)
	}
	if resB.Codes[0] != ledger.CodeValid {
		t.Fatalf("ch2 code = %v, want VALID (ch1's conflict leaked)", resB.Codes[0])
	}
}

// TestTwoChannelRestartResumesOwnHeights is the multi-channel crash-restart
// acceptance test: a disk-backed peer with channels at different heights
// must resume each channel at its own height with byte-identical state.
func TestTwoChannelRestartResumesOwnHeights(t *testing.T) {
	dir := t.TempDir()
	committer := CommitterConfig{Backend: BackendDisk, DataDir: dir}

	env := newTwoChannelEnv(t, true, committer)
	env.install(t, "iot", iotChaincode())
	// ch1 commits 3 blocks, ch2 only 1 — heights diverge.
	for b := 0; b < 3; b++ {
		tx := env.endorseTxOn(t, "ch1", fmt.Sprintf("c1-%d", b), "iot", "record", "dev1", fmt.Sprintf("%d", b))
		if _, err := env.peer.CommitBlockOn("ch1", makeBlockOn(t, env.peer, "ch1", []*ledger.Transaction{tx})); err != nil {
			t.Fatal(err)
		}
	}
	tx := env.endorseTxOn(t, "ch2", "c2-0", "iot", "record", "dev1", "99")
	if _, err := env.peer.CommitBlockOn("ch2", makeBlockOn(t, env.peer, "ch2", []*ledger.Transaction{tx})); err != nil {
		t.Fatal(err)
	}
	before := map[string]map[string]string{
		"ch1": snapshotStateOn(t, env.peer, "ch1", "crdt/dev1"),
		"ch2": snapshotStateOn(t, env.peer, "ch2", "crdt/dev1"),
	}
	if err := env.peer.Close(); err != nil {
		t.Fatal(err)
	}

	restarted := newTwoChannelEnv(t, true, committer)
	restarted.install(t, "iot", iotChaincode())
	p := restarted.peer
	defer p.Close()
	for id, wantHeight := range map[string]uint64{"ch1": 3, "ch2": 1} {
		got, err := p.HeightOn(id)
		if err != nil {
			t.Fatal(err)
		}
		if got != wantHeight {
			t.Fatalf("channel %s resumed at height %d, want %d", id, got, wantHeight)
		}
		if after := snapshotStateOn(t, p, id, "crdt/dev1"); !reflect.DeepEqual(before[id], after) {
			t.Fatalf("channel %s state diverged across restart:\nbefore %v\nafter  %v", id, before[id], after)
		}
	}

	// Both channels keep committing from their own resume points.
	tx1 := restarted.endorseTxOn(t, "ch1", "c1-new", "iot", "record", "dev1", "41")
	res1, err := p.CommitBlockOn("ch1", makeBlockOn(t, p, "ch1", []*ledger.Transaction{tx1}))
	if err != nil {
		t.Fatal(err)
	}
	if res1.BlockNum != 4 || res1.FastForwarded {
		t.Fatalf("ch1 post-restart commit: %+v, want fresh block 4", res1)
	}
	tx2 := restarted.endorseTxOn(t, "ch2", "c2-new", "iot", "record", "dev1", "42")
	res2, err := p.CommitBlockOn("ch2", makeBlockOn(t, p, "ch2", []*ledger.Transaction{tx2}))
	if err != nil {
		t.Fatal(err)
	}
	if res2.BlockNum != 2 || res2.FastForwarded {
		t.Fatalf("ch2 post-restart commit: %+v, want fresh block 2", res2)
	}
	// Per-channel duplicate screening also survived the restart.
	dup := restarted.endorseTxOn(t, "ch2", "c2-0", "iot", "record", "dev1", "43")
	resDup, err := p.CommitBlockOn("ch2", makeBlockOn(t, p, "ch2", []*ledger.Transaction{dup}))
	if err != nil {
		t.Fatal(err)
	}
	if resDup.Codes[0] != ledger.CodeDuplicate {
		t.Fatalf("pre-restart ch2 txID recommitted with %v", resDup.Codes[0])
	}
}

// snapshotStateOn is snapshotState against an explicit channel.
func snapshotStateOn(t *testing.T, p *Peer, channelID string, keys ...string) map[string]string {
	t.Helper()
	db, err := p.DBOn(channelID)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, kv := range db.GetRange("", "") {
		out["data/"+kv.Key] = fmt.Sprintf("%s@%v", kv.Value, kv.VersionedValue.Version)
	}
	for _, key := range keys {
		out["meta/"+key] = string(db.GetMeta(key))
	}
	out["meta/"+channel.MetaCheckpoint] = string(db.GetMeta(channel.MetaCheckpoint))
	return out
}

// TestChannelsCommitConcurrently drives commits on both channels from
// concurrent goroutines (run under -race in CI): per-channel serialization
// must suffice — no cross-channel lock is needed for correctness.
func TestChannelsCommitConcurrently(t *testing.T) {
	setGOMAXPROCS(t, 4) // two commit workers per channel
	env := newTwoChannelEnv(t, true, CommitterConfig{})
	env.install(t, "iot", iotChaincode())
	// Endorse every transaction up front (endorsement reads committed
	// state, which is empty either way), then pre-build each channel's
	// hash chain of blocks.
	const blocks = 5
	endorsed := map[string][]*ledger.Block{}
	for _, id := range []string{"ch1", "ch2"} {
		chain, err := env.peer.ChainOn(id)
		if err != nil {
			t.Fatal(err)
		}
		num, hash := chain.LastRef()
		for b := 0; b < blocks; b++ {
			tx := env.endorseTxOn(t, id, fmt.Sprintf("%s-%d", id, b), "iot", "record", "dev1", fmt.Sprintf("%d", b))
			blk := makeBlockAt(t, num, hash, []*ledger.Transaction{tx})
			endorsed[id] = append(endorsed[id], blk)
			num, hash = blk.Header.Number, blk.HeaderHash()
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*blocks)
	for _, id := range []string{"ch1", "ch2"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for _, blk := range endorsed[id] {
				if _, err := env.peer.CommitBlockOn(id, blk); err != nil {
					errs <- err
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, id := range []string{"ch1", "ch2"} {
		h, err := env.peer.HeightOn(id)
		if err != nil {
			t.Fatal(err)
		}
		if h != blocks {
			t.Fatalf("channel %s height = %d, want %d", id, h, blocks)
		}
		chain, err := env.peer.ChainOn(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := chain.Verify(); err != nil {
			t.Fatalf("channel %s chain: %v", id, err)
		}
	}
}

// TestAdaptiveWorkerSizing: a peer's commit parallelism is GOMAXPROCS —
// not the host's core count — spread across its channels, never below one
// worker (DESIGN.md §6).
func TestAdaptiveWorkerSizing(t *testing.T) {
	for _, tc := range []struct{ procs, channels, want int }{
		{1, 1, 1},
		{1, 2, 1}, // floor: more channels than processors
		{2, 1, 2},
		{2, 2, 1},
		{3, 2, 1},
		{8, 1, 8},
		{8, 2, 4},
		{8, 3, 2},
		{8, 16, 1},
	} {
		setGOMAXPROCS(t, tc.procs)
		ids := make([]string, tc.channels)
		for i := range ids {
			ids[i] = fmt.Sprintf("ch%d", i+1)
		}
		env := newEnvChannels(t, true, CommitterConfig{}, ids...)
		if got := env.peer.workers; got != tc.want {
			t.Errorf("GOMAXPROCS %d over %d channel(s): %d commit workers, want %d", tc.procs, tc.channels, got, tc.want)
		}
	}
}

// TestSingleProcessorCommitsSerially: a process limited to one processor
// (GOMAXPROCS=1 on a many-core host, a CPU-limited container) must not size
// its pools from the host's core count — one commit worker, so endorsement
// validation runs inline — and still commits.
func TestSingleProcessorCommitsSerially(t *testing.T) {
	setGOMAXPROCS(t, 1)
	env := newEnv(t, false)
	if env.peer.workers != 1 {
		t.Fatalf("%d commit workers at GOMAXPROCS 1, want 1", env.peer.workers)
	}
	env.install(t, "plain", plainChaincode())
	txs := []*ledger.Transaction{
		env.endorseTx(t, "a", "plain", "put", "k1", "1"),
		env.endorseTx(t, "b", "plain", "put", "k2", "2"),
	}
	res, err := env.peer.CommitBlock(makeBlock(t, env.peer, txs))
	if err != nil {
		t.Fatal(err)
	}
	if res.CommittedTx != 2 {
		t.Fatalf("committed %d, want 2", res.CommittedTx)
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
