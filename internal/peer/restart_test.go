package peer

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fabriccrdt/internal/channel"
	"fabriccrdt/internal/cryptoid"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/orderer"
)

// makeBlockAt assembles a block chaining onto an explicit (number, hash)
// resume point — what the rebuilt ordering service does after a restart,
// when no block body is available to chain from.
func makeBlockAt(t *testing.T, afterNum uint64, afterHash []byte, txs []*ledger.Transaction) *ledger.Block {
	t.Helper()
	a := orderer.NewAssemblerAt(afterNum, afterHash)
	block, err := a.Assemble(orderer.Batch{Transactions: txs, Reason: orderer.CutMaxMessages})
	if err != nil {
		t.Fatal(err)
	}
	return block
}

// snapshotState captures everything observable about a peer's world state:
// the full key range and the CRDT/checkpoint metadata entries.
func snapshotState(p *Peer, keys ...string) map[string]string {
	out := make(map[string]string)
	for _, kv := range p.DB().GetRange("", "") {
		out["data/"+kv.Key] = fmt.Sprintf("%s@%v", kv.Value, kv.VersionedValue.Version)
	}
	for _, key := range keys {
		out["meta/"+key] = string(p.DB().GetMeta(key))
	}
	out["meta/"+channel.MetaCheckpoint] = string(p.DB().GetMeta(channel.MetaCheckpoint))
	return out
}

// commitReadingBlocks endorses and commits n single-device blocks, returning
// the pristine delivered blocks (as the orderer would re-deliver them).
func commitReadingBlocks(t *testing.T, env *testEnv, n int, startBlock uint64) []*ledger.Block {
	t.Helper()
	var blocks []*ledger.Block
	for b := uint64(0); b < uint64(n); b++ {
		var txs []*ledger.Transaction
		for i := 0; i < 3; i++ {
			id := fmt.Sprintf("tx-%d-%d", startBlock+b, i)
			txs = append(txs, env.endorseTx(t, id, "iot", "record", "dev1", fmt.Sprintf("%d", 10*int(startBlock+b)+i)))
		}
		block := makeBlock(t, env.peer, txs)
		if _, err := env.peer.CommitBlock(block); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, block)
	}
	return blocks
}

// TestDiskPeerCrashRestart is the crash-restart acceptance test: commit N
// blocks on a disk-backed peer, drop the peer (only its data directory
// survives), rebuild it, and require byte-identical state, the recorded
// resume height, and fast-forward (no re-validation, no state mutation) of
// re-delivered history.
func TestDiskPeerCrashRestart(t *testing.T) {
	dir := t.TempDir()
	committer := CommitterConfig{Backend: BackendDisk, DataDir: dir}

	env := newEnvWithCommitter(t, true, committer)
	env.install(t, "iot", iotChaincode())
	const n = 3
	blocks := commitReadingBlocks(t, env, n, 1)
	before := snapshotState(env.peer, "crdt/dev1")
	if err := env.peer.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// "Restart": a fresh peer over the same data directory. Same CA/MSP,
	// new process state.
	restarted := newEnvWithCommitter(t, true, committer)
	restarted.install(t, "iot", iotChaincode())
	p := restarted.peer
	defer p.Close()

	if got := p.Height(); got != n {
		t.Fatalf("resumed height = %d, want %d", got, n)
	}
	if got := p.Chain().Height(); got != n+1 {
		t.Fatalf("resumed chain height = %d, want %d (checkpointed chain)", got, n+1)
	}
	after := snapshotState(p, "crdt/dev1")
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("state diverged across restart:\nbefore %v\nafter  %v", before, after)
	}

	// Re-delivered history (e.g. a deliver stream replaying from an
	// earlier position) fast-forwards: no validation, no state change.
	for _, block := range blocks {
		res, err := p.CommitBlock(block)
		if err != nil {
			t.Fatalf("re-delivering block %d: %v", block.Header.Number, err)
		}
		if !res.FastForwarded {
			t.Fatalf("block %d was re-validated instead of fast-forwarded", block.Header.Number)
		}
	}
	if got := snapshotState(p, "crdt/dev1"); !reflect.DeepEqual(before, got) {
		t.Fatalf("fast-forward mutated state:\nbefore %v\nafter  %v", before, got)
	}
	for _, s := range p.CommitTimings() {
		if s.Stage == StageEndorse || s.Stage == StageMerge || s.Stage == StageApply {
			if s.Count > 0 {
				t.Fatalf("fast-forward ran the %s stage %d times", s.Stage, s.Count)
			}
		}
	}

	// The peer keeps committing: block N+1 extends both the chain and the
	// CRDT document seeded from the persisted metadata space.
	commitReadingBlocks(t, restarted, 1, n+1)
	if got := p.Height(); got != n+1 {
		t.Fatalf("height after new commit = %d, want %d", got, n+1)
	}
	vv, ok := p.DB().Get("dev1")
	if !ok {
		t.Fatal("dev1 missing after restart commit")
	}
	if len(vv.Value) <= len(before["data/dev1"]) {
		t.Fatal("new readings did not extend the restored CRDT document")
	}
	if err := p.Chain().Verify(); err != nil {
		t.Fatalf("chain verify after restart: %v", err)
	}

	// Duplicate screening covers transactions seen since the restart.
	dup := restarted.endorseTx(t, fmt.Sprintf("tx-%d-0", n+1), "iot", "record", "dev1", "99")
	res, err := p.CommitBlock(makeBlock(t, p, []*ledger.Transaction{dup}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Codes[0] != ledger.CodeDuplicate {
		t.Fatalf("post-restart duplicate code = %v", res.Codes[0])
	}
}

// TestLSMPeerCrashRestart runs the crash-restart acceptance path on the
// LSM backend: commit N blocks, drop the peer (only its data directory
// survives — WAL, sorted runs, manifest, block log), rebuild it, and
// require byte-identical state, the recorded resume height and
// fast-forward of re-delivered history. This is the end-to-end pin that
// the backend-selection wiring (channel.newStateDB, the durability hook
// ordering against the block store) works for BackendLSM, not just that
// the statedb-level unit tests pass.
func TestLSMPeerCrashRestart(t *testing.T) {
	dir := t.TempDir()
	committer := CommitterConfig{Backend: BackendLSM, DataDir: dir, StateCacheBytes: 1 << 20}

	env := newEnvWithCommitter(t, true, committer)
	env.install(t, "iot", iotChaincode())
	const n = 3
	blocks := commitReadingBlocks(t, env, n, 1)
	before := snapshotState(env.peer, "crdt/dev1")
	if err := env.peer.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The LSM store (not the disk backend's log) is what persisted.
	if _, err := os.Stat(filepath.Join(dir, "ch1", "wal.log")); err != nil {
		t.Fatalf("no LSM write-ahead log under the channel directory: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ch1", "state.log")); !os.IsNotExist(err) {
		t.Fatalf("BackendLSM wrote a disk-backend state.log: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ch1", "blocks", "blocks.log")); err != nil {
		t.Fatalf("the LSM backend kept no block log: %v", err)
	}

	restarted := newEnvWithCommitter(t, true, committer)
	restarted.install(t, "iot", iotChaincode())
	p := restarted.peer
	defer p.Close()

	if got := p.Height(); got != n {
		t.Fatalf("resumed height = %d, want %d", got, n)
	}
	after := snapshotState(p, "crdt/dev1")
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("state diverged across restart:\nbefore %v\nafter  %v", before, after)
	}
	for _, block := range blocks {
		res, err := p.CommitBlock(block)
		if err != nil {
			t.Fatalf("re-delivering block %d: %v", block.Header.Number, err)
		}
		if !res.FastForwarded {
			t.Fatalf("block %d was re-validated instead of fast-forwarded", block.Header.Number)
		}
	}
	// The peer keeps committing on the restored store.
	commitReadingBlocks(t, restarted, 1, n+1)
	if got := p.Height(); got != n+1 {
		t.Fatalf("height after new commit = %d, want %d", got, n+1)
	}
	if err := p.Chain().Verify(); err != nil {
		t.Fatalf("chain verify after restart: %v", err)
	}
}

// TestFastForwardRejectsForgedBlocks: a block numbered at or below the
// state height is only fast-forwarded when it matches the locally recorded
// history — a forged "old" block must fail loudly, never silently succeed
// (it would otherwise poison duplicate screening and masquerade as
// committed history).
func TestFastForwardRejectsForgedBlocks(t *testing.T) {
	env := newEnv(t, true)
	env.install(t, "iot", iotChaincode())
	commitReadingBlocks(t, env, 2, 1)

	// Forge block 2: correct number and prev-hash, different transactions.
	b1, err := env.peer.Chain().Get(1)
	if err != nil {
		t.Fatal(err)
	}
	forged := makeBlockAt(t, 1, b1.HeaderHash(),
		[]*ledger.Transaction{env.endorseTx(t, "forged", "iot", "record", "dev1", "666")})
	if _, err := env.peer.CommitBlock(forged); err == nil {
		t.Fatal("forged re-delivered block accepted")
	}
	rt, err := env.peer.runtime("")
	if err != nil {
		t.Fatal(err)
	}
	rt.Lock()
	seen := rt.WasCommitted("forged")
	rt.Unlock()
	if seen {
		t.Fatal("forged block's tx ID entered duplicate screening")
	}

	// Same attack against a restarted peer's checkpoint block.
	dir := t.TempDir()
	committer := CommitterConfig{Backend: BackendDisk, DataDir: dir}
	denv := newEnvWithCommitter(t, true, committer)
	denv.install(t, "iot", iotChaincode())
	blocks := commitReadingBlocks(t, denv, 2, 1)
	if err := denv.peer.Close(); err != nil {
		t.Fatal(err)
	}
	restarted := newEnvWithCommitter(t, true, committer)
	restarted.install(t, "iot", iotChaincode())
	defer restarted.peer.Close()
	forgedCp := makeBlockAt(t, 1, blocks[0].HeaderHash(),
		[]*ledger.Transaction{restarted.endorseTx(t, "forged-cp", "iot", "record", "dev1", "666")})
	if _, err := restarted.peer.CommitBlock(forgedCp); err == nil {
		t.Fatal("forged checkpoint block accepted after restart")
	}
	// The genuine checkpoint block still fast-forwards.
	if res, err := restarted.peer.CommitBlock(blocks[1]); err != nil || !res.FastForwarded {
		t.Fatalf("genuine checkpoint block: res=%+v err=%v", res, err)
	}
}

// TestNewRejectsBadBackendConfig covers the selection plumbing end to end:
// unknown backend names and a disk backend without a data directory must
// fail peer construction (the per-backend matrix itself is unit-tested in
// internal/channel).
func TestNewRejectsBadBackendConfig(t *testing.T) {
	ca, err := cryptoid.NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	signer, err := ca.Issue("Org1.peer0")
	if err != nil {
		t.Fatal(err)
	}
	newPeer := func(committer CommitterConfig) (*Peer, error) {
		return New(Config{
			Name: "Org1.peer0", MSPID: "Org1", Channels: []string{"ch1"},
			Committer: committer,
		}, signer, cryptoid.NewMSP())
	}
	cases := map[string]CommitterConfig{
		"unknown-backend":  {Backend: "couchdb"},
		"disk-no-datadir":  {Backend: BackendDisk},
		"misspelled-entry": {Backend: "Memory"},
	}
	for name, committer := range cases {
		if _, err := newPeer(committer); err == nil {
			t.Errorf("%s: New accepted %+v", name, committer)
		}
	}
	for _, committer := range []CommitterConfig{
		{},
		{Backend: BackendMemory},
		{Backend: BackendSharded},
		{Backend: BackendDisk, DataDir: t.TempDir()},
	} {
		p, err := newPeer(committer)
		if err != nil {
			t.Errorf("New(%+v): %v", committer, err)
			continue
		}
		p.Close()
	}
}
