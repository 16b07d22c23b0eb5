package peer

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fabriccrdt/internal/chaincode"
	"fabriccrdt/internal/ledger"
)

// readOnlyChaincode reads a key and writes nothing.
func readOnlyChaincode() chaincode.Chaincode {
	return chaincode.Func(func(stub chaincode.Stub) error {
		_, params := stub.Function()
		_, err := stub.GetState(params[0])
		return err
	})
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

// TestFinalizeAllConflicting: every transaction writes the same plain key —
// exactly the first writer wins.
func TestFinalizeAllConflicting(t *testing.T) {
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

// TestFinalizeAllIndependent: disjoint keys — every transaction commits.
func TestFinalizeAllIndependent(t *testing.T) {
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

// TestFinalizeReadOnly: read-only transactions commit as valid and order
// correctly around a writer of the same key.
func TestFinalizeReadOnly(t *testing.T) {
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

// TestFinalizeInvalidCRDTInChain: an INVALID_CRDT transaction in the middle
// of a document chain fails, but its intact delta still extends the
// document — at every worker count.
func TestFinalizeInvalidCRDTInChain(t *testing.T) {
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
