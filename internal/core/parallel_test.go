package core

import (
	"fmt"
	"reflect"
	"testing"

	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/rwset"
	"fabriccrdt/internal/statedb"
)

// mixedBlock builds a block spreading CRDT writes over several keys, with
// multi-key transactions, bad deltas, typed-CRDT writes and a doc/typed
// route conflict — every classification the merge engine distinguishes.
func mixedBlock(keys, txs int) *ledger.Block {
	var list []*ledger.Transaction
	for i := 0; i < txs; i++ {
		k1 := fmt.Sprintf("dev%d", i%keys)
		k2 := fmt.Sprintf("dev%d", (i+1)%keys)
		writes := []rwset.Write{
			{Key: k1, Value: []byte(fmt.Sprintf(`{"r":[{"t":%d}]}`, i)), IsCRDT: true},
			{Key: k2, Value: []byte(fmt.Sprintf(`{"s":[{"u":%d}]}`, i)), IsCRDT: true},
		}
		list = append(list, &ledger.Transaction{
			ID:    fmt.Sprintf("tx%d", i),
			RWSet: rwset.ReadWriteSet{Writes: writes},
		})
	}
	// A bad delta on a shared key after a valid write to another key.
	list = append(list, &ledger.Transaction{
		ID: "bad",
		RWSet: rwset.ReadWriteSet{Writes: []rwset.Write{
			{Key: "dev0", Value: []byte(`{"r":[{"t":999}]}`), IsCRDT: true},
			{Key: "dev1", Value: []byte(`not json`), IsCRDT: true},
		}},
	})
	// Typed CRDT writes on their own key.
	for i := 0; i < 4; i++ {
		list = append(list, &ledger.Transaction{
			ID: fmt.Sprintf("cnt%d", i),
			RWSet: rwset.ReadWriteSet{Writes: []rwset.Write{
				{Key: "hits", Value: []byte(fmt.Sprintf(`{"replica%d":%d}`, i, i+1)), IsCRDT: true, CRDTType: "g-counter"},
			}},
		})
	}
	// Route conflict: "hits" was typed first, a JSON write to it must fail.
	list = append(list, &ledger.Transaction{
		ID: "conflict",
		RWSet: rwset.ReadWriteSet{Writes: []rwset.Write{
			{Key: "hits", Value: []byte(`{"a":["x"]}`), IsCRDT: true},
		}},
	})
	return &ledger.Block{Header: ledger.BlockHeader{Number: 1}, Transactions: list}
}

// TestMergeWorkersEquivalence: the merge must be byte-identical to the
// serial merge (one worker, which is MergeBlock) at every worker count,
// across two consecutive blocks (exercising cross-block seeding through the
// persisted states).
func TestMergeWorkersEquivalence(t *testing.T) {
	type outcome struct {
		codes  []ledger.ValidationCode
		values map[string][]byte
		res    Result
	}
	run := func(workers int) []outcome {
		db := statedb.New()
		e := NewEngine(db, Options{})
		var out []outcome
		for blk := uint64(1); blk <= 2; blk++ {
			block := mixedBlock(5, 40)
			block.Header.Number = blk
			codes := make([]ledger.ValidationCode, len(block.Transactions))
			res, err := e.MergeCandidates(block, codes, CRDTCandidates(block, codes), workers)
			if err != nil {
				t.Fatal(err)
			}
			values := make(map[string][]byte)
			for _, tx := range block.Transactions {
				for wi, w := range tx.RWSet.Writes {
					values[fmt.Sprintf("%s/%d", tx.ID, wi)] = w.Value
				}
			}
			batch := statedb.NewUpdateBatch()
			StageDocStates(batch, res)
			db.Apply(batch, rwset.Version{BlockNum: blk})
			out = append(out, outcome{codes: codes, values: values, res: res})
		}
		return out
	}
	baseline := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		for blk := range baseline {
			if !reflect.DeepEqual(baseline[blk].codes, got[blk].codes) {
				t.Errorf("workers=%d block %d: codes = %v, want %v", workers, blk+1, got[blk].codes, baseline[blk].codes)
			}
			if !reflect.DeepEqual(baseline[blk].values, got[blk].values) {
				t.Errorf("workers=%d block %d: rewritten write sets differ", workers, blk+1)
			}
			if !reflect.DeepEqual(baseline[blk].res, got[blk].res) {
				t.Errorf("workers=%d block %d: results differ:\n got %+v\nwant %+v", workers, blk+1, got[blk].res, baseline[blk].res)
			}
		}
	}
	// Sanity: the workload exercised failures and both merge routes.
	count := make(map[ledger.ValidationCode]int)
	for _, c := range baseline[0].codes {
		count[c]++
	}
	if count[ledger.CodeInvalidCRDT] != 2 || count[ledger.CodeCRDTMerged] == 0 {
		t.Fatalf("workload degenerate, code mix = %v", count)
	}
	if baseline[0].res.States[TypedMetaPrefix+"hits"] == nil {
		t.Fatal("typed state not persisted")
	}
}

// TestMergeWorkersHardErrorDeterministic: with several corrupt persisted
// documents, every worker count must surface the error of the earliest
// affected write in block order.
func TestMergeWorkersHardErrorDeterministic(t *testing.T) {
	errOf := func(workers int) string {
		db := statedb.New()
		batch := statedb.NewUpdateBatch()
		batch.PutMeta(MetaPrefix+"k1", []byte("corrupt-1"))
		batch.PutMeta(MetaPrefix+"k2", []byte("corrupt-2"))
		db.Apply(batch, rwset.Version{BlockNum: 1})
		e := NewEngine(db, Options{})
		block := blockOf(
			crdtTx("t1", "k2", `{"a":["x"]}`),
			crdtTx("t2", "k1", `{"a":["y"]}`),
		)
		codes := make([]ledger.ValidationCode, 2)
		_, err := e.MergeCandidates(block, codes, CRDTCandidates(block, codes), workers)
		if err == nil {
			t.Fatalf("workers=%d: corrupt state must error", workers)
		}
		return err.Error()
	}
	want := errOf(1)
	for _, workers := range []int{2, 4, 8} {
		if got := errOf(workers); got != want {
			t.Errorf("workers=%d error = %q, want %q", workers, got, want)
		}
	}
}
