package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"fabriccrdt/internal/crdt"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/rwset"
	"fabriccrdt/internal/statedb"
)

// typedTx builds a transaction writing one typed-CRDT delta.
func typedTx(t *testing.T, id, key string, c crdt.CRDT) *ledger.Transaction {
	t.Helper()
	state, err := c.StateJSON()
	if err != nil {
		t.Fatal(err)
	}
	return &ledger.Transaction{
		ID: id,
		RWSet: rwset.ReadWriteSet{
			Writes: []rwset.Write{{Key: key, Value: state, IsCRDT: true, CRDTType: c.TypeName()}},
		},
	}
}

// counterDelta builds a one-shot G-Counter increment bound to the tx ID.
func counterDelta(txID string, n uint64) *crdt.GCounter {
	c := crdt.NewGCounter()
	c.Increment(txID, n)
	return c
}

func commitMerge(t *testing.T, db *statedb.DB, e *Engine, blockNum uint64, txs ...*ledger.Transaction) []ledger.ValidationCode {
	t.Helper()
	block := &ledger.Block{Header: ledger.BlockHeader{Number: blockNum}, Transactions: txs}
	codes := make([]ledger.ValidationCode, len(txs))
	res, err := e.MergeBlock(block, codes)
	if err != nil {
		t.Fatal(err)
	}
	batch := statedb.NewUpdateBatch()
	for i, tx := range txs {
		if codes[i].Committed() {
			for _, w := range tx.RWSet.Writes {
				batch.Put(w.Key, w.Value, rwset.Version{BlockNum: blockNum, TxNum: uint64(i)})
			}
		}
	}
	StageDocStates(batch, res)
	db.Apply(batch, rwset.Version{BlockNum: blockNum})
	return codes
}

// TestTypedCounterMergesConflictingIncrements is the paper's §2.2
// grow-only-counter example running through the merge engine: three
// conflicting increments in one block all commit and sum.
func TestTypedCounterMergesConflictingIncrements(t *testing.T) {
	db := statedb.New()
	e := NewEngine(db, Options{})
	codes := commitMerge(t, db, e, 1,
		typedTx(t, "t1", "votes", counterDelta("t1", 3)),
		typedTx(t, "t2", "votes", counterDelta("t2", 4)),
		typedTx(t, "t3", "votes", counterDelta("t3", 5)),
	)
	for i, code := range codes {
		if code != ledger.CodeCRDTMerged {
			t.Fatalf("tx%d code = %v", i+1, code)
		}
	}
	vv, ok := db.Get("votes")
	if !ok {
		t.Fatal("votes not committed")
	}
	var total float64
	if err := json.Unmarshal(vv.Value, &total); err != nil {
		t.Fatal(err)
	}
	if total != 12 {
		t.Fatalf("counter = %v, want 12 (3+4+5, no lost increments)", total)
	}
}

func TestTypedCounterAccumulatesAcrossBlocks(t *testing.T) {
	db := statedb.New()
	e := NewEngine(db, Options{})
	commitMerge(t, db, e, 1, typedTx(t, "t1", "votes", counterDelta("t1", 10)))
	commitMerge(t, db, e, 2, typedTx(t, "t2", "votes", counterDelta("t2", 5)))
	vv, _ := db.Get("votes")
	var total float64
	if err := json.Unmarshal(vv.Value, &total); err != nil {
		t.Fatal(err)
	}
	if total != 15 {
		t.Fatalf("counter = %v, want 15 across blocks", total)
	}
	// The persisted state is inspectable.
	c, err := LoadTypedCRDT(db, "votes")
	if err != nil || c == nil {
		t.Fatalf("LoadTypedCRDT = %v, %v", c, err)
	}
	if c.(*crdt.GCounter).Sum() != 15 {
		t.Fatalf("loaded sum = %d", c.(*crdt.GCounter).Sum())
	}
}

func TestTypedORSetMerge(t *testing.T) {
	db := statedb.New()
	e := NewEngine(db, Options{})
	mkSet := func(txID string, add ...string) *crdt.ORSet {
		s := crdt.NewORSet()
		s.Bind(txID)
		for _, v := range add {
			s.Add(v)
		}
		return s
	}
	codes := commitMerge(t, db, e, 1,
		typedTx(t, "t1", "participants", mkSet("t1", "alice", "bob")),
		typedTx(t, "t2", "participants", mkSet("t2", "carol")),
	)
	if codes[0] != ledger.CodeCRDTMerged || codes[1] != ledger.CodeCRDTMerged {
		t.Fatalf("codes = %v", codes)
	}
	vv, _ := db.Get("participants")
	var members []string
	if err := json.Unmarshal(vv.Value, &members); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(members, []string{"alice", "bob", "carol"}) {
		t.Fatalf("members = %v", members)
	}
}

func TestTypedUnknownTypeFailsTx(t *testing.T) {
	db := statedb.New()
	e := NewEngine(db, Options{})
	tx := &ledger.Transaction{
		ID: "t1",
		RWSet: rwset.ReadWriteSet{
			Writes: []rwset.Write{{Key: "k", Value: []byte("{}"), IsCRDT: true, CRDTType: "no-such-type"}},
		},
	}
	codes := commitMerge(t, db, e, 1, tx)
	if codes[0] != ledger.CodeInvalidCRDT {
		t.Fatalf("code = %v, want INVALID_CRDT_VALUE", codes[0])
	}
}

func TestTypedBadStateFailsTx(t *testing.T) {
	db := statedb.New()
	e := NewEngine(db, Options{})
	tx := &ledger.Transaction{
		ID: "t1",
		RWSet: rwset.ReadWriteSet{
			Writes: []rwset.Write{{Key: "k", Value: []byte("not json"), IsCRDT: true, CRDTType: crdt.TypeGCounter}},
		},
	}
	codes := commitMerge(t, db, e, 1, tx)
	if codes[0] != ledger.CodeInvalidCRDT {
		t.Fatalf("code = %v", codes[0])
	}
}

func TestTypedTypeConflictWithinBlockFailsLaterTx(t *testing.T) {
	db := statedb.New()
	e := NewEngine(db, Options{})
	codes := commitMerge(t, db, e, 1,
		typedTx(t, "t1", "k", counterDelta("t1", 1)),
		typedTx(t, "t2", "k", func() *crdt.GSet { s := crdt.NewGSet(); s.Add("x"); return s }()),
	)
	if codes[0] != ledger.CodeCRDTMerged {
		t.Fatalf("first tx = %v", codes[0])
	}
	if codes[1] != ledger.CodeInvalidCRDT {
		t.Fatalf("conflicting-type tx = %v, want INVALID_CRDT_VALUE", codes[1])
	}
}

func TestTypedVsJSONConflictFailsLaterTx(t *testing.T) {
	db := statedb.New()
	e := NewEngine(db, Options{})
	jsonTx := crdtTx("tj", "k", `{"a":["x"]}`)
	typed := typedTx(t, "tt", "k", counterDelta("tt", 1))
	codes := commitMerge(t, db, e, 1, jsonTx, typed)
	if codes[0] != ledger.CodeCRDTMerged {
		t.Fatalf("json tx = %v", codes[0])
	}
	if codes[1] != ledger.CodeInvalidCRDT {
		t.Fatalf("typed-over-json tx = %v", codes[1])
	}
}

func TestTypedPersistedTypeMismatchFailsTx(t *testing.T) {
	db := statedb.New()
	e := NewEngine(db, Options{})
	commitMerge(t, db, e, 1, typedTx(t, "t1", "k", counterDelta("t1", 1)))
	// Next block writes the same key as a different datatype.
	set := crdt.NewGSet()
	set.Add("x")
	codes := commitMerge(t, db, e, 2, typedTx(t, "t2", "k", set))
	if codes[0] != ledger.CodeInvalidCRDT {
		t.Fatalf("code = %v, want INVALID_CRDT_VALUE", codes[0])
	}
}

// TestKindFixedAcrossBlocks: a key merged as a JSON document in one block
// refuses a typed write in a later block, and vice versa, instead of
// switching kind and leaving both states persisted.
func TestKindFixedAcrossBlocks(t *testing.T) {
	t.Run("json then typed", func(t *testing.T) {
		db := statedb.New()
		e := NewEngine(db, Options{})
		commitMerge(t, db, e, 1, crdtTx("t1", "k", `{"a":["x"]}`))
		if codes := commitMerge(t, db, e, 2, typedTx(t, "t2", "k", counterDelta("t2", 1))); codes[0] != ledger.CodeInvalidCRDT {
			t.Fatalf("typed write over a JSON key = %v, want INVALID_CRDT_VALUE", codes[0])
		}
		codes := commitMerge(t, db, e, 3, crdtTx("t3", "k", `{"a":["y"]}`))
		if codes[0] != ledger.CodeCRDTMerged {
			t.Fatalf("JSON write = %v", codes[0])
		}
		vv, _ := db.Get("k")
		if got := decodeJSON(t, vv.Value); !reflect.DeepEqual(got["a"], []any{"x", "y"}) {
			t.Fatalf("k = %v, want both readings", got)
		}
		if c, err := LoadTypedCRDT(db, "k"); err != nil || c != nil {
			t.Fatalf("typed state persisted for a JSON key: %v, %v", c, err)
		}
	})
	t.Run("typed then json", func(t *testing.T) {
		db := statedb.New()
		e := NewEngine(db, Options{})
		commitMerge(t, db, e, 1, typedTx(t, "t1", "k", counterDelta("t1", 2)))
		if codes := commitMerge(t, db, e, 2, crdtTx("t2", "k", `{"a":["x"]}`)); codes[0] != ledger.CodeInvalidCRDT {
			t.Fatalf("JSON write over a typed key = %v, want INVALID_CRDT_VALUE", codes[0])
		}
		commitMerge(t, db, e, 3, typedTx(t, "t3", "k", counterDelta("t3", 5)))
		vv, _ := db.Get("k")
		if string(vv.Value) != "7" {
			t.Fatalf("k = %s, want 7", vv.Value)
		}
		if doc, err := LoadDoc(db, "k"); err != nil || doc != nil {
			t.Fatalf("JSON document persisted for a typed key: %v, %v", doc, err)
		}
	})
}

func TestTypedCorruptPersistedStateIsHardError(t *testing.T) {
	db := statedb.New()
	batch := statedb.NewUpdateBatch()
	batch.PutMeta(TypedMetaPrefix+"k", []byte("corrupt"))
	db.Apply(batch, rwset.Version{BlockNum: 1})
	e := NewEngine(db, Options{})
	block := &ledger.Block{
		Header:       ledger.BlockHeader{Number: 2},
		Transactions: []*ledger.Transaction{typedTx(t, "t1", "k", counterDelta("t1", 1))},
	}
	if _, err := e.MergeBlock(block, make([]ledger.ValidationCode, 1)); err == nil {
		t.Fatal("corrupt persisted typed state must be a hard error")
	}
}

func TestLoadTypedCRDTMissing(t *testing.T) {
	db := statedb.New()
	c, err := LoadTypedCRDT(db, "never")
	if err != nil || c != nil {
		t.Fatalf("LoadTypedCRDT(missing) = %v, %v", c, err)
	}
}

// TestSeededDocKeepsEarlierBlocks pins the clarification of Algorithm 1
// that DESIGN.md §3 records: a JSON key's merge is seeded from its
// persisted state, so a later block's converged document extends the
// earlier blocks' readings instead of replacing them (no update loss
// across blocks).
func TestSeededDocKeepsEarlierBlocks(t *testing.T) {
	db := statedb.New()
	e := NewEngine(db, Options{})
	commitMerge(t, db, e, 1, crdtTx("t1", "dev", `{"r":["a"]}`))
	commitMerge(t, db, e, 2, crdtTx("t2", "dev", `{"r":["b"]}`))
	vv, ok := db.Get("dev")
	if !ok {
		t.Fatal("dev missing")
	}
	var doc map[string]any
	if err := json.Unmarshal(vv.Value, &doc); err != nil {
		t.Fatal(err)
	}
	if list, _ := doc["r"].([]any); len(list) != 2 {
		t.Fatalf("readings = %v, want 2 (block 2 extends block 1)", doc["r"])
	}
}
