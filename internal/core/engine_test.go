package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/rwset"
	"fabriccrdt/internal/statedb"
)

// crdtTx builds a transaction with one CRDT write of value to key.
func crdtTx(id, key, value string) *ledger.Transaction {
	return &ledger.Transaction{
		ID: id,
		RWSet: rwset.ReadWriteSet{
			Reads:  []rwset.Read{{Key: key}},
			Writes: []rwset.Write{{Key: key, Value: []byte(value), IsCRDT: true}},
		},
	}
}

func plainTx(id, key, value string) *ledger.Transaction {
	return &ledger.Transaction{
		ID: id,
		RWSet: rwset.ReadWriteSet{
			Writes: []rwset.Write{{Key: key, Value: []byte(value)}},
		},
	}
}

func blockOf(txs ...*ledger.Transaction) *ledger.Block {
	return &ledger.Block{
		Header:       ledger.BlockHeader{Number: 1},
		Transactions: txs,
	}
}

func decodeJSON(t *testing.T, data []byte) map[string]any {
	t.Helper()
	var v map[string]any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("invalid JSON %q: %v", data, err)
	}
	return v
}

// TestPaperListing1and2 is the end-to-end golden test of the paper's §5.1
// example: two CRDT transactions writing to key "Device1" merge so that BOTH
// write sets carry the identical converged two-reading document.
func TestPaperListing1and2(t *testing.T) {
	db := statedb.New()
	e := NewEngine(db, Options{})
	tx1 := crdtTx("t1", "Device1", `{"tempReadings":[{"temperature":"15"}]}`)
	tx2 := crdtTx("t2", "Device1", `{"tempReadings":[{"temperature":"20"}]}`)
	block := blockOf(tx1, tx2)
	codes := make([]ledger.ValidationCode, 2)
	res, err := e.MergeBlock(block, codes)
	if err != nil {
		t.Fatal(err)
	}
	if codes[0] != ledger.CodeCRDTMerged || codes[1] != ledger.CodeCRDTMerged {
		t.Fatalf("codes = %v", codes)
	}
	want := decodeJSON(t, []byte(`{"tempReadings":[{"temperature":"15"},{"temperature":"20"}]}`))
	got1 := decodeJSON(t, tx1.RWSet.Writes[0].Value)
	got2 := decodeJSON(t, tx2.RWSet.Writes[0].Value)
	if !reflect.DeepEqual(got1, want) {
		t.Fatalf("tx1 write = %v, want %v", got1, want)
	}
	if !reflect.DeepEqual(got1, got2) {
		t.Fatalf("write sets differ: %v vs %v (Listing 2: identical)", got1, got2)
	}
	if len(res.MergedKeys) != 1 || res.MergedKeys[0] != "Device1" {
		t.Fatalf("merged keys = %v", res.MergedKeys)
	}
	if res.States[MetaPrefix+"Device1"] == nil {
		t.Fatal("document state not persisted")
	}
}

func TestCrossBlockSeeding(t *testing.T) {
	db := statedb.New()
	e := NewEngine(db, Options{})

	// Block 1: one reading.
	b1 := blockOf(crdtTx("t1", "dev", `{"r":[{"t":"15"}]}`))
	codes := make([]ledger.ValidationCode, 1)
	res1, err := e.MergeBlock(b1, codes)
	if err != nil {
		t.Fatal(err)
	}
	batch := statedb.NewUpdateBatch()
	StageDocStates(batch, res1)
	db.Apply(batch, rwset.Version{BlockNum: 1})

	// Block 2: a second reading must merge AFTER the persisted first.
	tx2 := crdtTx("t2", "dev", `{"r":[{"t":"20"}]}`)
	b2 := blockOf(tx2)
	codes2 := make([]ledger.ValidationCode, 1)
	if _, err := e.MergeBlock(b2, codes2); err != nil {
		t.Fatal(err)
	}
	got := decodeJSON(t, tx2.RWSet.Writes[0].Value)
	want := decodeJSON(t, []byte(`{"r":[{"t":"15"},{"t":"20"}]}`))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cross-block merge = %v, want %v (no update loss)", got, want)
	}
}

func TestNonCRDTTransactionsUntouched(t *testing.T) {
	db := statedb.New()
	e := NewEngine(db, Options{})
	plain := plainTx("p1", "k", "value")
	block := blockOf(plain, crdtTx("c1", "doc", `{"a":["x"]}`))
	codes := make([]ledger.ValidationCode, 2)
	if _, err := e.MergeBlock(block, codes); err != nil {
		t.Fatal(err)
	}
	if codes[0] != ledger.CodeNotValidated {
		t.Fatalf("plain tx code = %v, want NotValidated (left for MVCC)", codes[0])
	}
	if codes[1] != ledger.CodeCRDTMerged {
		t.Fatalf("crdt tx code = %v", codes[1])
	}
	if string(plain.RWSet.Writes[0].Value) != "value" {
		t.Fatal("plain write mutated")
	}
}

func TestPreFailedTransactionsNeverMerge(t *testing.T) {
	db := statedb.New()
	e := NewEngine(db, Options{})
	bad := crdtTx("bad", "doc", `{"a":["evil"]}`)
	good := crdtTx("good", "doc", `{"a":["ok"]}`)
	block := blockOf(bad, good)
	codes := []ledger.ValidationCode{ledger.CodeEndorsementFailure, ledger.CodeNotValidated}
	if _, err := e.MergeBlock(block, codes); err != nil {
		t.Fatal(err)
	}
	if codes[0] != ledger.CodeEndorsementFailure {
		t.Fatalf("failed tx code overwritten: %v", codes[0])
	}
	got := decodeJSON(t, good.RWSet.Writes[0].Value)
	if !reflect.DeepEqual(got["a"], []any{"ok"}) {
		t.Fatalf("converged doc includes rejected update: %v", got)
	}
	// The rejected transaction's write set must not be rewritten.
	if string(bad.RWSet.Writes[0].Value) != `{"a":["evil"]}` {
		t.Fatalf("rejected tx write mutated: %s", bad.RWSet.Writes[0].Value)
	}
}

func TestInvalidCRDTValueFailsTx(t *testing.T) {
	db := statedb.New()
	e := NewEngine(db, Options{})
	cases := []string{
		`not json`,
		`"scalar"`,
		`[1,2,3]`,
	}
	for _, bad := range cases {
		tx := crdtTx("t", "k", bad)
		codes := make([]ledger.ValidationCode, 1)
		if _, err := e.MergeBlock(blockOf(tx), codes); err != nil {
			t.Fatalf("MergeBlock(%q) hard error: %v", bad, err)
		}
		if codes[0] != ledger.CodeInvalidCRDT {
			t.Errorf("code for %q = %v, want InvalidCRDT", bad, codes[0])
		}
	}
}

func TestMixedWritesInOneTransaction(t *testing.T) {
	db := statedb.New()
	e := NewEngine(db, Options{})
	tx := &ledger.Transaction{
		ID: "mixed",
		RWSet: rwset.ReadWriteSet{
			Writes: []rwset.Write{
				{Key: "plain", Value: []byte("raw")},
				{Key: "doc", Value: []byte(`{"l":["v"]}`), IsCRDT: true},
			},
		},
	}
	codes := make([]ledger.ValidationCode, 1)
	if _, err := e.MergeBlock(blockOf(tx), codes); err != nil {
		t.Fatal(err)
	}
	if codes[0] != ledger.CodeCRDTMerged {
		t.Fatalf("code = %v", codes[0])
	}
	if string(tx.RWSet.Writes[0].Value) != "raw" {
		t.Fatal("non-CRDT write of CRDT tx mutated")
	}
	got := decodeJSON(t, tx.RWSet.Writes[1].Value)
	if !reflect.DeepEqual(got["l"], []any{"v"}) {
		t.Fatalf("CRDT write = %v", got)
	}
}

func TestDeterministicAcrossEngines(t *testing.T) {
	// Two peers (two engines over distinct DBs) must produce
	// byte-identical documents for the same block sequence.
	mkBlock := func() *ledger.Block {
		return blockOf(
			crdtTx("t1", "dev", `{"r":[{"t":"1"}],"id":"dev-a"}`),
			crdtTx("t2", "dev", `{"r":[{"t":"2"}]}`),
			crdtTx("t3", "dev2", `{"x":["y"]}`),
		)
	}
	run := func() (map[string][]byte, [][]byte) {
		db := statedb.New()
		e := NewEngine(db, Options{})
		block := mkBlock()
		codes := make([]ledger.ValidationCode, 3)
		res, err := e.MergeBlock(block, codes)
		if err != nil {
			t.Fatal(err)
		}
		var values [][]byte
		for _, tx := range block.Transactions {
			values = append(values, tx.RWSet.Writes[0].Value)
		}
		return res.States, values
	}
	s1, v1 := run()
	s2, v2 := run()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("doc states differ across peers")
	}
	if !reflect.DeepEqual(v1, v2) {
		t.Fatal("rewritten write sets differ across peers")
	}
}

// TestConvergedValueMatchesPersistedState is the reference for the finish
// pass: every merged write of a key carries exactly a fresh serialization
// of the state persisted for it, for a JSON key and a typed key alike. A paper-literal engine, which re-serializes per
// transaction and persists no document, commits the same bytes on the
// first block of an empty database.
func TestConvergedValueMatchesPersistedState(t *testing.T) {
	const n = 30
	mkBlock := func() *ledger.Block {
		var txs []*ledger.Transaction
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("t%02d", i)
			txs = append(txs,
				crdtTx(id+"j", "dev", fmt.Sprintf(`{"r":[{"t":%d}]}`, i)),
				typedTx(t, id+"c", "hits", counterDelta(id, uint64(i+1))))
		}
		return blockOf(txs...)
	}
	run := func(opts Options) (*statedb.DB, [][]byte) {
		db := statedb.New()
		block := mkBlock()
		codes := make([]ledger.ValidationCode, len(block.Transactions))
		res, err := NewEngine(db, opts).MergeBlock(block, codes)
		if err != nil {
			t.Fatal(err)
		}
		batch := statedb.NewUpdateBatch()
		StageDocStates(batch, res)
		db.Apply(batch, rwset.Version{BlockNum: 1})
		var values [][]byte
		for i, tx := range block.Transactions {
			if codes[i] != ledger.CodeCRDTMerged {
				t.Fatalf("tx %s code = %v", tx.ID, codes[i])
			}
			values = append(values, tx.RWSet.Writes[0].Value)
		}
		return db, values
	}
	db, values := run(Options{})
	doc, err := LoadDoc(db, "dev")
	if err != nil || doc == nil {
		t.Fatalf("LoadDoc = %v, %v", doc, err)
	}
	wantDoc, err := json.Marshal(doc.ToJSON())
	if err != nil {
		t.Fatal(err)
	}
	counter, err := LoadTypedCRDT(db, "hits")
	if err != nil || counter == nil {
		t.Fatalf("LoadTypedCRDT = %v, %v", counter, err)
	}
	wantCounter, err := json.Marshal(counter.Value())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		want := wantDoc
		if i%2 == 1 {
			want = wantCounter
		}
		if !bytes.Equal(v, want) {
			t.Fatalf("write %d = %s, want %s", i, v, want)
		}
	}

	_, literal := run(Options{PaperLiteral: true})
	if !reflect.DeepEqual(literal, values) {
		t.Fatal("paper-literal engine committed different values on a fresh database")
	}
}

func TestLoadDoc(t *testing.T) {
	db := statedb.New()
	e := NewEngine(db, Options{})
	res, err := e.MergeBlock(blockOf(crdtTx("t1", "dev", `{"r":["a"]}`)), make([]ledger.ValidationCode, 1))
	if err != nil {
		t.Fatal(err)
	}
	batch := statedb.NewUpdateBatch()
	StageDocStates(batch, res)
	db.Apply(batch, rwset.Version{BlockNum: 1})

	doc, err := LoadDoc(db, "dev")
	if err != nil || doc == nil {
		t.Fatalf("LoadDoc = %v, %v", doc, err)
	}
	if got := doc.ToJSON(); !reflect.DeepEqual(got["r"], []any{"a"}) {
		t.Fatalf("loaded doc = %v", got)
	}
	missing, err := LoadDoc(db, "never-written")
	if err != nil || missing != nil {
		t.Fatalf("LoadDoc(missing) = %v, %v", missing, err)
	}
}

func TestCorruptPersistedStateSurfacesError(t *testing.T) {
	db := statedb.New()
	batch := statedb.NewUpdateBatch()
	batch.PutMeta(MetaPrefix+"dev", []byte("corrupt"))
	db.Apply(batch, rwset.Version{BlockNum: 1})
	e := NewEngine(db, Options{})
	_, err := e.MergeBlock(blockOf(crdtTx("t", "dev", `{"a":["x"]}`)), make([]ledger.ValidationCode, 1))
	if err == nil {
		t.Fatal("corrupt persisted document must surface an error")
	}
	if _, err := LoadDoc(db, "dev"); err == nil {
		t.Fatal("LoadDoc over corrupt state must error")
	}
}

// TestNoUpdateLossManyConflictingTxs is the paper's "no update loss"
// requirement at block scale: N transactions all appending to the same key
// in one block; the converged document contains all N readings in order.
func TestNoUpdateLossManyConflictingTxs(t *testing.T) {
	db := statedb.New()
	e := NewEngine(db, Options{})
	const n = 200
	txs := make([]*ledger.Transaction, n)
	for i := range txs {
		v, err := json.Marshal(map[string]any{"r": []any{map[string]any{"t": float64(i)}}})
		if err != nil {
			t.Fatal(err)
		}
		txs[i] = crdtTx("t"+string(rune(i)), "dev", string(v))
		txs[i].ID = "tx-" + string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('A'+i%20))
	}
	codes := make([]ledger.ValidationCode, n)
	if _, err := e.MergeBlock(blockOf(txs...), codes); err != nil {
		t.Fatal(err)
	}
	got := decodeJSON(t, txs[n-1].RWSet.Writes[0].Value)
	readings := got["r"].([]any)
	if len(readings) != n {
		t.Fatalf("readings = %d, want %d (no update loss)", len(readings), n)
	}
	for i, r := range readings {
		if r.(map[string]any)["t"] != float64(i) {
			t.Fatalf("readings[%d] = %v (block order violated)", i, r)
		}
	}
}

func BenchmarkMergeBlock(b *testing.B) {
	for _, blockSize := range []int{25, 100, 400} {
		b.Run(benchName(blockSize), func(b *testing.B) {
			db := statedb.New()
			e := NewEngine(db, Options{})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				txs := make([]*ledger.Transaction, blockSize)
				for j := range txs {
					txs[j] = crdtTx("t", "dev", `{"r":[{"t":"21"}]}`)
				}
				codes := make([]ledger.ValidationCode, blockSize)
				if _, err := e.MergeBlock(blockOf(txs...), codes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(n int) string {
	return "blockSize=" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestMergeBlockHardErrorFirstInBlockOrder: with several corrupt persisted
// documents, MergeBlock reports the error of the one the block touches
// first, not the one that sorts or was stored first.
func TestMergeBlockHardErrorFirstInBlockOrder(t *testing.T) {
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
	_, err := e.MergeBlock(block, make([]ledger.ValidationCode, 2))
	if err == nil {
		t.Fatal("corrupt state must error")
	}
	if !strings.Contains(err.Error(), `"k2"`) || strings.Contains(err.Error(), `"k1"`) {
		t.Fatalf("error = %q, want the first write's key k2", err)
	}
}
