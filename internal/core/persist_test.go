package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fabriccrdt/internal/crdt"
	"fabriccrdt/internal/jsoncrdt"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/rwset"
	"fabriccrdt/internal/statedb"
	"fabriccrdt/internal/workload"
)

// hotBlock builds block n of an iot_hot-shaped stream: writes transactions,
// each merging the IoT workload's delta of its sequence number into the
// hot key.
func hotBlock(gen *workload.IoTGenerator, key string, n uint64, writes int) *ledger.Block {
	block := &ledger.Block{Header: ledger.BlockHeader{Number: n}}
	for j := 0; j < writes; j++ {
		seq := int(n-1)*writes + j
		block.Transactions = append(block.Transactions, &ledger.Transaction{
			ID: fmt.Sprintf("tx%d", seq),
			RWSet: rwset.ReadWriteSet{
				Reads:  []rwset.Read{{Key: key}},
				Writes: []rwset.Write{{Key: key, Value: gen.Delta(seq), IsCRDT: true}},
			},
		})
	}
	return block
}

// mergeAndApply merges block through e and applies its commit batch.
func mergeAndApply(tb testing.TB, db *statedb.DB, e *Engine, block *ledger.Block) Result {
	tb.Helper()
	codes := make([]ledger.ValidationCode, len(block.Transactions))
	res, err := e.MergeBlock(block, codes)
	if err != nil {
		tb.Fatal(err)
	}
	batch := statedb.NewUpdateBatch()
	for i, tx := range block.Transactions {
		if codes[i].Committed() {
			for _, w := range tx.RWSet.Writes {
				batch.Put(w.Key, w.Value, rwset.Version{BlockNum: block.Header.Number, TxNum: uint64(i)})
			}
		}
	}
	StageDocStates(batch, res)
	db.Apply(batch, rwset.Version{BlockNum: block.Header.Number})
	return res
}

// TestHotKeyPersistIsODelta: what a block persists for a hot key does not
// grow with the key's history. Over 2,000 iot_hot-shaped blocks into one
// key, a block that writes no snapshot stages about as many bytes at depth
// 2,000 as at depth 100, and the snapshots written along the way add up to
// no more than the deltas written between them plus the last one.
func TestHotKeyPersistIsODelta(t *testing.T) {
	const (
		blocks = 2000
		writes = 1  // the property holds per block at any size; 1 keeps value() cheap
		window = 20 // non-snapshot blocks averaged at each depth
	)
	gen := workload.NewIoT(workload.IoTParams{ConflictPct: 100})
	key := gen.HotKeys()[0]
	db := statedb.New()
	e := NewEngine(db, Options{})
	deltaStaged := make([]int, blocks+1) // by block; 0 for a snapshot block
	var snapTotal, deltaTotal, lastSnap, snapshots int
	for n := uint64(1); n <= blocks; n++ {
		res := mergeAndApply(t, db, e, hotBlock(gen, key, n, writes))
		if len(res.States) != 1 {
			t.Fatalf("block %d staged %d records for one key", n, len(res.States))
		}
		for metaKey, rec := range res.States {
			if metaKey == MetaPrefix+key {
				snapTotal += len(rec)
				lastSnap = len(rec)
				snapshots++
				continue
			}
			deltaTotal += len(rec)
			deltaStaged[n] = len(rec)
		}
	}
	// meanAt averages the last window non-snapshot blocks up to depth.
	meanAt := func(depth int) float64 {
		sum, count := 0, 0
		for n := depth; n > 0 && count < window; n-- {
			if deltaStaged[n] > 0 {
				sum += deltaStaged[n]
				count++
			}
		}
		if count < window {
			t.Fatalf("only %d non-snapshot blocks up to depth %d", count, depth)
		}
		return float64(sum) / float64(count)
	}
	shallow, deep := meanAt(100), meanAt(blocks)
	t.Logf("%d snapshots (%d B, last %d B), %d B of deltas; per non-snapshot block %.0f B at depth 100, %.0f B at depth %d",
		snapshots, snapTotal, lastSnap, deltaTotal, shallow, deep, blocks)
	if deep > 2*shallow {
		t.Errorf("a non-snapshot block stages %.0f B at depth %d against %.0f B at depth 100: persist cost grows with history", deep, blocks, shallow)
	}
	if snapTotal > deltaTotal+lastSnap {
		t.Errorf("snapshots total %d B, more than the %d B of deltas plus the last snapshot (%d B)", snapTotal, deltaTotal, lastSnap)
	}
}

// TestDeltaSlotsKeepKeysApart: ledger keys whose names would collide
// under a naive prefix + key + slot concatenation ("a" slot 12 and "a1"
// slot 2 are both "a12"), plus keys holding the separator, each keep an
// independent document across several generations of snapshots and
// deltas, in the engine and when loaded back.
func TestDeltaSlotsKeepKeysApart(t *testing.T) {
	keys := []string{"a", "a1", "a12", "1/a", "2/a", "a/1"}
	db := statedb.New()
	e := NewEngine(db, Options{})
	want := make(map[string]*jsoncrdt.Doc)
	for _, k := range keys {
		want[k] = jsoncrdt.NewDoc(MergeReplica)
	}
	staged := make(map[string]bool) // every metadata key a block wrote
	snapshotsOfA := 0
	for n := uint64(1); n <= 120; n++ {
		var txs []*ledger.Transaction
		for i, k := range keys {
			// A long first reading and short later ones give long
			// generations, so slots reach two digits.
			v := fmt.Sprintf(`{"r":[%q]}`, fmt.Sprintf("%s-%d", k, n))
			if n == 1 {
				v = fmt.Sprintf(`{"r":[%q]}`, strings.Repeat(k, 200))
			}
			if err := want[k].MergeJSON(decodeAny(t, v)); err != nil {
				t.Fatal(err)
			}
			txs = append(txs, crdtTx(fmt.Sprintf("b%d-%d", n, i), k, v))
		}
		res := mergeAndApply(t, db, e, blockOf(txs...))
		for metaKey := range res.States {
			staged[metaKey] = true
			if metaKey == MetaPrefix+"a" {
				snapshotsOfA++
			}
		}
		if n%7 == 0 {
			e = NewEngine(db, Options{}) // restart: load every key back
		}
		for _, k := range keys {
			loaded, err := LoadDoc(db, k)
			if err != nil || loaded == nil {
				t.Fatalf("block %d: LoadDoc(%q) = %v, %v", n, k, loaded, err)
			}
			if !reflect.DeepEqual(loaded.ToJSON(), want[k].ToJSON()) {
				t.Fatalf("block %d: key %q loaded as %v, want %v", n, k, loaded.ToJSON(), want[k].ToJSON())
			}
			vv, _ := db.Get(k)
			if got := decodeJSON(t, vv.Value); !reflect.DeepEqual(got, want[k].ToJSON()) {
				t.Fatalf("block %d: key %q committed %v, want %v", n, k, got, want[k].ToJSON())
			}
		}
	}
	if snapshotsOfA < 2 {
		t.Fatalf("stream too short: %d snapshots of a", snapshotsOfA)
	}
	for _, slot := range []string{deltaKey("a", 12), deltaKey("a1", 2)} {
		if !staged[slot] {
			t.Fatalf("stream too short to collide: %s never staged", slot)
		}
	}
}

func decodeAny(t *testing.T, v string) any {
	t.Helper()
	return decodeJSON(t, []byte(v))
}

// TestPreSnapshotFormatRefused: a datadir written before snapshot-plus-
// delta persistence holds a bare state under crdt/<key> or crdtt/<key>.
// Merging into such a key — as either kind — or loading it fails with an
// error that names the key and the format; nothing is re-seeded.
func TestPreSnapshotFormatRefused(t *testing.T) {
	doc := jsoncrdt.NewDoc(MergeReplica)
	if err := doc.MergeJSON(decodeAny(t, `{"r":["x"]}`)); err != nil {
		t.Fatal(err)
	}
	oldDoc, err := doc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	oldCounter, err := crdt.Marshal(counterDelta("t0", 3))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, metaKey string
		old           []byte
		tx            *ledger.Transaction
	}{
		{"json", MetaPrefix + "k", oldDoc, crdtTx("t1", "k", `{"r":["y"]}`)},
		{"typed", TypedMetaPrefix + "k", oldCounter, typedTx(t, "t1", "k", counterDelta("t1", 1))},
		{"typed write over an old json key", MetaPrefix + "k", oldDoc, typedTx(t, "t1", "k", counterDelta("t1", 1))},
		{"json write over an old typed key", TypedMetaPrefix + "k", oldCounter, crdtTx("t1", "k", `{"r":["y"]}`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := statedb.New()
			batch := statedb.NewUpdateBatch()
			batch.PutMeta(tc.metaKey, tc.old)
			db.Apply(batch, rwset.Version{BlockNum: 1})
			_, err := NewEngine(db, Options{}).MergeBlock(blockOf(tc.tx), make([]ledger.ValidationCode, 1))
			if err == nil || !strings.Contains(err.Error(), `"k"`) || !strings.Contains(err.Error(), "pre-snapshot format") {
				t.Fatalf("merge over an old-format state: err = %v", err)
			}
			if !bytes.Equal(db.GetMeta(tc.metaKey), tc.old) {
				t.Fatal("old-format state was overwritten")
			}
			var loadErr error
			if tc.metaKey == MetaPrefix+"k" {
				_, loadErr = LoadDoc(db, "k")
			} else {
				_, loadErr = LoadTypedCRDT(db, "k")
			}
			if loadErr == nil || !strings.Contains(loadErr.Error(), "pre-snapshot format") {
				t.Fatalf("loading an old-format state: err = %v", loadErr)
			}
		})
	}
}

// BenchmarkHotKeyBlock prices one 25-write iot_hot block into a hot key
// whose document already holds depth readings: MergeBlock plus
// StageDocStates, with the batch applied outside the timer. Each
// iteration adds 25 readings, so the depth drifts up by 25 × b.N.
func BenchmarkHotKeyBlock(b *testing.B) {
	const writes = 25
	for _, depth := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			gen := workload.NewIoT(workload.IoTParams{ConflictPct: 100})
			key := gen.HotKeys()[0]
			db := statedb.New()
			e := NewEngine(db, Options{})
			n := uint64(1)
			for ; n <= uint64(depth/writes); n++ {
				mergeAndApply(b, db, e, hotBlock(gen, key, n, writes))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				block := hotBlock(gen, key, n, writes)
				codes := make([]ledger.ValidationCode, writes)
				b.StartTimer()
				res, err := e.MergeBlock(block, codes)
				if err != nil {
					b.Fatal(err)
				}
				batch := statedb.NewUpdateBatch()
				StageDocStates(batch, res)
				b.StopTimer()
				db.Apply(batch, rwset.Version{BlockNum: n})
				n++
				b.StartTimer()
			}
		})
	}
}
