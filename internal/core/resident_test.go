package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fabriccrdt/internal/crdt"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/rwset"
	"fabriccrdt/internal/statedb"
)

// TestRenderingSurvivesPersistence: a value whose encoding the persisted
// state used to drop — a nested empty list, a negative zero — commits the
// same in the block that wrote it and in every later block, whether the
// later block's engine kept the document resident or decoded it from the
// persisted bytes after a restart.
func TestRenderingSurvivesPersistence(t *testing.T) {
	cases := []struct{ first, want string }{
		{`{"k":[[]]}`, `{"k":[[]],"x":"1"}`},
		{`{"k":[{},[[],[[]]]]}`, `{"k":[{},[[],[[]]]],"x":"1"}`},
		{`{"z":-0}`, `{"x":"1","z":-0}`},
	}
	for _, tc := range cases {
		for _, restart := range []bool{false, true} {
			db := statedb.New()
			e := NewEngine(db, Options{})
			commitMerge(t, db, e, 1, crdtTx("t1", "dev", tc.first))
			if restart {
				e = NewEngine(db, Options{})
			}
			commitMerge(t, db, e, 2, crdtTx("t2", "dev", `{"x":"1"}`))
			if vv, _ := db.Get("dev"); string(vv.Value) != tc.want {
				t.Errorf("%s then {\"x\":\"1\"}, restart=%v: committed %s, want %s", tc.first, restart, vv.Value, tc.want)
			}
		}
	}
}

// typedDeltas builds the i-th delta of each registered classic datatype,
// mixing adds with removes and overwrites where the datatype has them.
var typedDeltas = map[string]func(i int) crdt.CRDT{
	crdt.TypeGCounter: func(i int) crdt.CRDT {
		c := crdt.NewGCounter()
		c.Increment(fmt.Sprintf("r%d", i%3), uint64(i+1))
		return c
	},
	crdt.TypePNCounter: func(i int) crdt.CRDT {
		c := crdt.NewPNCounter()
		c.Increment(fmt.Sprintf("r%d", i%3), int64(i%4)-2)
		return c
	},
	crdt.TypeGSet: func(i int) crdt.CRDT {
		s := crdt.NewGSet()
		s.Add(fmt.Sprintf("v%d", i%4))
		return s
	},
	crdt.TypeORSet: func(i int) crdt.CRDT {
		s := crdt.NewORSet()
		s.Bind(fmt.Sprintf("tx%d", i))
		s.Add(fmt.Sprintf("v%d", i%3))
		if i%2 == 1 {
			s.Add("gone")
			s.Remove("gone")
		}
		return s
	},
	crdt.TypeLWWRegister: func(i int) crdt.CRDT {
		r := crdt.NewLWWRegister()
		r.Bind(fmt.Sprintf("tx%d", i))
		r.Set(fmt.Sprintf("v%d", i))
		return r
	},
	crdt.TypeLWWMap: func(i int) crdt.CRDT {
		m := crdt.NewLWWMap()
		m.Bind(fmt.Sprintf("tx%d", i))
		m.Set(fmt.Sprintf("k%d", i%3), fmt.Sprintf("v%d", i))
		if i%2 == 1 {
			m.Delete(fmt.Sprintf("k%d", (i+1)%3))
		}
		return m
	},
	crdt.TypeGraph: func(i int) crdt.CRDT {
		g := crdt.NewGraph()
		g.Bind(fmt.Sprintf("tx%d", i))
		g.AddEdge(fmt.Sprintf("n%d", i%3), fmt.Sprintf("n%d", (i+1)%3))
		if i%2 == 1 {
			g.AddVertex("gone")
			g.RemoveVertex("gone")
		}
		return g
	},
}

// TestTypedStateRoundTrip is FuzzDocStateRoundTrip's property for every
// registered classic datatype: after each merge, the state decoded through
// crdt.Marshal and LoadTypedCRDT persists the same bytes and commits the
// same value as the merged one, and stays equal to it after one further
// identical merge into both.
func TestTypedStateRoundTrip(t *testing.T) {
	for _, name := range types.Types() {
		delta := typedDeltas[name]
		if delta == nil {
			t.Fatalf("no delta generator for registered datatype %s", name)
		}
		acc, err := types.New(name)
		if err != nil {
			t.Fatal(err)
		}
		st := &typedState{key: "k", acc: acc}
		for i := 0; i < 8; i++ {
			decoded := decodeTyped(t, st)
			requireSameState(t, name, st, decoded)
			w := typedTx(t, "t", "k", delta(i)).RWSet.Writes[0]
			if err := st.merge(&w); err != nil {
				t.Fatalf("%s delta %d: %v", name, i, err)
			}
			if err := decoded.merge(&w); err != nil {
				t.Fatalf("%s delta %d into the decoded state: %v", name, i, err)
			}
			requireSameState(t, name, st, decoded)
		}
	}
}

// decodeTyped persists st as a snapshot into a fresh database and loads it
// back.
func decodeTyped(t *testing.T, st *typedState) *typedState {
	t.Helper()
	log := keyLog{snapKey: TypedMetaPrefix + st.key}
	metaKey, state, err := log.appendRecord(st.key, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := statedb.New()
	batch := statedb.NewUpdateBatch()
	batch.PutMeta(metaKey, bytes.Clone(state))
	db.Apply(batch, rwset.Version{BlockNum: 1})
	acc, err := LoadTypedCRDT(db, st.key)
	if err != nil || acc == nil {
		t.Fatalf("LoadTypedCRDT = %v, %v", acc, err)
	}
	return &typedState{key: st.key, acc: acc}
}

func requireSameState(t *testing.T, name string, want, got keyState) {
	t.Helper()
	wantState, err := want.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	gotState, err := got.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantState, gotState) {
		t.Fatalf("%s: persisted states differ:\n got %s\nwant %s", name, gotState, wantState)
	}
	wantValue, err := want.value()
	if err != nil {
		t.Fatal(err)
	}
	gotValue, err := got.value()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantValue, gotValue) {
		t.Fatalf("%s: values differ over state %s:\n got %s\nwant %s", name, wantState, gotValue, wantValue)
	}
}

// Stream shape for TestResidentStateIsInvisible.
const (
	streamBlocks   = 48
	streamSeed     = 23
	unappliedBlock = 17 // merged, but its batch never reaches the database
	resetBlock     = 31 // the database is reset before this block merges
)

// streamBlock builds block n of a random stream over a small key pool:
// JSON and g-counter keys, a key written as both kinds, a pn-counter key
// also written as a g-counter, bad deltas of both kinds, and the values
// whose encoding a persisted state once dropped. Equal seeds give equal
// blocks.
func streamBlock(rng *rand.Rand, n uint64) *ledger.Block {
	jsonDelta := func() string {
		switch rng.Intn(9) {
		case 0:
			return `not json`
		case 1:
			return `[1]`
		case 2:
			return `{"k":[[]]}`
		case 3:
			return `{"z":-0}`
		case 4:
			return fmt.Sprintf(`{"s":%d}`, rng.Intn(5))
		case 5:
			return fmt.Sprintf(`{"m":{"a":[%d],"b":{}}}`, rng.Intn(5))
		default:
			return fmt.Sprintf(`{"r":[{"t":"%d"}]}`, rng.Intn(40))
		}
	}
	counterDelta := func() string {
		if rng.Intn(8) == 0 {
			return `not json`
		}
		return fmt.Sprintf(`{"rep%d":%d}`, rng.Intn(3), 1+rng.Intn(50))
	}
	write := func() rwset.Write {
		switch rng.Intn(7) {
		case 0, 1, 2:
			return rwset.Write{Key: fmt.Sprintf("j%d", rng.Intn(3)), Value: []byte(jsonDelta()), IsCRDT: true}
		case 3, 4:
			return rwset.Write{Key: fmt.Sprintf("c%d", rng.Intn(2)), Value: []byte(counterDelta()), IsCRDT: true, CRDTType: crdt.TypeGCounter}
		case 5:
			if rng.Intn(2) == 0 {
				return rwset.Write{Key: "flip", Value: []byte(jsonDelta()), IsCRDT: true}
			}
			return rwset.Write{Key: "flip", Value: []byte(counterDelta()), IsCRDT: true, CRDTType: crdt.TypeGCounter}
		default:
			typ := crdt.TypePNCounter
			if rng.Intn(4) == 0 {
				typ = crdt.TypeGCounter
			}
			return rwset.Write{Key: "pn", Value: []byte(fmt.Sprintf(`{"pos":{"rep%d":%d},"neg":{}}`, rng.Intn(3), 1+rng.Intn(9))), IsCRDT: true, CRDTType: typ}
		}
	}
	block := &ledger.Block{Header: ledger.BlockHeader{Number: n}}
	txs := 1 + rng.Intn(8)
	for i := 0; i < txs; i++ {
		writes := []rwset.Write{write()}
		if rng.Intn(3) == 0 {
			writes = append(writes, write())
		}
		block.Transactions = append(block.Transactions, &ledger.Transaction{
			ID:    fmt.Sprintf("b%d-t%d", n, i),
			RWSet: rwset.ReadWriteSet{Writes: writes},
		})
	}
	return block
}

// streamOutcome is everything a block's merge decides.
type streamOutcome struct {
	codes      []ledger.ValidationCode
	values     []string
	mergedKeys []string
	states     map[string]string
}

// runStream merges the stream through one long-lived engine, or through a
// fresh engine per block (which must decode every state it seeds).
func runStream(t *testing.T, workers int, freshPerBlock bool) []streamOutcome {
	t.Helper()
	rng := rand.New(rand.NewSource(streamSeed))
	db := statedb.New()
	e := NewEngine(db, Options{})
	var out []streamOutcome
	for n := uint64(1); n <= streamBlocks; n++ {
		block := streamBlock(rng, n)
		if n == resetBlock {
			db.Reset()
		}
		if freshPerBlock {
			e = NewEngine(db, Options{})
		}
		codes := make([]ledger.ValidationCode, len(block.Transactions))
		res, err := e.MergeCandidates(block, codes, CRDTCandidates(block, codes), workers)
		if err != nil {
			t.Fatalf("block %d: %v", n, err)
		}
		o := streamOutcome{codes: codes, mergedKeys: res.MergedKeys, states: make(map[string]string)}
		batch := statedb.NewUpdateBatch()
		for i, tx := range block.Transactions {
			for _, w := range tx.RWSet.Writes {
				o.values = append(o.values, string(w.Value))
				if codes[i].Committed() {
					batch.Put(w.Key, w.Value, rwset.Version{BlockNum: n, TxNum: uint64(i)})
				}
			}
		}
		// Odd blocks persist copies, as a durable backend returns them, so
		// both the same-slice and the equal-bytes match are exercised.
		for metaKey, state := range res.States {
			o.states[metaKey] = string(state)
			if n%2 == 1 {
				state = bytes.Clone(state)
			}
			batch.PutMeta(metaKey, state)
		}
		if n != unappliedBlock {
			db.Apply(batch, rwset.Version{BlockNum: n})
		}
		out = append(out, o)
	}
	return out
}

// TestResidentStateIsInvisible: keeping merged states resident between
// blocks changes nothing a block decides. A long-lived engine and a
// fresh-engine-per-block reference, over the same random stream with a
// block that merges but is never applied and a database reset, agree byte
// for byte on codes, rewritten values and persisted states.
func TestResidentStateIsInvisible(t *testing.T) {
	for _, workers := range []int{1, 4} {
		live := runStream(t, workers, false)
		ref := runStream(t, workers, true)
		for i := range ref {
			if !reflect.DeepEqual(live[i], ref[i]) {
				t.Fatalf("workers=%d block %d: long-lived engine diverged from the fresh-engine reference:\n got %v\nwant %v", workers, i+1, live[i], ref[i])
			}
		}
		// Sanity: the stream exercised every outcome it was built for.
		count := make(map[ledger.ValidationCode]int)
		states := 0
		for _, o := range ref {
			for _, c := range o.codes {
				count[c]++
			}
			states += len(o.states)
		}
		if count[ledger.CodeCRDTMerged] == 0 || count[ledger.CodeInvalidCRDT] == 0 || states < streamBlocks {
			t.Fatalf("workers=%d: stream degenerate: codes %v, %d persisted states", workers, count, states)
		}
	}
}
