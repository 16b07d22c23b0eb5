package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"fabriccrdt/internal/crdt"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/rwset"
	"fabriccrdt/internal/statedb"
)

// maxReplayProgram bounds the bytes one fuzz input runs, so each input
// stays cheap.
const maxReplayProgram = 256

// replayKeys is the key pool of FuzzPersistedKeyReplay: two JSON keys, a
// g-counter key, a key written as both kinds and a pn-counter key also
// written as a g-counter.
var replayKeys = []string{"j0", "j1", "c0", "flip", "pn"}

// replayWrite decodes one write from two program bytes: the key, and the
// delta variant (bad deltas, other-kind writes and the values whose
// encoding a persisted state once dropped among them).
func replayWrite(sel, v byte) rwset.Write {
	key := replayKeys[int(sel)%len(replayKeys)]
	jsonDelta := func() string {
		switch v % 10 {
		case 0:
			return `not json`
		case 1:
			return `[1]`
		case 2:
			return `{"k":[[]]}`
		case 3:
			return `{"z":-0}`
		case 4:
			return fmt.Sprintf(`{"s":%d}`, v/10)
		case 5:
			return fmt.Sprintf(`{"m":{"a":[%d],"b":{}}}`, v/10)
		case 6:
			return fmt.Sprintf(`{"a":"p","r":"x%d"}`, v/10)
		default:
			return fmt.Sprintf(`{"r":[{"t":"%d"}]}`, v/10)
		}
	}
	counter := func(typ string) rwset.Write {
		value := fmt.Sprintf(`{"rep%d":%d}`, v%3, 1+v/3)
		if typ == crdt.TypePNCounter {
			value = fmt.Sprintf(`{"pos":{"rep%d":%d},"neg":{"rep0":1}}`, v%3, 1+v/3)
		}
		if v%7 == 0 {
			value = `not json`
		}
		return rwset.Write{Key: key, Value: []byte(value), IsCRDT: true, CRDTType: typ}
	}
	switch key {
	case "c0":
		return counter(crdt.TypeGCounter)
	case "flip":
		if sel/8%2 == 0 {
			return counter(crdt.TypeGCounter)
		}
	case "pn":
		if sel/8%4 == 0 {
			return counter(crdt.TypeGCounter)
		}
		return counter(crdt.TypePNCounter)
	}
	return rwset.Write{Key: key, Value: []byte(jsonDelta()), IsCRDT: true}
}

// FuzzPersistedKeyReplay holds the snapshot-plus-delta persistence to its
// two properties. The input is a program: each byte picks an action —
// append a one- or two-write transaction to the pending block (its writes
// decoded from the following bytes), merge the pending block and apply
// it, merge it and drop its batch, restart one engine, or reload every
// key. Two engines run the program over their own databases: one lives
// for the whole program, the other restarts where the program says.
//   - Every reload decodes each key the long-lived engine holds resident
//     from its database; the loaded state must re-marshal to the same
//     snapshot bytes, render the same value and stand at the same log
//     position as the resident one.
//   - Every block stages byte-identical records, codes and rewritten values
//     in both engines.
func FuzzPersistedKeyReplay(f *testing.F) {
	for _, seed := range []string{
		"\x04\x00\x07\x04\x01\x07\x00\x04\x00\x17\x00\x04\x00\x27\x00\x03\x04\x00\x37\x00\x02\x04\x00\x47\x00\x03",
		"\x04\x02\x05\x04\x03\x12\x00\x04\x02\x09\x04\x0b\x03\x00\x01\x04\x02\x08\x00\x03\x02\x04\x04\x21\x00\x03",
		"\x05\x00\x02\x00\x03\x00\x05\x00\x00\x01\x07\x00\x02\x04\x00\x06\x00\x03\x04\x00\x04\x00\x03",
		"\x04\x04\x05\x04\x24\x06\x00\x04\x04\x07\x01\x04\x04\x08\x00\x02\x04\x24\x09\x00\x03",
		"\x05\x03\x00\x0b\x05\x00\x04\x03\x00\x00\x04\x0b\x05\x00\x03\x02\x04\x03\x00\x00\x03",
		// A block merged but never applied, then one more into its key.
		"\x04\x00\x07\x00\x04\x00\x17\x01\x04\x00\x27\x00\x03",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > maxReplayProgram {
			program = program[:maxReplayProgram]
		}
		next := func() byte {
			if len(program) == 0 {
				return 0
			}
			b := program[0]
			program = program[1:]
			return b
		}
		liveDB, restartDB := statedb.New(), statedb.New()
		live, restarted := NewEngine(liveDB, Options{}), NewEngine(restartDB, Options{})
		var pending [][]rwset.Write
		var height uint64
		mergeBoth := func(apply bool) {
			height++
			live1 := mergeReplay(t, liveDB, live, height, pending, apply)
			other := mergeReplay(t, restartDB, restarted, height, pending, apply)
			if !reflect.DeepEqual(live1, other) {
				t.Fatalf("block %d: restarted engine diverged from the long-lived one:\n got %+v\nwant %+v", height, other, live1)
			}
			pending = nil
		}
		for len(program) > 0 {
			switch op := next(); op % 6 {
			case 0:
				mergeBoth(true)
			case 1:
				mergeBoth(false)
			case 2:
				restarted = NewEngine(restartDB, Options{})
			case 3:
				requireReloadsResident(t, liveDB, live)
			default:
				writes := []rwset.Write{replayWrite(next(), next())}
				if op%6 == 5 {
					writes = append(writes, replayWrite(next(), next()))
				}
				pending = append(pending, writes)
			}
		}
		mergeBoth(true)
		requireReloadsResident(t, liveDB, live)
	})
}

// replayOutcome is everything one engine decides for a block.
type replayOutcome struct {
	codes  []ledger.ValidationCode
	values []string
	states map[string]string
}

// mergeReplay merges a block of the given transactions' writes through e
// and, when apply is set, applies its commit batch.
func mergeReplay(t *testing.T, db *statedb.DB, e *Engine, n uint64, txWrites [][]rwset.Write, apply bool) replayOutcome {
	t.Helper()
	block := &ledger.Block{Header: ledger.BlockHeader{Number: n}}
	for i, writes := range txWrites {
		block.Transactions = append(block.Transactions, &ledger.Transaction{
			ID:    fmt.Sprintf("b%d-t%d", n, i),
			RWSet: rwset.ReadWriteSet{Writes: append([]rwset.Write(nil), writes...)},
		})
	}
	codes := make([]ledger.ValidationCode, len(block.Transactions))
	res, err := e.MergeBlock(block, codes)
	if err != nil {
		t.Fatalf("block %d: %v", n, err)
	}
	out := replayOutcome{codes: codes, states: make(map[string]string)}
	batch := statedb.NewUpdateBatch()
	for i, tx := range block.Transactions {
		for _, w := range tx.RWSet.Writes {
			out.values = append(out.values, string(w.Value))
			if codes[i].Committed() {
				batch.Put(w.Key, w.Value, rwset.Version{BlockNum: n, TxNum: uint64(i)})
			}
		}
	}
	for metaKey, rec := range res.States {
		out.states[metaKey] = string(rec)
	}
	StageDocStates(batch, res)
	if apply {
		db.Apply(batch, rwset.Version{BlockNum: n})
	}
	return out
}

// requireReloadsResident loads every state e holds resident — those whose
// last record db holds — back from db and requires it to match.
func requireReloadsResident(t *testing.T, db *statedb.DB, e *Engine) {
	t.Helper()
	for snapKey, r := range e.resident {
		if !bytes.Equal(r.rec, db.GetMeta(r.recKey)) {
			continue // merged, never applied
		}
		decode := typedFromSnapshot
		if _, ok := r.state.(*docState); ok {
			decode = docFromSnapshot
		}
		loaded, log, err := loadState(db, snapKey, keyOf(r.state), decode)
		if err != nil || loaded == nil {
			t.Fatalf("reloading %s: %v, %v", snapKey, loaded, err)
		}
		if !reflect.DeepEqual(log, r.log) {
			t.Fatalf("reloading %s: log at %+v, resident at %+v", snapKey, log, r.log)
		}
		requireSameState(t, snapKey, r.state, loaded)
	}
}

// keyOf returns the ledger key of a state.
func keyOf(st keyState) string {
	if d, ok := st.(*docState); ok {
		return d.key
	}
	return st.(*typedState).key
}
