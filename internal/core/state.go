package core

import (
	"bytes"
	"encoding/json"
	"fmt"

	"fabriccrdt/internal/crdt"
	"fabriccrdt/internal/jsoncrdt"
	"fabriccrdt/internal/rwset"
	"fabriccrdt/internal/statedb"
)

// MetaPrefix namespaces the snapshot records of JSON CRDT documents in the
// state database's metadata space (persist.go).
const MetaPrefix = "crdt/"

// TypedMetaPrefix namespaces the snapshot records of classic-CRDT states in
// the state database's metadata space, separate from JSON CRDT documents.
const TypedMetaPrefix = "crdtt/"

// types resolves the classic-CRDT datatypes a write's CRDTType names.
var types = crdt.NewRegistry()

// keyState is one key's CRDT state during a block merge: a JSON CRDT
// document or a classic CRDT, fixed by the key's first write. Writes of
// another kind or datatype are errInvalidDelta.
type keyState interface {
	// merge joins one write's delta into the state. A delta the state
	// cannot take is errInvalidDelta; the state is left as it was, or as
	// far as the delta applied — replaying the same write reproduces it.
	merge(w *rwset.Write) error
	// value returns the converged world-state value.
	value() ([]byte, error)
	// snapshot returns the full state, the body of a snapshot record.
	snapshot() ([]byte, error)
}

// seed creates the state of the key w writes and the position of its
// persisted log, loading what earlier blocks persisted under the prefix of
// w's kind (InitEmptyCRDT in Algorithm 1, extended with cross-block
// continuity). A key never changes kind: when it has no state of w's kind,
// the other kind's prefix is probed and a hit refuses the write.
func (e *Engine) seed(w *rwset.Write) (keyState, keyLog, error) {
	if w.CRDTType == "" {
		return e.seedDoc(w.Key)
	}
	return e.seedTyped(w.Key, w.CRDTType)
}

// resume takes the resident state of the key whose snapshot lives at
// snapKey out of the engine and returns it if the database still holds
// exactly the record it last persisted, else nil. That byte comparison is
// the whole coherence rule. The engine is the only writer of its key logs,
// so the database is never ahead of a resident state, only equal to it or
// behind it: a block merged but never applied, a reset or rebuilt state, a
// replayed block and a restart all leave another record (or none) under
// that key — a stale slot carries an older generation — and a delta
// record's running hash makes equal bytes mean an equal history. A state
// decoded from that history behaves exactly like the resident one
// (FuzzDocStateRoundTrip, TestTypedStateRoundTrip, FuzzPersistedKeyReplay).
func (e *Engine) resume(snapKey string) (keyState, keyLog) {
	r, ok := e.resident[snapKey]
	delete(e.resident, snapKey)
	if !ok || !bytes.Equal(r.rec, e.db.GetMeta(r.recKey)) {
		return nil, keyLog{}
	}
	return r.state, r.log
}

// refuseOtherKind fails the write when key holds state under prefix.
func refuseOtherKind(db *statedb.DB, prefix, key string) error {
	rec := db.GetMeta(prefix + key)
	if rec == nil {
		return nil
	}
	if _, _, err := parseSnapshot(prefix+key, key, rec); err != nil {
		return err
	}
	return fmt.Errorf("%w: key %q already holds a %s state", errInvalidDelta, key, prefix)
}

// docState is a key merged as a JSON CRDT document.
type docState struct {
	key string
	doc *jsoncrdt.Doc
}

// seedDoc seeds a JSON key. Under Options.PaperLiteral the document starts
// empty every block and is not persisted: its log has no snapshot key.
func (e *Engine) seedDoc(key string) (keyState, keyLog, error) {
	snapKey := MetaPrefix + key
	if e.opts.PaperLiteral {
		snapKey = ""
	} else {
		if st, log := e.resume(snapKey); st != nil {
			return st, log, nil
		}
		st, log, err := loadState(e.db, snapKey, key, docFromSnapshot)
		if err != nil || st != nil {
			return st, log, err // an error is corrupt persisted state: hard failure
		}
	}
	if err := refuseOtherKind(e.db, TypedMetaPrefix, key); err != nil {
		return nil, keyLog{}, err
	}
	return &docState{key: key, doc: jsoncrdt.NewDoc(MergeReplica)}, keyLog{snapKey: snapKey}, nil
}

func docFromSnapshot(key string, body []byte) (keyState, error) {
	doc := jsoncrdt.NewDoc(MergeReplica)
	if err := doc.UnmarshalBinary(body); err != nil {
		return nil, err
	}
	return &docState{key: key, doc: doc}, nil
}

func (s *docState) merge(w *rwset.Write) error {
	if w.CRDTType != "" {
		return fmt.Errorf("%w: key %q holds a JSON CRDT, written as %s", errInvalidDelta, s.key, w.CRDTType)
	}
	var delta any
	if err := json.Unmarshal(w.Value, &delta); err != nil {
		return fmt.Errorf("%w: %v", errInvalidDelta, err)
	}
	if err := s.doc.MergeJSON(delta); err != nil {
		return fmt.Errorf("%w: %v", errInvalidDelta, err)
	}
	return nil
}

func (s *docState) value() ([]byte, error) { return json.Marshal(s.doc.ToJSON()) }

func (s *docState) snapshot() ([]byte, error) { return s.doc.MarshalBinary() }

// typedState is a key merged as a classic CRDT. Typed states are seeded and
// persisted even under Options.PaperLiteral: a state-based join is cheap,
// and counters and sets are meaningless without continuity.
type typedState struct {
	key string
	acc crdt.CRDT
}

func (e *Engine) seedTyped(key, typeName string) (keyState, keyLog, error) {
	snapKey := TypedMetaPrefix + key
	st, log := e.resume(snapKey)
	if st == nil {
		var err error
		st, log, err = loadState(e.db, snapKey, key, typedFromSnapshot)
		if err != nil {
			return nil, keyLog{}, err // corrupt persisted state: hard failure
		}
		if st == nil {
			if err := refuseOtherKind(e.db, MetaPrefix, key); err != nil {
				return nil, keyLog{}, err
			}
			acc, err := types.New(typeName)
			if err != nil {
				return nil, keyLog{}, fmt.Errorf("%w: %v", errInvalidDelta, err)
			}
			st = &typedState{key: key, acc: acc}
		}
	}
	if have := st.(*typedState).acc.TypeName(); have != typeName {
		return nil, keyLog{}, fmt.Errorf("%w: key %q persisted as %s, written as %s", errInvalidDelta, key, have, typeName)
	}
	return st, log, nil
}

func typedFromSnapshot(key string, body []byte) (keyState, error) {
	acc, err := types.Unmarshal(body)
	if err != nil {
		return nil, err
	}
	return &typedState{key: key, acc: acc}, nil
}

func (s *typedState) merge(w *rwset.Write) error {
	if w.CRDTType != s.acc.TypeName() {
		return fmt.Errorf("%w: key %q holds a %s, written as %q", errInvalidDelta, s.key, s.acc.TypeName(), w.CRDTType)
	}
	delta, err := types.New(w.CRDTType)
	if err == nil {
		err = delta.LoadStateJSON(w.Value)
	}
	if err == nil {
		err = s.acc.Merge(delta)
	}
	if err != nil {
		return fmt.Errorf("%w: %v", errInvalidDelta, err)
	}
	return nil
}

// value is the datatype's plain value, JSON-encoded (a counter commits as a
// number, a set as a sorted array, ...).
func (s *typedState) value() ([]byte, error) { return json.Marshal(s.acc.Value()) }

func (s *typedState) snapshot() ([]byte, error) { return crdt.Marshal(s.acc) }

// LoadDoc returns the persisted CRDT document for a ledger key — its
// snapshot with the later delta records replayed — or nil when the key has
// never been merged as a JSON CRDT. Read-side helpers (clients, examples)
// use it to inspect merge metadata.
func LoadDoc(db *statedb.DB, key string) (*jsoncrdt.Doc, error) {
	st, _, err := loadState(db, MetaPrefix+key, key, docFromSnapshot)
	if st == nil {
		return nil, err
	}
	return st.(*docState).doc, nil
}

// LoadTypedCRDT returns the persisted classic-CRDT state behind a ledger
// key — its snapshot with the later delta records replayed — or nil when
// the key was never merged as a typed CRDT.
func LoadTypedCRDT(db *statedb.DB, key string) (crdt.CRDT, error) {
	st, _, err := loadState(db, TypedMetaPrefix+key, key, typedFromSnapshot)
	if st == nil {
		return nil, err
	}
	return st.(*typedState).acc, nil
}
