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

// MetaPrefix namespaces persisted JSON CRDT documents in the state
// database's metadata space.
const MetaPrefix = "crdt/"

// TypedMetaPrefix namespaces persisted classic-CRDT states in the state
// database's metadata space, separate from JSON CRDT documents.
const TypedMetaPrefix = "crdtt/"

// types resolves the classic-CRDT datatypes a write's CRDTType names.
var types = crdt.NewRegistry()

// keyState is one key's CRDT state during a block merge: a JSON CRDT
// document or a classic CRDT, fixed by the key's first write. Writes of
// another kind or datatype are errInvalidDelta.
type keyState interface {
	// merge joins one write's delta into the state. A delta the state
	// cannot take is errInvalidDelta; the state is left as it was.
	merge(w *rwset.Write) error
	// value returns the converged world-state value.
	value() ([]byte, error)
	// persisted returns the metadata key and bytes carrying the state to
	// later blocks, or an empty key when nothing is persisted.
	persisted() (metaKey string, state []byte, err error)
}

// seed creates the state of the key w writes, loading what earlier blocks
// persisted under the prefix of w's kind (InitEmptyCRDT in Algorithm 1,
// extended with cross-block continuity). A key never changes kind: when it
// has no state of w's kind, the other kind's prefix is probed and a hit
// refuses the write.
func (e *Engine) seed(w *rwset.Write) (keyState, error) {
	if w.CRDTType == "" {
		return e.seedDoc(w.Key)
	}
	return e.seedTyped(w.Key, w.CRDTType)
}

// resume takes the resident state persisted under metaKey out of the
// engine and returns it if the database still holds exactly the bytes it
// was persisted as, else nil. That byte comparison is the whole coherence
// rule: a block merged but never applied, a reset or rebuilt state, a
// replayed block and a restart all leave other bytes (or no entry) behind,
// and equal bytes decode to a state that behaves exactly like the resident
// one (FuzzDocStateRoundTrip, TestTypedStateRoundTrip).
func (e *Engine) resume(metaKey string) keyState {
	e.mu.Lock()
	r, ok := e.resident[metaKey]
	delete(e.resident, metaKey)
	e.mu.Unlock()
	if !ok || !bytes.Equal(r.persisted, e.db.GetMeta(metaKey)) {
		return nil
	}
	return r.state
}

// refuseOtherKind fails the write when key holds state under prefix.
func refuseOtherKind(db *statedb.DB, prefix, key string) error {
	if db.GetMeta(prefix+key) != nil {
		return fmt.Errorf("%w: key %q already holds a %s state", errInvalidDelta, key, prefix)
	}
	return nil
}

// docState is a key merged as a JSON CRDT document.
type docState struct {
	key string
	doc *jsoncrdt.Doc
	// fresh is Options.PaperLiteral: the document started empty this block
	// and is not persisted.
	fresh bool
}

func (e *Engine) seedDoc(key string) (keyState, error) {
	fresh := e.opts.PaperLiteral
	if !fresh {
		if st := e.resume(MetaPrefix + key); st != nil {
			return st, nil
		}
		doc, err := LoadDoc(e.db, key)
		if err != nil {
			return nil, err // corrupt persisted state: hard failure
		}
		if doc != nil {
			return &docState{key: key, doc: doc}, nil
		}
	}
	if err := refuseOtherKind(e.db, TypedMetaPrefix, key); err != nil {
		return nil, err
	}
	return &docState{key: key, doc: jsoncrdt.NewDoc(MergeReplica), fresh: fresh}, nil
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

func (s *docState) persisted() (string, []byte, error) {
	if s.fresh {
		return "", nil, nil
	}
	state, err := s.doc.MarshalBinary()
	return MetaPrefix + s.key, state, err
}

// typedState is a key merged as a classic CRDT. Typed states are seeded and
// persisted even under Options.PaperLiteral: a state-based join is cheap,
// and counters and sets are meaningless without continuity.
type typedState struct {
	key string
	acc crdt.CRDT
}

func (e *Engine) seedTyped(key, typeName string) (keyState, error) {
	st, _ := e.resume(TypedMetaPrefix + key).(*typedState)
	if st == nil {
		acc, err := LoadTypedCRDT(e.db, key)
		if err != nil {
			return nil, fmt.Errorf("core: loading persisted %s state for %q: %w", typeName, key, err)
		}
		if acc == nil {
			if err := refuseOtherKind(e.db, MetaPrefix, key); err != nil {
				return nil, err
			}
			if acc, err = types.New(typeName); err != nil {
				return nil, fmt.Errorf("%w: %v", errInvalidDelta, err)
			}
		}
		st = &typedState{key: key, acc: acc}
	}
	if st.acc.TypeName() != typeName {
		return nil, fmt.Errorf("%w: key %q persisted as %s, written as %s", errInvalidDelta, key, st.acc.TypeName(), typeName)
	}
	return st, nil
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

func (s *typedState) persisted() (string, []byte, error) {
	state, err := crdt.Marshal(s.acc)
	return TypedMetaPrefix + s.key, state, err
}

// LoadDoc returns the persisted CRDT document for a ledger key, or nil when
// the key has never been merged as a JSON CRDT. Read-side helpers (clients,
// examples) use it to inspect merge metadata.
func LoadDoc(db *statedb.DB, key string) (*jsoncrdt.Doc, error) {
	persisted := db.GetMeta(MetaPrefix + key)
	if persisted == nil {
		return nil, nil
	}
	doc := jsoncrdt.NewDoc(MergeReplica)
	if err := doc.UnmarshalBinary(persisted); err != nil {
		return nil, fmt.Errorf("core: loading persisted document for %q: %w", key, err)
	}
	return doc, nil
}

// LoadTypedCRDT returns the persisted classic-CRDT state behind a ledger
// key, or nil when the key was never merged as a typed CRDT.
func LoadTypedCRDT(db *statedb.DB, key string) (crdt.CRDT, error) {
	persisted := db.GetMeta(TypedMetaPrefix + key)
	if persisted == nil {
		return nil, nil
	}
	return types.Unmarshal(persisted)
}
