package jsoncrdt

import (
	"encoding/json"
	"fmt"
)

// FabricCRDT persists each ledger key's JSON CRDT document between blocks so
// that deltas from later blocks merge against the full document, tombstones
// included (DESIGN.md §3). The wire format is deterministic JSON: identical
// documents marshal to identical bytes on every peer, and a decoded
// document behaves exactly like the one marshaled — it renders, re-marshals
// and merges the same (FuzzDocStateRoundTrip) — which is what lets the
// merge engine keep a document resident instead of decoding it every block.
//
// The state is the root map, one entryState per key. A live entry is the
// common case, so only a tombstone says so: "dead":true. Map and List are
// omitted only when the entry has no such branch: an empty branch encodes
// as {} or [], because it renders as {} or [] and must survive decoding.
type entryState struct {
	Dead bool                   `json:"dead,omitempty"`
	Reg  *scalar                `json:"reg,omitempty"`
	Map  map[string]*entryState `json:"map,omitzero"`
	List []*entryState          `json:"list,omitzero"`
}

// MarshalBinary serializes the full document state deterministically.
func (d *Doc) MarshalBinary() ([]byte, error) {
	return json.Marshal(marshalMap(d.root))
}

// UnmarshalBinary restores a document serialized by MarshalBinary,
// replacing the receiver's entire state. The bytes may come from outside
// the program: a state that is not a tree of entries, or that holds a
// register value of no scalar kind, is an error.
func (d *Doc) UnmarshalBinary(data []byte) error {
	var st map[string]*entryState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("jsoncrdt: decoding document state: %w", err)
	}
	if st == nil {
		return fmt.Errorf("jsoncrdt: decoding document state: null root")
	}
	root, err := unmarshalMap(st)
	if err != nil {
		return err
	}
	d.root = root
	return nil
}

// Clone returns a deep copy of the document.
func (d *Doc) Clone() (*Doc, error) {
	data, err := d.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := NewDoc("")
	if err := out.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return out, nil
}

func marshalMap(m *mapNode) map[string]*entryState {
	st := make(map[string]*entryState, len(m.entries))
	//lint:sorted map-to-map projection; encoding/json emits keys sorted
	for k, e := range m.entries {
		st[k] = marshalEntry(e)
	}
	return st
}

func marshalEntry(e *entry) *entryState {
	st := &entryState{Dead: !e.live, Reg: e.reg}
	if e.mapN != nil {
		st.Map = marshalMap(e.mapN)
	}
	if e.list != nil {
		st.List = make([]*entryState, len(e.list.elems))
		for i, el := range e.list.elems {
			st.List[i] = marshalEntry(el)
		}
	}
	return st
}

func unmarshalMap(st map[string]*entryState) (*mapNode, error) {
	m := &mapNode{entries: make(map[string]*entry, len(st))}
	//lint:sorted rebuilding a map from a map; insertion order is invisible
	for k, es := range st {
		e, err := unmarshalEntry(es)
		if err != nil {
			return nil, err
		}
		m.entries[k] = e
	}
	return m, nil
}

func unmarshalEntry(st *entryState) (*entry, error) {
	if st == nil {
		return nil, fmt.Errorf("jsoncrdt: decoding document state: null entry")
	}
	if st.Reg != nil && (st.Reg.Kind < kindNull || st.Reg.Kind > kindBool) {
		return nil, fmt.Errorf("jsoncrdt: decoding register: value kind %d is no JSON scalar", st.Reg.Kind)
	}
	e := &entry{live: !st.Dead, reg: st.Reg}
	if st.Map != nil {
		m, err := unmarshalMap(st.Map)
		if err != nil {
			return nil, err
		}
		e.mapN = m
	}
	if st.List != nil {
		l := &listNode{elems: make([]*entry, len(st.List))}
		for i, es := range st.List {
			child, err := unmarshalEntry(es)
			if err != nil {
				return nil, err
			}
			l.elems[i] = child
		}
		e.list = l
	}
	return e, nil
}
