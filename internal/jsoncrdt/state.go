package jsoncrdt

import (
	"encoding/json"
	"fmt"
	"sort"

	"fabriccrdt/internal/lamport"
)

// FabricCRDT persists each ledger key's JSON CRDT document between blocks so
// that deltas from later blocks merge against the full operation history
// (DESIGN.md §3). The wire format is deterministic JSON: identical documents
// marshal to identical bytes on every peer, and a decoded document behaves
// exactly like the one marshaled — it renders, re-marshals and merges the
// same (FuzzDocStateRoundTrip) — which is what lets the merge engine keep a
// document resident instead of decoding it every block.

type docState struct {
	Replica string      `json:"replica"`
	Counter uint64      `json:"counter"`
	Applied []string    `json:"applied,omitempty"`
	Pending []Operation `json:"pending,omitempty"`
	Root    *mapState   `json:"root"`
}

type mapState struct {
	Entries map[string]*entryState `json:"entries,omitempty"`
}

// entryState encodes an entry. List is omitted only when the entry has no
// list branch: an empty list branch encodes as "list":[], because it
// renders as [] and must survive decoding.
type entryState struct {
	Pres []string    `json:"pres,omitempty"`
	Reg  []regState  `json:"reg,omitempty"`
	Map  *mapState   `json:"map,omitempty"`
	List []elemState `json:"list,omitzero"`
}

type regState struct {
	ID    string `json:"id"`
	Value Value  `json:"value"`
}

type elemState struct {
	ID    string      `json:"id"`
	Entry *entryState `json:"entry"`
}

// MarshalBinary serializes the full document state — tree, clock, applied
// set and pending queue — deterministically.
func (d *Doc) MarshalBinary() ([]byte, error) {
	st := docState{
		Replica: d.clock.Replica(),
		Counter: d.clock.Counter(),
		Applied: sortedIDStrings(d.applied),
		Pending: append([]Operation(nil), d.pending...),
		Root:    marshalMap(d.root),
	}
	return json.Marshal(st)
}

// UnmarshalBinary restores a document serialized by MarshalBinary,
// replacing the receiver's entire state.
func (d *Doc) UnmarshalBinary(data []byte) error {
	var st docState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("jsoncrdt: decoding document state: %w", err)
	}
	clock := lamport.NewClock(st.Replica)
	clock.Restore(st.Counter)
	applied := make(idSet, len(st.Applied))
	for _, s := range st.Applied {
		id, err := lamport.Parse(s)
		if err != nil {
			return fmt.Errorf("jsoncrdt: decoding applied set: %w", err)
		}
		applied.add(id)
	}
	root, err := unmarshalMap(st.Root)
	if err != nil {
		return err
	}
	d.clock = clock
	d.applied = applied
	d.pending = st.Pending
	d.root = root
	d.log = nil
	return nil
}

// Clone returns a deep copy of the document.
func (d *Doc) Clone() (*Doc, error) {
	data, err := d.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := NewDoc(d.Replica())
	if err := out.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	out.retainLog = d.retainLog
	return out, nil
}

func marshalMap(m *mapNode) *mapState {
	if m == nil {
		return nil
	}
	st := &mapState{Entries: make(map[string]*entryState, len(m.entries))}
	//lint:sorted map-to-map projection; encoding/json emits keys sorted
	for k, e := range m.entries {
		st.Entries[k] = marshalEntry(e)
	}
	return st
}

func marshalEntry(e *entry) *entryState {
	st := &entryState{
		Pres: sortedIDStrings(e.pres),
		Map:  marshalMap(e.mapN),
	}
	if len(e.reg) > 0 {
		st.Reg = make([]regState, 0, len(e.reg))
		//lint:sorted collected register states are sorted by ID below
		for id, v := range e.reg {
			st.Reg = append(st.Reg, regState{ID: id.String(), Value: v})
		}
		sort.Slice(st.Reg, func(i, j int) bool { return st.Reg[i].ID < st.Reg[j].ID })
	}
	if e.list != nil {
		st.List = make([]elemState, 0, len(e.list.index))
		for el := e.list.head.next; el != nil; el = el.next {
			st.List = append(st.List, elemState{ID: el.id.String(), Entry: marshalEntry(el.ent)})
		}
	}
	return st
}

func unmarshalMap(st *mapState) (*mapNode, error) {
	m := newMapNode()
	if st == nil {
		return m, nil
	}
	//lint:sorted rebuilding a map from a map; insertion order is invisible
	for k, es := range st.Entries {
		e, err := unmarshalEntry(es)
		if err != nil {
			return nil, err
		}
		m.entries[k] = e
	}
	return m, nil
}

func unmarshalEntry(st *entryState) (*entry, error) {
	e := newEntry()
	for _, s := range st.Pres {
		id, err := lamport.Parse(s)
		if err != nil {
			return nil, fmt.Errorf("jsoncrdt: decoding presence set: %w", err)
		}
		e.pres.add(id)
	}
	if len(st.Reg) > 0 {
		e.reg = make(map[lamport.ID]Value, len(st.Reg))
		for _, r := range st.Reg {
			id, err := lamport.Parse(r.ID)
			if err != nil {
				return nil, fmt.Errorf("jsoncrdt: decoding register: %w", err)
			}
			e.reg[id] = r.Value
		}
	}
	if st.Map != nil {
		m, err := unmarshalMap(st.Map)
		if err != nil {
			return nil, err
		}
		e.mapN = m
	}
	if st.List != nil {
		l := newListNode()
		for _, es := range st.List {
			id, err := lamport.Parse(es.ID)
			if err != nil {
				return nil, fmt.Errorf("jsoncrdt: decoding list element: %w", err)
			}
			child, err := unmarshalEntry(es.Entry)
			if err != nil {
				return nil, err
			}
			l.push(&listElem{id: id, ent: child})
		}
		e.list = l
	}
	return e, nil
}

func sortedIDStrings(s idSet) []string {
	if len(s) == 0 {
		return nil
	}
	ids := make([]lamport.ID, 0, len(s))
	//lint:sorted collected IDs are sorted below before anything observes them
	for id := range s {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = id.String()
	}
	return out
}
