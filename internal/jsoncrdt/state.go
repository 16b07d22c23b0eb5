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

// docState is the persisted document. The clock's counter is the number of
// operations merged, which is all a peer needs of its history: states
// written with an "applied" list of every operation ID, the format before
// it, still decode, the list ignored.
type docState struct {
	Replica string    `json:"replica"`
	Counter uint64    `json:"counter"`
	Root    *mapState `json:"root"`
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
	Value scalar `json:"value"`
}

type elemState struct {
	ID    string      `json:"id"`
	Entry *entryState `json:"entry"`
}

// MarshalBinary serializes the full document state — tree and clock —
// deterministically.
func (d *Doc) MarshalBinary() ([]byte, error) {
	st := docState{
		Replica: d.clock.Replica(),
		Counter: d.clock.Counter(),
		Root:    marshalMap(d.root),
	}
	return json.Marshal(st)
}

// UnmarshalBinary restores a document serialized by MarshalBinary,
// replacing the receiver's entire state. The bytes may come from outside
// the program: a state that is not a tree, that holds one list element ID
// twice, an ID ahead of its clock or a register value of no scalar kind is
// an error.
func (d *Doc) UnmarshalBinary(data []byte) error {
	var st docState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("jsoncrdt: decoding document state: %w", err)
	}
	dec := decoder{counter: st.Counter, elemIDs: make(idSet)}
	root, err := dec.mapNode(st.Root)
	if err != nil {
		return err
	}
	d.clock = lamport.NewClock(st.Replica)
	d.clock.Restore(st.Counter)
	d.root = root
	return nil
}

// Clone returns a deep copy of the document.
func (d *Doc) Clone() (*Doc, error) {
	data, err := d.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := NewDoc(d.clock.Replica())
	if err := out.UnmarshalBinary(data); err != nil {
		return nil, err
	}
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
		st.List = make([]elemState, 0, len(e.list.elems))
		for _, el := range e.list.elems {
			st.List = append(st.List, elemState{ID: el.id.String(), Entry: marshalEntry(el.ent)})
		}
	}
	return st
}

// decoder rebuilds a document tree, checking what MergeJSON relies on:
// every ID was stamped by the clock, so none is ahead of its counter, and
// every list element carries the ID of the operation that appended it, so
// no two elements share one.
type decoder struct {
	counter uint64
	elemIDs idSet
}

// id parses one ID of the tree; what names its place for errors.
func (dec *decoder) id(s, what string) (lamport.ID, error) {
	id, err := lamport.Parse(s)
	if err != nil {
		return id, fmt.Errorf("jsoncrdt: decoding %s: %w", what, err)
	}
	if id.Counter > dec.counter {
		return id, fmt.Errorf("jsoncrdt: decoding %s: ID %s is ahead of the clock's counter %d", what, id, dec.counter)
	}
	return id, nil
}

func (dec *decoder) mapNode(st *mapState) (*mapNode, error) {
	m := newMapNode()
	if st == nil {
		return m, nil
	}
	//lint:sorted rebuilding a map from a map; insertion order is invisible
	for k, es := range st.Entries {
		e, err := dec.entry(es)
		if err != nil {
			return nil, err
		}
		m.entries[k] = e
	}
	return m, nil
}

func (dec *decoder) entry(st *entryState) (*entry, error) {
	if st == nil {
		return nil, fmt.Errorf("jsoncrdt: decoding document state: null entry")
	}
	e := newEntry()
	for _, s := range st.Pres {
		id, err := dec.id(s, "presence set")
		if err != nil {
			return nil, err
		}
		e.pres.add(id)
	}
	if len(st.Reg) > 0 {
		e.reg = make(map[lamport.ID]scalar, len(st.Reg))
		for _, r := range st.Reg {
			id, err := dec.id(r.ID, "register")
			if err != nil {
				return nil, err
			}
			if r.Value.Kind < kindNull || r.Value.Kind > kindBool {
				return nil, fmt.Errorf("jsoncrdt: decoding register: value kind %d is no JSON scalar", r.Value.Kind)
			}
			e.reg[id] = r.Value
		}
	}
	if st.Map != nil {
		m, err := dec.mapNode(st.Map)
		if err != nil {
			return nil, err
		}
		e.mapN = m
	}
	if st.List != nil {
		l := &listNode{elems: make([]listElem, 0, len(st.List))}
		for _, es := range st.List {
			id, err := dec.id(es.ID, "list element")
			if err != nil {
				return nil, err
			}
			if dec.elemIDs.has(id) {
				return nil, fmt.Errorf("jsoncrdt: decoding list element: ID %s appears twice", id)
			}
			dec.elemIDs.add(id)
			child, err := dec.entry(es.Entry)
			if err != nil {
				return nil, err
			}
			l.elems = append(l.elems, listElem{id: id, ent: child})
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
