package jsoncrdt

import (
	"fabriccrdt/internal/lamport"
)

// idSet is a set of operation identifiers.
type idSet map[lamport.ID]struct{}

func (s idSet) add(id lamport.ID)      { s[id] = struct{}{} }
func (s idSet) has(id lamport.ID) bool { _, ok := s[id]; return ok }

// entry holds the CRDT state of one map key or one list element: its
// presence set (the operations keeping it alive), a multi-value register for
// scalar content, and optional map/list branches. Kleppmann & Beresford let
// the three branches coexist so that updates of different types to one key
// all survive; presentation resolves deterministically (see json.go).
type entry struct {
	pres idSet
	reg  map[lamport.ID]scalar
	mapN *mapNode
	list *listNode
}

func newEntry() *entry {
	return &entry{pres: make(idSet)}
}

// visible reports whether any live operation keeps the entry alive.
func (e *entry) visible() bool { return len(e.pres) > 0 }

// ensureMap returns the entry's map branch, creating it if absent.
func (e *entry) ensureMap() *mapNode {
	if e.mapN == nil {
		e.mapN = newMapNode()
	}
	return e.mapN
}

// ensureList returns the entry's list branch, creating it if absent.
func (e *entry) ensureList() *listNode {
	if e.list == nil {
		e.list = &listNode{}
	}
	return e.list
}

// clear empties the presence set and register of the entry and of every
// entry below it. The branches, their keys and list elements stay, as
// tombstones.
func (e *entry) clear() {
	clear(e.pres)
	clear(e.reg)
	if e.mapN != nil {
		//lint:sorted clear recursion is per-child-independent; order is invisible
		for _, child := range e.mapN.entries {
			child.clear()
		}
	}
	if e.list != nil {
		for _, el := range e.list.elems {
			el.ent.clear()
		}
	}
}

// mapNode is a JSON object node.
type mapNode struct {
	entries map[string]*entry
}

func newMapNode() *mapNode {
	return &mapNode{entries: make(map[string]*entry)}
}

// child returns the entry for key, creating it if absent.
func (m *mapNode) child(key string) *entry {
	e, ok := m.entries[key]
	if !ok {
		e = newEntry()
		m.entries[key] = e
	}
	return e
}

// listElem is one element of a list node, identified by the operation that
// appended it. Elements are never removed (an assign over the list leaves
// them as tombstones); visibility is governed by the entry's presence set.
type listElem struct {
	id  lamport.ID
	ent *entry
}

// listNode is a JSON array node. MergeJSON only appends, so its elements
// are in operation order.
type listNode struct {
	elems []listElem
}
