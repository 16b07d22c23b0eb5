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
// the three branches coexist so that concurrent type-conflicting updates all
// survive; presentation resolves deterministically (see json.go).
type entry struct {
	pres idSet
	reg  map[lamport.ID]Value
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
		e.list = newListNode()
	}
	return e.list
}

// clear removes every identifier in deps from the entry's presence set and
// register, recursing through both container branches. Operations not in
// deps — i.e. concurrent with the clearing operation — survive, which gives
// the datatype its add-wins character.
func (e *entry) clear(deps idSet) {
	//lint:sorted deleting an id set from maps is order-independent
	for id := range deps {
		delete(e.pres, id)
		delete(e.reg, id)
	}
	if e.mapN != nil {
		//lint:sorted clear recursion is per-child-independent; order is invisible
		for _, child := range e.mapN.entries {
			child.clear(deps)
		}
	}
	if e.list != nil {
		for el := e.list.head.next; el != nil; el = el.next {
			el.ent.clear(deps)
		}
	}
}

// liveIDs appends every identifier currently present anywhere in the entry's
// subtree to dst. Local operations use this to compute the set an assign or
// delete must clear.
func (e *entry) liveIDs(dst idSet) {
	//lint:sorted id-set union is order-independent
	for id := range e.pres {
		dst.add(id)
	}
	//lint:sorted id-set union is order-independent
	for id := range e.reg {
		dst.add(id)
	}
	if e.mapN != nil {
		//lint:sorted per-child set union; order is invisible
		for _, child := range e.mapN.entries {
			child.liveIDs(dst)
		}
	}
	if e.list != nil {
		for el := e.list.head.next; el != nil; el = el.next {
			el.ent.liveIDs(dst)
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

// child returns the entry for key, creating it if create is set.
func (m *mapNode) child(key string, create bool) *entry {
	e, ok := m.entries[key]
	if !ok && create {
		e = newEntry()
		m.entries[key] = e
	}
	return e
}

// listElem is one element of a list node, identified by the operation that
// inserted it. Elements are never physically removed (tombstones keep the
// ordering stable); visibility is governed by the entry's presence set.
type listElem struct {
	id   lamport.ID
	ent  *entry
	next *listElem
}

// listNode is a JSON array node: a singly linked list with a sentinel head,
// plus an index for O(1) element lookup by insertion ID and a tail pointer
// for O(1) appends.
type listNode struct {
	head  *listElem // sentinel; head.next is the first element
	tail  *listElem // final element in list order; nil when empty
	index map[lamport.ID]*listElem
}

func newListNode() *listNode {
	return &listNode{
		head:  &listElem{},
		index: make(map[lamport.ID]*listElem),
	}
}

// find returns the element inserted by id, or nil.
func (l *listNode) find(id lamport.ID) *listElem {
	return l.index[id]
}

// push appends el after the final element, bypassing the RGA rule: only
// for rebuilding a list in its persisted order.
func (l *listNode) push(el *listElem) {
	if l.tail == nil {
		l.head.next = el
	} else {
		l.tail.next = el
	}
	l.tail = el
	l.index[el.id] = el
}

// insertAfter places a new element with the given id after ref (the sentinel
// head when ref is nil), following the RGA rule: skip over any existing
// elements whose insertion ID is greater than id, so that concurrent inserts
// at the same position converge to the same order on every replica.
func (l *listNode) insertAfter(ref *listElem, id lamport.ID) *listElem {
	if ref == nil {
		ref = l.head
	}
	pos := ref
	for pos.next != nil && id.Less(pos.next.id) {
		pos = pos.next
	}
	el := &listElem{id: id, ent: newEntry(), next: pos.next}
	pos.next = el
	if el.next == nil {
		l.tail = el
	}
	l.index[id] = el
	return el
}

// length returns the number of visible elements.
func (l *listNode) length() int {
	n := 0
	for el := l.head.next; el != nil; el = el.next {
		if el.ent.visible() {
			n++
		}
	}
	return n
}
