package jsoncrdt

// entry holds the CRDT state of one map key or one list element: whether
// an operation keeps it alive, a register for scalar content, and optional
// map/list branches. Kleppmann & Beresford let the three branches coexist
// so that updates of different types to one key all survive; presentation
// resolves deterministically (see json.go).
//
// Their presence set of operation IDs reduces to live here: an entry's set
// only ever grows by the operations stamped through it and is only ever
// emptied whole by an assign over it or an ancestor, and rendering asks
// only whether it is empty. Their multi-value register reduces to one
// value, because an assign clears the register before writing it.
type entry struct {
	live bool
	reg  *scalar
	mapN *mapNode
	list *listNode
}

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

// clear kills the entry and every entry below it and empties their
// registers. The branches, their keys and list elements stay, as
// tombstones.
func (e *entry) clear() {
	e.live, e.reg = false, nil
	if e.mapN != nil {
		//lint:sorted clear recursion is per-child-independent; order is invisible
		for _, child := range e.mapN.entries {
			child.clear()
		}
	}
	if e.list != nil {
		for _, el := range e.list.elems {
			el.clear()
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
		e = &entry{}
		m.entries[key] = e
	}
	return e
}

// listNode is a JSON array node. MergeJSON only appends, so its elements
// are in operation order. Elements are never removed: an assign over the
// list leaves them as tombstones.
type listNode struct {
	elems []*entry
}
