package jsoncrdt

import "encoding/json"

// ToJSON returns the document as a plain Go value (map[string]any /
// []any / scalars) with every piece of CRDT metadata stripped — the paper's
// "ConvertCRDTToDataType" (Algorithm 1 line 20).
//
// Determinism rules, identical on every replica:
//
//   - an entry is present iff it is live;
//   - a register renders the one value the last assign wrote;
//   - when updates of different types to one key leave several branches
//     populated, registers win over maps, maps over lists;
//   - list elements appear in list order, skipping tombstones.
func (d *Doc) ToJSON() map[string]any {
	return mapToJSON(d.root)
}

// MarshalJSON renders ToJSON with encoding/json, keys sorted.
func (d *Doc) MarshalJSON() ([]byte, error) {
	return json.Marshal(d.ToJSON())
}

func mapToJSON(m *mapNode) map[string]any {
	out := make(map[string]any, len(m.entries))
	//lint:sorted map-to-map projection; encoding/json emits keys sorted
	for key, e := range m.entries {
		if !e.live {
			continue
		}
		if v, ok := entryToJSON(e); ok {
			out[key] = v
		}
	}
	return out
}

func listToJSON(l *listNode) []any {
	out := make([]any, 0, len(l.elems))
	for _, el := range l.elems {
		if !el.live {
			continue
		}
		if v, ok := entryToJSON(el); ok {
			out = append(out, v)
		}
	}
	return out
}

// entryToJSON converts one entry to its plain value; ok is false when the
// entry carries no renderable content (e.g. fully cleared register).
func entryToJSON(e *entry) (any, bool) {
	if e.reg != nil {
		return e.reg.plain(), true
	}
	if e.mapN != nil {
		return mapToJSON(e.mapN), true
	}
	if e.list != nil {
		return listToJSON(e.list), true
	}
	return nil, false
}
