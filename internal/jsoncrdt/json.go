package jsoncrdt

import (
	"encoding/json"

	"fabriccrdt/internal/lamport"
)

// ToJSON returns the document as a plain Go value (map[string]any /
// []any / scalars) with every piece of CRDT metadata stripped — the paper's
// "ConvertCRDTToDataType" (Algorithm 1 line 20).
//
// Determinism rules, identical on every replica:
//
//   - an entry is present iff its presence set is non-empty;
//   - a register renders the value written by the greatest operation ID
//     (an assign clears the register, so a merged document holds one);
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
		if !e.visible() {
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
		if !el.ent.visible() {
			continue
		}
		if v, ok := entryToJSON(el.ent); ok {
			out = append(out, v)
		}
	}
	return out
}

// entryToJSON converts one entry to its plain value; ok is false when the
// entry carries no renderable content (e.g. fully cleared register).
func entryToJSON(e *entry) (any, bool) {
	if len(e.reg) > 0 {
		return resolveRegister(e.reg).plain(), true
	}
	if e.mapN != nil {
		return mapToJSON(e.mapN), true
	}
	if e.list != nil {
		return listToJSON(e.list), true
	}
	return nil, false
}

// resolveRegister picks the register value written by the greatest operation
// ID — the deterministic "last writer in Lamport order wins" presentation.
func resolveRegister(reg map[lamport.ID]scalar) scalar {
	var (
		best   lamport.ID
		bestV  scalar
		picked bool
	)
	//lint:sorted running max over totally-ordered Lamport IDs; order-independent
	for id, v := range reg {
		if !picked || best.Less(id) {
			best, bestV, picked = id, v, true
		}
	}
	return bestV
}
