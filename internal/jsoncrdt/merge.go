package jsoncrdt

import (
	"fmt"
	"sort"
)

// MergeJSON implements the paper's Algorithm 2 ("Merge a JSON object with
// JSON CRDT"): it merges a plain JSON value — as produced by
// encoding/json.Unmarshal: map[string]any, []any, string, float64, bool,
// nil — into the document as a sequence of operations.
//
// Semantics follow the paper exactly:
//
//   - a scalar value is assigned at its key, replacing everything visible
//     there — the later of two same-key writes wins;
//   - a list value appends each item, recursing for nested containers —
//     lists accumulate, which is what merges the two temperature readings of
//     Listings 1–2 into one two-element list;
//   - a map value recurses per key.
//
// Every assign and every appended item is one operation: it keeps alive
// every entry on the path from the root to its target. The value must be a
// JSON object (the document root is a map). Map keys are merged in sorted
// order so that every peer applies identical operations in an identical
// order for identical inputs.
func (d *Doc) MergeJSON(v any) error {
	obj, ok := v.(map[string]any)
	if !ok {
		return fmt.Errorf("%w: got %T", errRootNotObject, v)
	}
	for _, key := range sortedKeys(obj) {
		if err := d.mergeValue(nil, key, obj[key]); err != nil {
			return fmt.Errorf("jsoncrdt: merging key %q: %w", key, err)
		}
	}
	return nil
}

// step is one step of the path from the root to the container a value
// merges into: a map key, or a list element this merge appended.
type step struct {
	key  string
	elem *entry
}

// mergeValue merges one key/value pair into the map that path leads to.
func (d *Doc) mergeValue(path []step, key string, val any) error {
	path = append(path, step{key: key})
	switch tv := val.(type) {
	case string, float64, bool, nil, int, int64, float32:
		// Algorithm 2 lines 6-11: assign the scalar. Clearing what is
		// visible at the key makes the later of two same-key scalar writes
		// win deterministically (peers share block order).
		e := d.stamp(path)
		e.clear()
		v := scalarValue(tv)
		e.live, e.reg = true, &v
		return nil
	case []any:
		// Algorithm 2 lines 13-16: append every item to the list,
		// recursing for nested containers. Existing elements are never
		// cleared: concurrent transactions' items accumulate.
		for _, item := range tv {
			if err := d.mergeItem(path, item); err != nil {
				return err
			}
		}
		return nil
	case map[string]any:
		// Algorithm 2 lines 18-21: recurse per map key.
		for _, k := range sortedKeys(tv) {
			if err := d.mergeValue(path, k, tv[k]); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: %T", errUnsupportedType, val)
	}
}

// mergeItem appends one item to the list held by the entry path leads to.
// Containers are appended empty and then filled item by item or key by key.
func (d *Doc) mergeItem(path []step, item any) error {
	switch item.(type) {
	case string, float64, bool, nil, int, int64, float32, map[string]any, []any:
	default:
		return fmt.Errorf("%w: %T", errUnsupportedType, item)
	}
	l := d.stamp(path).ensureList()
	el := &entry{live: true}
	l.elems = append(l.elems, el)
	path = append(path, step{elem: el})
	switch tv := item.(type) {
	case map[string]any:
		el.ensureMap()
		for _, k := range sortedKeys(tv) {
			if err := d.mergeValue(path, k, tv[k]); err != nil {
				return err
			}
		}
	case []any:
		el.ensureList()
		for _, nested := range tv {
			if err := d.mergeItem(path, nested); err != nil {
				return err
			}
		}
	default:
		v := scalarValue(tv)
		el.reg = &v
	}
	return nil
}

// stamp walks path from the root, creating the map entries and branches it
// passes through, and marks every entry on it live, so that the operation
// keeps its whole path visible. It returns the entry the path ends at, the
// operation's target.
func (d *Doc) stamp(path []step) *entry {
	m := d.root
	var e *entry
	for i, s := range path {
		if s.elem != nil {
			e = s.elem
		} else {
			e = m.child(s.key)
		}
		e.live = true
		if i+1 < len(path) && path[i+1].elem == nil {
			m = e.ensureMap()
		}
	}
	return e
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	//lint:sorted collected keys are sorted below before anything observes them
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
