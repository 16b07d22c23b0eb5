package jsoncrdt

import (
	"fmt"
	"sort"

	"fabriccrdt/internal/lamport"
)

// MergeJSON implements the paper's Algorithm 2 ("Merge a JSON object with
// JSON CRDT"): it converts a plain JSON value — as produced by
// encoding/json.Unmarshal: map[string]any, []any, string, float64, bool,
// nil — into JSON CRDT operations against this document and applies them.
//
// Semantics follow the paper exactly:
//
//   - a scalar value becomes an assign (insert mutation in the paper's
//     wording) at the cursor extended by its key;
//   - a list value appends each item, recursing for nested containers —
//     lists accumulate, which is what merges the two temperature readings of
//     Listings 1–2 into one two-element list;
//   - a map value recurses per key, extending the cursor with the map key.
//
// Every generated operation ticks the document's Lamport clock and carries
// the dependency list accumulated so far for its top-level key (Algorithm 2
// lines 3–4 reset cursor and dependencies per key), plus the operation IDs
// visible at the assign target so that a later scalar write deterministically
// replaces an earlier one.
//
// The value must be a JSON object (the document root is a map). Map keys are
// processed in sorted order so that every replica generates identical
// operation identifiers for identical inputs.
func (d *Doc) MergeJSON(v any) error {
	obj, ok := v.(map[string]any)
	if !ok {
		return fmt.Errorf("%w: got %T", ErrRootNotObject, v)
	}
	for _, key := range sortedKeys(obj) {
		// Algorithm 2 lines 3-4: fresh cursor and dependency set per key.
		deps := make(idSet)
		if err := d.mergeValue(Cursor{}, key, obj[key], deps); err != nil {
			return fmt.Errorf("jsoncrdt: merging key %q: %w", key, err)
		}
	}
	return nil
}

// mergeValue merges one key/value pair located under parent into the
// document, accumulating the generated operation IDs into deps.
func (d *Doc) mergeValue(parent Cursor, key string, val any, deps idSet) error {
	cursor := parent.Extend(MapKey(key))
	switch tv := val.(type) {
	case string, float64, bool, nil, int, int64, float32:
		// Algorithm 2 lines 6-11: assign the scalar. Clearing the
		// currently visible content makes the later of two same-key scalar
		// writes win deterministically (peers share block order).
		clear := d.liveIDsAt(cursor)
		//lint:sorted id-set union is order-independent
		for id := range deps {
			clear.add(id)
		}
		op, err := d.newLocalOp(cursor, Mutation{Kind: MutAssign, Value: scalarValue(tv)}, clear)
		if err != nil {
			return err
		}
		deps.add(op.ID)
		return nil
	case []any:
		// Algorithm 2 lines 13-16: append every item to the list,
		// recursing for nested containers. Existing elements are never
		// cleared: concurrent transactions' items accumulate.
		for _, item := range tv {
			if err := d.mergeListItem(cursor, item, deps); err != nil {
				return err
			}
		}
		return nil
	case map[string]any:
		// Algorithm 2 lines 18-21: recurse per map key.
		for _, k := range sortedKeys(tv) {
			if err := d.mergeValue(cursor, k, tv[k], deps); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: %T", ErrUnsupportedType, val)
	}
}

// mergeListItem appends one item to the list held by the entry at cursor.
func (d *Doc) mergeListItem(cursor Cursor, item any, deps idSet) error {
	after := d.listTailID(cursor)
	switch tv := item.(type) {
	case string, float64, bool, nil, int, int64, float32:
		op, err := d.newLocalOp(cursor, Mutation{Kind: MutInsert, Value: scalarValue(tv), After: after}, deps)
		if err != nil {
			return err
		}
		deps.add(op.ID)
		return nil
	case map[string]any:
		op, err := d.newLocalOp(cursor, Mutation{Kind: MutInsert, Value: Value{Kind: ValEmptyMap}, After: after}, deps)
		if err != nil {
			return err
		}
		deps.add(op.ID)
		elemCursor := cursor.Extend(ListElem(op.ID))
		for _, k := range sortedKeys(tv) {
			if err := d.mergeValue(elemCursor, k, tv[k], deps); err != nil {
				return err
			}
		}
		return nil
	case []any:
		op, err := d.newLocalOp(cursor, Mutation{Kind: MutInsert, Value: Value{Kind: ValEmptyList}, After: after}, deps)
		if err != nil {
			return err
		}
		deps.add(op.ID)
		elemCursor := cursor.Extend(ListElem(op.ID))
		for _, nested := range tv {
			if err := d.mergeListItem(elemCursor, nested, deps); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: %T", ErrUnsupportedType, item)
	}
}

// listTailID returns the insertion ID of the final element (tombstoned or
// live) of the list at cursor, or the zero ID if the list is empty or does
// not exist yet. Appending after the absolute tail keeps block order.
func (d *Doc) listTailID(cursor Cursor) lamport.ID {
	e := d.lookup(cursor)
	if e == nil || e.list == nil || e.list.tail == nil {
		return lamport.ID{}
	}
	return e.list.tail.id
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

// scalarValue converts a Go scalar into a mutation Value.
func scalarValue(v any) Value {
	switch tv := v.(type) {
	case string:
		return StringValue(tv)
	case float64:
		return NumberValue(tv)
	case float32:
		return NumberValue(float64(tv))
	case int:
		return NumberValue(float64(tv))
	case int64:
		return NumberValue(float64(tv))
	case bool:
		return BoolValue(tv)
	case nil:
		return NullValue()
	default:
		// Callers switch on the same type set before calling.
		return NullValue()
	}
}
