package jsoncrdt

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestTypeConflictPrecedence: when merges of different types reach one key,
// every branch survives internally and presentation picks register over
// map over list, whatever order the merges came in.
func TestTypeConflictPrecedence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		deltas []string
		want   string
	}{
		{"scalar then list", []string{`{"k":"s"}`, `{"k":["i"]}`}, `{"k":"s"}`},
		{"map then list", []string{`{"k":{"a":1}}`, `{"k":["i"]}`}, `{"k":{"a":1}}`},
		{"list then map", []string{`{"k":["i"]}`, `{"k":{"a":1}}`}, `{"k":{"a":1}}`},
		{"scalar then map", []string{`{"k":"s"}`, `{"k":{"a":1}}`}, `{"k":"s"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doc := NewDoc("p")
			for _, d := range tc.deltas {
				if err := doc.MergeJSON(mustJSON(t, d)); err != nil {
					t.Fatal(err)
				}
			}
			if got := doc.ToJSON(); !reflect.DeepEqual(got, mustJSON(t, tc.want)) {
				t.Fatalf("rendered %v, want %s", got, tc.want)
			}
		})
	}
}

func TestDeepNestingMergeAndRoundTrip(t *testing.T) {
	// Build a 12-level nested object and check merge + persistence.
	inner := any("leaf")
	for i := 0; i < 12; i++ {
		if i%2 == 0 {
			inner = []any{inner}
		} else {
			inner = map[string]any{"level": inner}
		}
	}
	obj := map[string]any{"deep": inner}
	doc := NewDoc("p")
	if err := doc.MergeJSON(obj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.ToJSON(), obj) {
		t.Fatalf("deep round trip:\n got %v\nwant %v", doc.ToJSON(), obj)
	}
	data, err := doc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back := NewDoc("q")
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.ToJSON(), obj) {
		t.Fatal("deep state round trip diverged")
	}
}

func TestMarshalJSONMatchesToJSON(t *testing.T) {
	doc := NewDoc("p")
	if err := doc.MergeJSON(mustJSON(t, `{"b":2,"a":[{"x":"y"}]}`)); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var viaDoc, viaPlain map[string]any
	if err := json.Unmarshal(data, &viaDoc); err != nil {
		t.Fatal(err)
	}
	plain, err := json.Marshal(doc.ToJSON())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(plain, &viaPlain); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaDoc, viaPlain) {
		t.Fatalf("MarshalJSON != ToJSON: %v vs %v", viaDoc, viaPlain)
	}
}
