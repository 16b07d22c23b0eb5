package jsoncrdt

import (
	"encoding/json"
	"reflect"
	"testing"
)

func mustJSON(t *testing.T, s string) map[string]any {
	t.Helper()
	var v map[string]any
	if err := json.Unmarshal([]byte(s), &v); err != nil {
		t.Fatalf("bad test JSON %q: %v", s, err)
	}
	return v
}

// TestPaperListing1Merge reproduces the paper's Listings 1 and 2: two
// transactions write JSON objects with key "Device1", each carrying one
// temperature reading; the merged document holds both readings in block
// order.
func TestPaperListing1Merge(t *testing.T) {
	doc := NewDoc("peer0")
	tx1 := mustJSON(t, `{"tempReadings": [{"temperature": "15"}]}`)
	tx2 := mustJSON(t, `{"tempReadings": [{"temperature": "20"}]}`)
	if err := doc.MergeJSON(tx1); err != nil {
		t.Fatalf("merge tx1: %v", err)
	}
	if err := doc.MergeJSON(tx2); err != nil {
		t.Fatalf("merge tx2: %v", err)
	}
	want := mustJSON(t, `{"tempReadings": [{"temperature": "15"}, {"temperature": "20"}]}`)
	if got := doc.ToJSON(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged document = %v, want %v", got, want)
	}
}

func TestMergeScalarLastWriteWins(t *testing.T) {
	doc := NewDoc("peer0")
	if err := doc.MergeJSON(mustJSON(t, `{"deviceID": "aaa"}`)); err != nil {
		t.Fatal(err)
	}
	if err := doc.MergeJSON(mustJSON(t, `{"deviceID": "bbb"}`)); err != nil {
		t.Fatal(err)
	}
	got := doc.ToJSON()
	if got["deviceID"] != "bbb" {
		t.Fatalf("deviceID = %v, want bbb (later merge wins)", got["deviceID"])
	}
}

func TestMergeNumberAndBoolScalars(t *testing.T) {
	doc := NewDoc("peer0")
	if err := doc.MergeJSON(mustJSON(t, `{"n": 42, "b": true, "z": null}`)); err != nil {
		t.Fatal(err)
	}
	got := doc.ToJSON()
	if got["n"] != float64(42) {
		t.Errorf("n = %v (%T), want 42", got["n"], got["n"])
	}
	if got["b"] != true {
		t.Errorf("b = %v, want true", got["b"])
	}
	if v, ok := got["z"]; !ok || v != nil {
		t.Errorf("z = %v, present=%v, want present nil", v, ok)
	}
}

func TestMergeListsAccumulateAcrossManyMerges(t *testing.T) {
	doc := NewDoc("peer0")
	const n = 25
	for i := 0; i < n; i++ {
		delta := map[string]any{"readings": []any{map[string]any{"t": float64(i)}}}
		if err := doc.MergeJSON(delta); err != nil {
			t.Fatalf("merge %d: %v", i, err)
		}
	}
	got := doc.ToJSON()["readings"].([]any)
	if len(got) != n {
		t.Fatalf("len(readings) = %d, want %d", len(got), n)
	}
	// Block-order append: readings must appear in merge order.
	for i, item := range got {
		if item.(map[string]any)["t"] != float64(i) {
			t.Fatalf("readings[%d] = %v, want t=%d", i, item, i)
		}
	}
}

func TestMergeNestedComplexObject(t *testing.T) {
	// The paper's Listing 4: "3-3 complexity" object.
	doc := NewDoc("peer0")
	obj := mustJSON(t, `{
		"temperatureRoom1": [{"temperatureReading": [{"temperatureValue": 10}]}],
		"temperatureRoom2": [{"temperatureReading": [{"temperatureValue": 20}]}],
		"temperatureRoom3": [{"temperatureReading": [{"temperatureValue": 15}]}]
	}`)
	if err := doc.MergeJSON(obj); err != nil {
		t.Fatal(err)
	}
	if got := doc.ToJSON(); !reflect.DeepEqual(got, obj) {
		t.Fatalf("round trip:\n got %v\nwant %v", got, obj)
	}
	// Merging a second reading for room1 appends inside the nested list.
	delta := mustJSON(t, `{"temperatureRoom1": [{"temperatureReading": [{"temperatureValue": 11}]}]}`)
	if err := doc.MergeJSON(delta); err != nil {
		t.Fatal(err)
	}
	room1 := doc.ToJSON()["temperatureRoom1"].([]any)
	if len(room1) != 2 {
		t.Fatalf("room1 has %d items, want 2", len(room1))
	}
}

func TestMergeNestedLists(t *testing.T) {
	doc := NewDoc("peer0")
	if err := doc.MergeJSON(mustJSON(t, `{"matrix": [["a", "b"], ["c"]]}`)); err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, `{"matrix": [["a", "b"], ["c"]]}`)
	if got := doc.ToJSON(); !reflect.DeepEqual(got, want) {
		t.Fatalf("nested lists: got %v want %v", got, want)
	}
}

func TestMergeRejectsNonObjectRoot(t *testing.T) {
	doc := NewDoc("peer0")
	for _, v := range []any{"str", float64(3), []any{"x"}, true, nil} {
		if err := doc.MergeJSON(v); err == nil {
			t.Errorf("MergeJSON(%v) succeeded, want error", v)
		}
	}
}

func TestMergeRejectsUnsupportedValue(t *testing.T) {
	doc := NewDoc("peer0")
	err := doc.MergeJSON(map[string]any{"bad": make(chan int)})
	if err == nil {
		t.Fatal("want error for unsupported value type")
	}
}

func TestMergeEmptyObjectIsNoop(t *testing.T) {
	doc := NewDoc("peer0")
	if err := doc.MergeJSON(map[string]any{}); err != nil {
		t.Fatal(err)
	}
	if got := doc.ToJSON(); len(got) != 0 {
		t.Fatalf("empty merge produced %v", got)
	}
	if state, err := doc.MarshalBinary(); err != nil || string(state) != "{}" {
		t.Fatalf("empty merge left state %s (err %v)", state, err)
	}
}

func TestMergeDeterministicAcrossReplicas(t *testing.T) {
	// Two peers observing the same deltas in the same (block) order must
	// produce byte-identical state.
	deltas := []string{
		`{"deviceID": "e23df70a", "temperatureReadings": [{"temperature": 25}, {"temperature": 30}]}`,
		`{"temperatureReadings": [{"temperature": 15}]}`,
		`{"deviceID": "ffff0000", "status": "ok"}`,
	}
	a, b := NewDoc("shared"), NewDoc("shared")
	for _, ds := range deltas {
		if err := a.MergeJSON(mustJSON(t, ds)); err != nil {
			t.Fatal(err)
		}
		if err := b.MergeJSON(mustJSON(t, ds)); err != nil {
			t.Fatal(err)
		}
	}
	ab, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(ab) != string(bb) {
		t.Fatalf("replicas diverged:\n%s\n%s", ab, bb)
	}
}

func TestMergeIntAndFloat32Scalars(t *testing.T) {
	doc := NewDoc("peer0")
	if err := doc.MergeJSON(map[string]any{"i": 7, "i64": int64(8), "f32": float32(1.5)}); err != nil {
		t.Fatal(err)
	}
	got := doc.ToJSON()
	if got["i"] != float64(7) || got["i64"] != float64(8) || got["f32"] != float64(1.5) {
		t.Fatalf("numeric normalization: %v", got)
	}
}
