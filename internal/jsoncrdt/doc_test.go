package jsoncrdt

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// TestEditAssignOverwritesContainer: a scalar merged over a key that holds a
// list replaces it, and the list's elements stay behind as tombstones that
// render nowhere.
func TestEditAssignOverwritesContainer(t *testing.T) {
	doc := NewDoc("p0")
	if err := doc.MergeJSON(mustJSON(t, `{"k": ["x", {"y": 1}]}`)); err != nil {
		t.Fatal(err)
	}
	if err := doc.MergeJSON(mustJSON(t, `{"k": "scalar-now"}`)); err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, `{"k": "scalar-now"}`)
	if got := doc.ToJSON(); !reflect.DeepEqual(got, want) {
		t.Fatalf("doc = %v, want %v", got, want)
	}
	state, err := doc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(state), `"list":[`) {
		t.Fatalf("the overwritten list left no tombstones: %s", state)
	}
}

// Property test: merging arbitrary JSON-shaped maps never errors and the
// result is reproducible on a second replica.
func TestMergeJSONDeterminismProperty(t *testing.T) {
	gen := func(seed int64) map[string]any {
		rng := rand.New(rand.NewSource(seed))
		return randomJSONObject(rng, 3)
	}
	f := func(seed int64) bool {
		obj := gen(seed)
		a, b := NewDoc("r"), NewDoc("r")
		if err := a.MergeJSON(obj); err != nil {
			return false
		}
		if err := b.MergeJSON(obj); err != nil {
			return false
		}
		return reflect.DeepEqual(a.ToJSON(), b.ToJSON())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// randomJSONObject builds a random JSON-shaped object with bounded depth.
func randomJSONObject(rng *rand.Rand, depth int) map[string]any {
	n := 1 + rng.Intn(4)
	obj := make(map[string]any, n)
	for i := 0; i < n; i++ {
		key := "k" + string(rune('a'+rng.Intn(8)))
		obj[key] = randomJSONValue(rng, depth)
	}
	return obj
}

func randomJSONValue(rng *rand.Rand, depth int) any {
	if depth <= 0 {
		return float64(rng.Intn(1000))
	}
	switch rng.Intn(5) {
	case 0:
		return "s" + string(rune('a'+rng.Intn(26)))
	case 1:
		return float64(rng.Intn(1000))
	case 2:
		return rng.Intn(2) == 0
	case 3:
		n := rng.Intn(3)
		l := make([]any, n)
		for i := range l {
			l[i] = randomJSONValue(rng, depth-1)
		}
		return l
	default:
		return randomJSONObject(rng, depth-1)
	}
}

func TestStateRoundTrip(t *testing.T) {
	doc := NewDoc("p0")
	deltas := []string{
		`{"deviceID": "e23df70a", "temperatureReadings": [{"temperature": 25}]}`,
		`{"temperatureReadings": [{"temperature": 30}, {"temperature": 15}]}`,
	}
	for _, ds := range deltas {
		if err := doc.MergeJSON(mustJSON(t, ds)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := doc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"applied"`) {
		t.Fatalf("state holds an applied set: %s", data)
	}
	back := NewDoc("other")
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.ToJSON(), back.ToJSON()) {
		t.Fatalf("state round trip diverged:\n%v\n%v", doc.ToJSON(), back.ToJSON())
	}
	// The restored document must keep merging.
	if err := back.MergeJSON(mustJSON(t, `{"x": "y"}`)); err != nil {
		t.Fatal(err)
	}
	data2, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(data2) == string(data) {
		t.Fatal("state did not change after further merge")
	}
}

func TestStateRoundTripDeterministic(t *testing.T) {
	doc := NewDoc("p0")
	if err := doc.MergeJSON(mustJSON(t, `{"a": ["x"], "b": {"c": 1}}`)); err != nil {
		t.Fatal(err)
	}
	d1, err := doc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	clone, err := doc.Clone()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := clone.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(d1) != string(d2) {
		t.Fatalf("clone serialization differs:\n%s\n%s", d1, d2)
	}
}

// TestStateGolden pins the state bytes of two documents, so that a drift
// of the persisted format shows: the paper's Listings 1–2 (two readings
// merged into one list), and a list assigned over by a scalar and then
// appended to again, which leaves a tombstone beside a live element that
// the register hides.
func TestStateGolden(t *testing.T) {
	for _, tc := range []struct {
		deltas []string
		want   string
	}{
		{
			[]string{`{"tempReadings":[{"temperature":"15"}]}`, `{"tempReadings":[{"temperature":"20"}]}`},
			`{"tempReadings":{"list":[{"map":{"temperature":{"reg":{"kind":2,"str":"15"}}}},{"map":{"temperature":{"reg":{"kind":2,"str":"20"}}}}]}}`,
		},
		{
			[]string{`{"a":[1]}`, `{"a":"s"}`, `{"a":[2]}`},
			`{"a":{"reg":{"kind":2,"str":"s"},"list":[{"dead":true},{"reg":{"kind":3,"num":2}}]}}`,
		},
	} {
		doc := NewDoc("")
		for _, d := range tc.deltas {
			if err := doc.MergeJSON(mustJSON(t, d)); err != nil {
				t.Fatal(err)
			}
		}
		state, err := doc.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if string(state) != tc.want {
			t.Errorf("state of %v =\n%s\nwant\n%s", tc.deltas, state, tc.want)
		}
	}
}

func TestUnmarshalBinaryErrors(t *testing.T) {
	doc := NewDoc("p0")
	for _, bad := range []string{
		"",
		"{",
		"null",
		"[]",
		`{"a":null}`,
		`{"a":{"dead":"yes"}}`,
		`{"a":{"map":{"b":null}}}`,
		`{"a":{"list":[null]}}`,
		`{"a":{"list":[{},null]}}`,
		`{"a":{"reg":{"kind":0}}}`,
		`{"a":{"reg":{"kind":99}}}`,
		`{"a":{"list":[{"reg":{"kind":5,"str":"x"}}]}}`,
		// The body of the format with operation IDs.
		`{"replica":"x","counter":1,"root":{"entries":{"a":{"pres":["1@x"]}}}}`,
	} {
		if err := doc.UnmarshalBinary([]byte(bad)); err == nil {
			t.Errorf("UnmarshalBinary(%q) succeeded, want error", bad)
		}
	}
}

func BenchmarkMergeJSONSmallDelta(b *testing.B) {
	delta := map[string]any{
		"tempReadings": []any{map[string]any{"temperature": "21"}},
	}
	b.ReportAllocs()
	doc := NewDoc("p0")
	for i := 0; i < b.N; i++ {
		if err := doc.MergeJSON(delta); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkToJSONGrownDoc(b *testing.B) {
	doc := NewDoc("p0")
	delta := map[string]any{
		"tempReadings": []any{map[string]any{"temperature": "21"}},
	}
	for i := 0; i < 1000; i++ {
		if err := doc.MergeJSON(delta); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = doc.ToJSON()
	}
}

func BenchmarkStateRoundTrip(b *testing.B) {
	doc := NewDoc("p0")
	delta := map[string]any{
		"tempReadings": []any{map[string]any{"temperature": "21"}},
	}
	for i := 0; i < 100; i++ {
		if err := doc.MergeJSON(delta); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := doc.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		back := NewDoc("x")
		if err := back.UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}
