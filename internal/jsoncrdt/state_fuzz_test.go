package jsoncrdt

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// maxFuzzDeltas bounds the merges one fuzz input drives, so each input
// stays cheap.
const maxFuzzDeltas = 32

// FuzzDocStateRoundTrip holds MarshalBinary/UnmarshalBinary to the property
// a resident document relies on: for every reachable state, the decoded
// copy behaves exactly like the original. The input is a stream of JSON
// deltas, one per line (lines that do not parse are skipped); before each
// merge and after the last, the document is round-tripped and the copy must
// render the same converged value and re-marshal to the same bytes; the
// next delta is then merged into both, which must stay equal.
func FuzzDocStateRoundTrip(f *testing.F) {
	for _, stream := range []string{
		`{"k":[[]]}` + "\n" + `{"x":"1"}`,
		`{"k":[[],[[]],{}]}` + "\n" + `{"k":[[]]}`,
		`{"n":-0}` + "\n" + `{"m":[-0,0]}`,
		`{"r":[{"t":"15"}]}` + "\n" + `{"r":[{"t":"20"}],"id":"dev"}`,
		`{"a":1}` + "\n" + `{"a":[1]}` + "\n" + `{"a":{"b":[true,null]}}` + "\n" + `{"a":"s"}`,
		`{"":"","\u003c":["\u00e9",1e21,-1.5]}`,
		`not json` + "\n" + `[1,2]` + "\n" + `{"ok":{}}`,
		// Revived tombstones: an assign clears a branch that later
		// merges stamp live again.
		`{"a":[1]}` + "\n" + `{"a":"s"}` + "\n" + `{"a":[2]}`,
		`{"a":{"b":1}}` + "\n" + `{"a":2}` + "\n" + `{"a":{"c":3}}`,
		`{"a":{"l":[1,[2]]}}` + "\n" + `{"a":"s"}` + "\n" + `{"a":{"l":[3]}}`,
	} {
		f.Add(stream)
	}
	f.Fuzz(func(t *testing.T, stream string) {
		var deltas []any
		for _, line := range strings.Split(stream, "\n") {
			var delta any
			if json.Unmarshal([]byte(line), &delta) == nil {
				deltas = append(deltas, delta)
			}
		}
		if len(deltas) > maxFuzzDeltas {
			deltas = deltas[:maxFuzzDeltas]
		}
		doc := NewDoc("fuzz")
		for i, delta := range deltas {
			decoded := roundTrip(t, doc)
			// A rejected delta leaves a reachable state too: both documents
			// must reject it alike and keep evolving in step.
			errDoc, errDecoded := doc.MergeJSON(delta), decoded.MergeJSON(delta)
			if (errDoc == nil) != (errDecoded == nil) {
				t.Fatalf("delta %d: original merge err = %v, decoded copy err = %v", i, errDoc, errDecoded)
			}
			requireSameDoc(t, doc, decoded)
		}
		roundTrip(t, doc)
	})
}

// roundTrip decodes a copy of doc from its MarshalBinary bytes and checks
// that the copy is indistinguishable from doc.
func roundTrip(t *testing.T, doc *Doc) *Doc {
	t.Helper()
	state, err := doc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	decoded := NewDoc("other")
	if err := decoded.UnmarshalBinary(state); err != nil {
		t.Fatalf("decoding %s: %v", state, err)
	}
	requireSameDoc(t, doc, decoded)
	return decoded
}

// requireSameDoc fails unless both documents marshal to the same state
// bytes and render the same converged value.
func requireSameDoc(t *testing.T, want, got *Doc) {
	t.Helper()
	wantState, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	gotState, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantState, gotState) {
		t.Fatalf("state bytes differ:\n got %s\nwant %s", gotState, wantState)
	}
	wantValue, err := want.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	gotValue, err := got.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantValue, gotValue) {
		t.Fatalf("converged values differ over state %s:\n got %s\nwant %s", wantState, gotValue, wantValue)
	}
}
