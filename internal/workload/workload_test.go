package workload

import (
	"encoding/json"
	"reflect"
	"testing"

	"fabriccrdt/internal/chaincode"
	"fabriccrdt/internal/statedb"
)

func TestDefaults(t *testing.T) {
	g := NewIoT(IoTParams{})
	p := g.Params()
	if p.ReadKeys != 1 || p.WriteKeys != 1 || p.JSONKeys != 2 || p.NestingDepth != 1 {
		t.Fatalf("defaults = %+v", p)
	}
}

func TestSpecDeterministic(t *testing.T) {
	g1 := NewIoT(IoTParams{ConflictPct: 50, Seed: 7})
	g2 := NewIoT(IoTParams{ConflictPct: 50, Seed: 7})
	for i := 0; i < 200; i++ {
		if !reflect.DeepEqual(g1.Spec(i), g2.Spec(i)) {
			t.Fatalf("spec %d not deterministic", i)
		}
	}
}

func TestConflictPctExtremes(t *testing.T) {
	all := NewIoT(IoTParams{ConflictPct: 100})
	none := NewIoT(IoTParams{ConflictPct: 0})
	for i := 0; i < 50; i++ {
		if !all.Conflicting(i) {
			t.Fatalf("tx %d not conflicting at 100%%", i)
		}
		if none.Conflicting(i) {
			t.Fatalf("tx %d conflicting at 0%%", i)
		}
	}
}

func TestConflictPctApproximatesTarget(t *testing.T) {
	g := NewIoT(IoTParams{ConflictPct: 40, Seed: 3})
	n, conflicting := 10000, 0
	for i := 0; i < n; i++ {
		if g.Conflicting(i) {
			conflicting++
		}
	}
	got := float64(conflicting) / float64(n) * 100
	if got < 35 || got > 45 {
		t.Fatalf("conflicting fraction = %.1f%%, want ~40%%", got)
	}
}

func TestConflictingTxsShareKeys(t *testing.T) {
	g := NewIoT(IoTParams{ReadKeys: 3, WriteKeys: 2, ConflictPct: 100})
	s1, s2 := g.Spec(1), g.Spec(99)
	if !reflect.DeepEqual(s1.ReadKeys, s2.ReadKeys) {
		t.Fatalf("hot read keys differ: %v vs %v", s1.ReadKeys, s2.ReadKeys)
	}
	if s1.Writes[0].Key != s2.Writes[0].Key {
		t.Fatal("hot write keys differ")
	}
	if len(s1.ReadKeys) != 3 || len(s1.Writes) != 2 {
		t.Fatalf("key counts: %d reads, %d writes", len(s1.ReadKeys), len(s1.Writes))
	}
}

func TestNonConflictingTxsHaveUniqueKeys(t *testing.T) {
	g := NewIoT(IoTParams{ConflictPct: 0})
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		for _, w := range g.Spec(i).Writes {
			if seen[w.Key] {
				t.Fatalf("key %s reused", w.Key)
			}
			seen[w.Key] = true
		}
	}
}

func TestHotKeysCoverReadsAndWrites(t *testing.T) {
	g := NewIoT(IoTParams{ReadKeys: 5, WriteKeys: 3, ConflictPct: 100})
	if n := len(g.HotKeys()); n != 5 {
		t.Fatalf("hot keys = %d, want max(5,3)", n)
	}
}

func TestDeltaListing3Shape(t *testing.T) {
	g := NewIoT(IoTParams{JSONKeys: 2})
	var obj map[string]any
	if err := json.Unmarshal(g.Delta(7), &obj); err != nil {
		t.Fatal(err)
	}
	if len(obj) != 2 {
		t.Fatalf("delta keys = %d, want 2", len(obj))
	}
	if _, ok := obj["deviceID"].(string); !ok {
		t.Fatalf("deviceID missing: %v", obj)
	}
	readings, ok := obj["temperatureReadings1"].([]any)
	if !ok || len(readings) != 1 {
		t.Fatalf("readings = %v", obj["temperatureReadings1"])
	}
}

func TestDeltaComplexityShape(t *testing.T) {
	g := NewIoT(IoTParams{JSONKeys: 3, NestingDepth: 3})
	var obj map[string]any
	if err := json.Unmarshal(g.Delta(1), &obj); err != nil {
		t.Fatal(err)
	}
	if len(obj) != 3 {
		t.Fatalf("keys = %d, want 3", len(obj))
	}
	// Depth check: room -> list -> map -> list -> map -> value.
	depth := 0
	var v any = obj["temperatureRoom1"]
	for {
		list, ok := v.([]any)
		if !ok {
			break
		}
		depth++
		m := list[0].(map[string]any)
		for _, inner := range m {
			v = inner
		}
	}
	if depth != 3 {
		t.Fatalf("nesting depth = %d, want 3", depth)
	}
}

func TestChaincodeProducesCRDTWrites(t *testing.T) {
	g := NewIoT(IoTParams{ReadKeys: 2, WriteKeys: 2, ConflictPct: 100})
	db := statedb.New()
	stub := chaincode.NewSimStub("tx", SpecArgs(5), db)
	if err := g.Chaincode().Invoke(stub); err != nil {
		t.Fatal(err)
	}
	rw := stub.Result()
	if len(rw.Reads) != 2 {
		t.Fatalf("reads = %d", len(rw.Reads))
	}
	if len(rw.Writes) != 2 {
		t.Fatalf("writes = %d", len(rw.Writes))
	}
	for _, w := range rw.Writes {
		if !w.IsCRDT {
			t.Fatalf("write %s not CRDT-flagged", w.Key)
		}
		var obj map[string]any
		if err := json.Unmarshal(w.Value, &obj); err != nil {
			t.Fatalf("delta not valid JSON: %v", err)
		}
	}
}

func TestChaincodeBadArgs(t *testing.T) {
	g := NewIoT(IoTParams{})
	db := statedb.New()
	for _, args := range [][][]byte{
		nil,
		{[]byte("record")},
		{[]byte("record"), []byte("not-a-number")},
		{[]byte("record"), []byte("1"), []byte("extra")},
	} {
		stub := chaincode.NewSimStub("tx", args, db)
		if err := g.Chaincode().Invoke(stub); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestChannelMix(t *testing.T) {
	// No mix configured: the channel stays empty (caller's bound channel).
	g := NewIoT(IoTParams{})
	if got := g.Spec(7).Channel; got != "" {
		t.Fatalf("Channel without mix = %q, want empty", got)
	}
	// A mix spreads transactions round-robin, deterministically.
	g = NewIoT(IoTParams{Channels: []string{"ch1", "ch2", "ch3"}})
	counts := make(map[string]int)
	for i := 0; i < 30; i++ {
		spec := g.Spec(i)
		if spec.Channel != g.ChannelFor(i) {
			t.Fatalf("Spec(%d).Channel = %q, ChannelFor = %q", i, spec.Channel, g.ChannelFor(i))
		}
		if again := g.Spec(i).Channel; again != spec.Channel {
			t.Fatalf("channel assignment not deterministic at %d", i)
		}
		counts[spec.Channel]++
	}
	for _, ch := range []string{"ch1", "ch2", "ch3"} {
		if counts[ch] != 10 {
			t.Fatalf("channel mix unbalanced: %v", counts)
		}
	}
}
