package crdt

import (
	"testing"
	"testing/quick"
)

func TestTickMonotonic(t *testing.T) {
	c := newLamportClock("p0", 0)
	prev := c.tick()
	for i := 0; i < 100; i++ {
		next := c.tick()
		if !prev.less(next) {
			t.Fatalf("tick %d not monotonic: %v !< %v", i, prev, next)
		}
		prev = next
	}
}

func TestWitnessAdvances(t *testing.T) {
	c := newLamportClock("p0", 0)
	c.tick()
	c.witness(lamportID{counter: 41, replica: "p1"})
	got := c.tick()
	if got.counter != 42 {
		t.Fatalf("tick after witness(41) = %d, want 42", got.counter)
	}
	// Witnessing an older ID must not regress the clock.
	c.witness(lamportID{counter: 3, replica: "p9"})
	if got := c.tick(); got.counter != 43 {
		t.Fatalf("tick after stale witness = %d, want 43", got.counter)
	}
}

func TestLessTotalOrder(t *testing.T) {
	cases := []struct {
		a, b lamportID
		want bool
	}{
		{lamportID{1, "a"}, lamportID{2, "a"}, true},
		{lamportID{2, "a"}, lamportID{1, "a"}, false},
		{lamportID{1, "a"}, lamportID{1, "b"}, true},
		{lamportID{1, "b"}, lamportID{1, "a"}, false},
		{lamportID{1, "a"}, lamportID{1, "a"}, false},
	}
	for _, tc := range cases {
		if got := tc.a.less(tc.b); got != tc.want {
			t.Errorf("%v.less(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestLessCounterBeforeReplica: the counter decides before the replica, so
// a later counter wins even against a smaller replica name, in either order.
func TestLessCounterBeforeReplica(t *testing.T) {
	a, b := lamportID{1, "z"}, lamportID{2, "a"}
	if !a.less(b) {
		t.Fatalf("%v.less(%v) = false, want true", a, b)
	}
	if b.less(a) {
		t.Fatalf("%v.less(%v) = true, want false", b, a)
	}
}

func TestParseRoundTrip(t *testing.T) {
	ids := []lamportID{
		{counter: 1, replica: "p0"},
		{counter: 18446744073709551615, replica: "peer-with-dashes"},
		{counter: 7, replica: "org1.peer0"},
	}
	for _, id := range ids {
		got, err := parseLamportID(id.String())
		if err != nil {
			t.Fatalf("parseLamportID(%q): %v", id.String(), err)
		}
		if got != id {
			t.Fatalf("round trip %v -> %v", id, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "@", "@p0", "x@p0", "-1@p0", "12", "1.5@p0"} {
		if _, err := parseLamportID(s); err == nil {
			t.Errorf("parseLamportID(%q) succeeded, want error", s)
		}
	}
}

func TestTextMarshalRoundTrip(t *testing.T) {
	id := lamportID{counter: 9, replica: "p1"}
	b, err := id.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var back lamportID
	if err := back.UnmarshalText(b); err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatalf("text round trip %v -> %v", id, back)
	}
}

func TestUnmarshalTextError(t *testing.T) {
	var id lamportID
	if err := id.UnmarshalText([]byte("bogus")); err == nil {
		t.Fatal("want error for bogus text")
	}
}

func TestZero(t *testing.T) {
	var id lamportID
	if !id.isZero() {
		t.Fatal("zero value must report isZero")
	}
	if (lamportID{counter: 1}).isZero() || (lamportID{replica: "p"}).isZero() {
		t.Fatal("non-zero values must not report isZero")
	}
}

// Property: less is a strict order — irreflexive, and exactly one of a < b,
// b < a and a == b holds.
func TestLessProperties(t *testing.T) {
	f := func(c1, c2 uint64, r1, r2 string) bool {
		a := lamportID{counter: c1, replica: r1}
		b := lamportID{counter: c2, replica: r2}
		if a.less(a) || b.less(b) {
			return false
		}
		n := 0
		for _, holds := range []bool{a.less(b), b.less(a), a == b} {
			if holds {
				n++
			}
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: parse(string(id)) == id for all ids with '@'-free replicas.
func TestParseRoundTripProperty(t *testing.T) {
	f := func(counter uint64, replicaSeed uint8) bool {
		replica := "replica-" + string(rune('a'+replicaSeed%26))
		id := lamportID{counter: counter, replica: replica}
		back, err := parseLamportID(id.String())
		return err == nil && back == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
