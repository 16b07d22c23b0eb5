package crdt

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestGCounterBasics(t *testing.T) {
	c := NewGCounter()
	c.Increment("a", 3)
	c.Increment("b", 4)
	c.Increment("a", 1)
	if got := c.Sum(); got != 8 {
		t.Fatalf("Sum = %d, want 8", got)
	}
}

func TestGCounterMergeIsMax(t *testing.T) {
	a, b := NewGCounter(), NewGCounter()
	a.Increment("r1", 5)
	b.Increment("r1", 3)
	b.Increment("r2", 7)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got := a.Sum(); got != 12 {
		t.Fatalf("Sum after merge = %d, want 12 (max(5,3)+7)", got)
	}
}

func TestPNCounter(t *testing.T) {
	c := NewPNCounter()
	c.Increment("a", 10)
	c.Increment("b", -4)
	if got := c.Sum(); got != 6 {
		t.Fatalf("Sum = %d, want 6", got)
	}
}

func TestGSetUnion(t *testing.T) {
	a, b := NewGSet(), NewGSet()
	a.Add("x")
	b.Add("y")
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Members(), []string{"x", "y"}) {
		t.Fatalf("members = %v", a.Members())
	}
	if !a.Contains("x") || a.Contains("z") {
		t.Fatal("membership wrong")
	}
	if a.Len() != 2 {
		t.Fatalf("Len = %d", a.Len())
	}
}

func TestORSetAddWins(t *testing.T) {
	a, b := NewORSet(), NewORSet()
	a.Bind("a")
	b.Bind("b")
	a.Add("item")
	// Replicate a's add to b; b removes it; concurrently a re-adds.
	st, err := a.StateJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LoadStateJSON(st); err != nil {
		t.Fatal(err)
	}
	b.Bind("b")
	b.Remove("item")
	a.Add("item") // concurrent with the remove: new tag
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !a.Contains("item") {
		t.Fatal("concurrent add must win over remove")
	}
}

func TestORSetRemoveObserved(t *testing.T) {
	s := NewORSet()
	s.Bind("r")
	s.Add("x")
	s.Remove("x")
	if s.Contains("x") {
		t.Fatal("observed remove must delete the element")
	}
	if got := s.Members(); len(got) != 0 {
		t.Fatalf("members = %v, want empty", got)
	}
}

func TestLWWRegister(t *testing.T) {
	a, b := NewLWWRegister(), NewLWWRegister()
	a.Bind("a")
	b.Bind("b")
	a.Set("first")
	b.Merge(a)
	b.Set("second") // later Lamport stamp
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if v, ok := a.Get(); !ok || v != "second" {
		t.Fatalf("Get = %q, %v; want second", v, ok)
	}
}

func TestLWWMapSetDeleteMerge(t *testing.T) {
	a, b := NewLWWMap(), NewLWWMap()
	a.Bind("a")
	b.Bind("b")
	a.Set("k", "v1")
	st, _ := a.StateJSON()
	if err := b.LoadStateJSON(st); err != nil {
		t.Fatal(err)
	}
	b.Bind("b")
	b.Delete("k") // later stamp: delete wins
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Get("k"); ok {
		t.Fatal("later delete must win")
	}
	a.Set("k", "v2")
	if v, ok := a.Get("k"); !ok || v != "v2" {
		t.Fatalf("Get after re-set = %q, %v", v, ok)
	}
	if !reflect.DeepEqual(a.Keys(), []string{"k"}) {
		t.Fatalf("Keys = %v", a.Keys())
	}
}

func TestGraphEdgesRequireVertices(t *testing.T) {
	g := NewGraph()
	g.Bind("r")
	g.AddEdge("a", "b")
	if !g.HasEdge("a", "b") {
		t.Fatal("edge missing after AddEdge")
	}
	g.RemoveVertex("b")
	if g.HasEdge("a", "b") {
		t.Fatal("edge must hide when endpoint removed")
	}
	if g.HasVertex("b") {
		t.Fatal("vertex b must be removed")
	}
	if !g.HasVertex("a") {
		t.Fatal("vertex a must survive")
	}
}

func TestGraphMerge(t *testing.T) {
	a, b := NewGraph(), NewGraph()
	a.Bind("a")
	b.Bind("b")
	a.AddEdge("x", "y")
	b.AddEdge("y", "z")
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if len(a.Edges()) != 2 || len(a.Vertices()) != 3 {
		t.Fatalf("edges=%v vertices=%v", a.Edges(), a.Vertices())
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	r := NewRegistry()
	for _, name := range r.Types() {
		c, err := r.New(name)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		data, err := Marshal(c)
		if err != nil {
			t.Fatalf("Marshal(%s): %v", name, err)
		}
		back, err := r.Unmarshal(data)
		if err != nil {
			t.Fatalf("Unmarshal(%s): %v", name, err)
		}
		if back.TypeName() != name {
			t.Fatalf("round trip type = %s, want %s", back.TypeName(), name)
		}
	}
}

func TestRegistryErrors(t *testing.T) {
	r := NewRegistry()
	if _, err := r.New("nope"); err == nil {
		t.Fatal("unknown type must error")
	}
	if err := r.Register(TypeGCounter, func() CRDT { return NewGCounter() }); err == nil {
		t.Fatal("duplicate registration must error")
	}
	if _, err := r.Unmarshal([]byte("{")); err == nil {
		t.Fatal("bad envelope must error")
	}
	if _, err := r.Unmarshal([]byte(`{"type":"nope","state":"{}"}`)); err == nil {
		t.Fatal("unknown envelope type must error")
	}
}

func TestMergeTypeMismatch(t *testing.T) {
	c := NewGCounter()
	if err := c.Merge(NewGSet()); err == nil {
		t.Fatal("cross-type merge must error")
	}
}

// buildGCounter derives a counter from a seed for property tests.
func buildGCounter(seed int64) *GCounter {
	rng := rand.New(rand.NewSource(seed))
	c := NewGCounter()
	for i := 0; i < rng.Intn(8); i++ {
		c.Increment("r"+string(rune('0'+rng.Intn(4))), uint64(rng.Intn(100)))
	}
	return c
}

func buildORSet(seed int64, replica string) *ORSet {
	rng := rand.New(rand.NewSource(seed))
	s := NewORSet()
	s.Bind(replica)
	for i := 0; i < rng.Intn(10); i++ {
		v := "v" + string(rune('a'+rng.Intn(6)))
		if rng.Intn(3) == 0 {
			s.Remove(v)
		} else {
			s.Add(v)
		}
	}
	return s
}

func cloneViaState(t *testing.T, c CRDT, fresh CRDT) CRDT {
	t.Helper()
	st, err := c.StateJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadStateJSON(st); err != nil {
		t.Fatal(err)
	}
	return fresh
}

// Property: G-Counter merge is commutative, associative, idempotent.
func TestGCounterMergeProperties(t *testing.T) {
	f := func(s1, s2, s3 int64) bool {
		// Commutativity: a⊔b == b⊔a.
		a1 := buildGCounter(s1)
		b1 := buildGCounter(s2)
		if err := a1.Merge(b1); err != nil {
			return false
		}
		a2 := buildGCounter(s2)
		b2 := buildGCounter(s1)
		if err := a2.Merge(b2); err != nil {
			return false
		}
		if !reflect.DeepEqual(a1.counts, a2.counts) {
			return false
		}
		// Idempotence: a⊔a == a.
		c := buildGCounter(s1)
		cc := buildGCounter(s1)
		if err := c.Merge(cc); err != nil {
			return false
		}
		if !reflect.DeepEqual(c.counts, buildGCounter(s1).counts) {
			return false
		}
		// Associativity: (a⊔b)⊔c == a⊔(b⊔c).
		x := buildGCounter(s1)
		_ = x.Merge(buildGCounter(s2))
		_ = x.Merge(buildGCounter(s3))
		y := buildGCounter(s2)
		_ = y.Merge(buildGCounter(s3))
		z := buildGCounter(s1)
		_ = z.Merge(y)
		return reflect.DeepEqual(x.counts, z.counts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: OR-Set merge is commutative and idempotent on visible members.
func TestORSetMergeProperties(t *testing.T) {
	f := func(s1, s2 int64) bool {
		a1 := buildORSet(s1, "a")
		b1 := buildORSet(s2, "b")
		if err := a1.Merge(b1); err != nil {
			return false
		}
		a2 := buildORSet(s2, "b")
		b2 := buildORSet(s1, "a")
		if err := a2.Merge(b2); err != nil {
			return false
		}
		if !reflect.DeepEqual(a1.Members(), a2.Members()) {
			return false
		}
		// Idempotence.
		c := buildORSet(s1, "a")
		before := c.Members()
		cc := buildORSet(s1, "a")
		if err := c.Merge(cc); err != nil {
			return false
		}
		return reflect.DeepEqual(before, c.Members())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: state round trip preserves value for every registered type.
func TestStateRoundTripProperty(t *testing.T) {
	r := NewRegistry()
	f := func(seed int64) bool {
		c := buildORSet(seed, "r")
		data, err := Marshal(c)
		if err != nil {
			return false
		}
		back, err := r.Unmarshal(data)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(c.Members(), back.(*ORSet).Members())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestStampedStateGolden pins the state bytes of the Lamport-stamped types:
// a peer persists them in its snapshot records, so a change to how IDs or
// clocks encode must show here. Each state also loads back to itself.
func TestStampedStateGolden(t *testing.T) {
	r := NewLWWRegister()
	r.Bind("p0")
	r.Set("first")
	or := NewLWWRegister()
	or.Bind("p1")
	or.Set("x")
	or.Set("second")
	m := NewLWWMap()
	m.Bind("p0")
	m.Set("a", "1")
	m.Set("b", "2")
	m.Delete("a")
	om := NewLWWMap()
	om.Bind("p1")
	om.Set("c", "<&>")
	s := NewORSet()
	s.Bind("p0")
	s.Add("x")
	s.Add("y")
	s.Remove("x")
	os := NewORSet()
	os.Bind("p1")
	os.Add("x")
	os.Add("z")
	for _, err := range []error{r.Merge(or), m.Merge(om), s.Merge(os)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	m.Set("d", "4")
	s.Add("w")

	cases := []struct {
		c    CRDT
		want string
	}{
		{r, `{"counter":2,"replica":"p0","stamp":"2@p1","value":"second"}`},
		{m, `{"counter":4,"replica":"p0","entries":{"a":{"stamp":"3@p0","value":"","deleted":true},"b":{"stamp":"2@p0","value":"2"},"c":{"stamp":"1@p1","value":"\u003c\u0026\u003e"},"d":{"stamp":"4@p0","value":"4"}}}`},
		{s, `{"counter":3,"replica":"p0","adds":{"w":["3@p0"],"x":["1@p0","1@p1"],"y":["2@p0"],"z":["2@p1"]},"tombs":["1@p0"]}`},
	}
	reg := NewRegistry()
	for _, tc := range cases {
		got, err := tc.c.StateJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s state = %s, want %s", tc.c.TypeName(), got, tc.want)
		}
		back, err := reg.New(tc.c.TypeName())
		if err != nil {
			t.Fatal(err)
		}
		if err := back.LoadStateJSON([]byte(tc.want)); err != nil {
			t.Fatal(err)
		}
		if again, _ := back.StateJSON(); string(again) != tc.want {
			t.Errorf("%s state reloads as %s", tc.c.TypeName(), again)
		}
	}
}

func TestSplitEdgeKey(t *testing.T) {
	src, dst, ok := splitEdgeKey(edgeKey("a", "b"))
	if !ok || src != "a" || dst != "b" {
		t.Fatalf("splitEdgeKey = %q, %q, %v", src, dst, ok)
	}
	if _, _, ok := splitEdgeKey("no-separator"); ok {
		t.Fatal("malformed key must not split")
	}
}

func BenchmarkORSetAdd(b *testing.B) {
	s := NewORSet()
	s.Bind("r")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add("member")
	}
}

func BenchmarkGCounterMerge(b *testing.B) {
	a := buildGCounter(1)
	c := buildGCounter(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := a.Merge(c); err != nil {
			b.Fatal(err)
		}
	}
}
