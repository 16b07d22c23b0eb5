package crdt

import (
	"encoding/json"
	"sort"
)

// Type names of the set datatypes.
const (
	TypeGSet  = "g-set"
	TypeORSet = "or-set"
)

// GSet is a grow-only set of strings.
type GSet struct {
	members map[string]struct{}
}

var _ CRDT = (*GSet)(nil)

// NewGSet returns an empty grow-only set.
func NewGSet() *GSet {
	return &GSet{members: make(map[string]struct{})}
}

// TypeName implements CRDT.
func (s *GSet) TypeName() string { return TypeGSet }

// Add inserts v.
func (s *GSet) Add(v string) { s.members[v] = struct{}{} }

// Contains reports membership of v.
func (s *GSet) Contains(v string) bool { _, ok := s.members[v]; return ok }

// Len returns the number of members.
func (s *GSet) Len() int { return len(s.members) }

// Value implements CRDT: the sorted member list.
func (s *GSet) Value() any { return s.Members() }

// Members returns the sorted member list.
func (s *GSet) Members() []string {
	out := make([]string, 0, len(s.members))
	//lint:sorted collected members are sorted below before anything observes them
	for m := range s.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Merge implements CRDT: set union.
func (s *GSet) Merge(other CRDT) error {
	o, err := checkType[*GSet](s, other)
	if err != nil {
		return err
	}
	//lint:sorted set union into a map is order-independent
	for m := range o.members {
		s.members[m] = struct{}{}
	}
	return nil
}

// StateJSON implements CRDT.
func (s *GSet) StateJSON() ([]byte, error) { return json.Marshal(s.Members()) }

// LoadStateJSON implements CRDT.
func (s *GSet) LoadStateJSON(data []byte) error {
	var members []string
	if err := json.Unmarshal(data, &members); err != nil {
		return err
	}
	s.members = make(map[string]struct{}, len(members))
	for _, m := range members {
		s.members[m] = struct{}{}
	}
	return nil
}

// ORSet is an observed-remove set: adds tag each element with a unique ID;
// removes delete exactly the tags observed, so a concurrent add wins over a
// remove (add-wins).
type ORSet struct {
	clock *lamportClock
	// adds maps element -> live tags; tombs holds removed tags.
	adds  map[string]map[string]struct{}
	tombs map[string]struct{}
}

var _ CRDT = (*ORSet)(nil)

// NewORSet returns an empty observed-remove set. Call Bind before local
// mutation to attach the replica identity used for tagging.
func NewORSet() *ORSet {
	return &ORSet{
		clock: newLamportClock("unbound", 0),
		adds:  make(map[string]map[string]struct{}),
		tombs: make(map[string]struct{}),
	}
}

// Bind sets the replica identity used to tag local adds.
func (s *ORSet) Bind(replica string) {
	s.clock = newLamportClock(replica, s.clock.counter)
}

// TypeName implements CRDT.
func (s *ORSet) TypeName() string { return TypeORSet }

// Add inserts v with a fresh tag.
func (s *ORSet) Add(v string) {
	tag := s.clock.tick().String()
	if s.adds[v] == nil {
		s.adds[v] = make(map[string]struct{})
	}
	s.adds[v][tag] = struct{}{}
}

// Remove deletes every currently observed tag of v.
func (s *ORSet) Remove(v string) {
	//lint:sorted tombstone union is order-independent
	for tag := range s.adds[v] {
		s.tombs[tag] = struct{}{}
	}
}

// Contains reports whether v has at least one live tag.
func (s *ORSet) Contains(v string) bool {
	//lint:sorted pure any-live-tag query; no state written, result order-independent
	for tag := range s.adds[v] {
		if _, dead := s.tombs[tag]; !dead {
			return true
		}
	}
	return false
}

// Value implements CRDT: the sorted live member list.
func (s *ORSet) Value() any { return s.Members() }

// Members returns the sorted live member list.
func (s *ORSet) Members() []string {
	out := make([]string, 0, len(s.adds))
	//lint:sorted collected members are sorted below before anything observes them
	for v := range s.adds {
		if s.Contains(v) {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// Merge implements CRDT: union of add-tags and tombstones.
func (s *ORSet) Merge(other CRDT) error {
	o, err := checkType[*ORSet](s, other)
	if err != nil {
		return err
	}
	//lint:sorted tag union into nested maps is order-independent
	for v, tags := range o.adds {
		if s.adds[v] == nil {
			s.adds[v] = make(map[string]struct{}, len(tags))
		}
		//lint:sorted tag union into a map is order-independent
		for tag := range tags {
			s.adds[v][tag] = struct{}{}
		}
	}
	//lint:sorted tombstone union is order-independent
	for tag := range o.tombs {
		s.tombs[tag] = struct{}{}
	}
	// Keep local tags unique after observing remote ones.
	s.witnessTags()
	return nil
}

// witnessTags advances the local clock beyond every known tag.
func (s *ORSet) witnessTags() {
	//lint:sorted lamportClock.witness takes a running max; order-independent
	for _, tags := range s.adds {
		//lint:sorted lamportClock.witness takes a running max; order-independent
		for tag := range tags {
			if id, err := parseLamportID(tag); err == nil {
				s.clock.witness(id)
			}
		}
	}
}

type orsetState struct {
	Counter uint64              `json:"counter"`
	Replica string              `json:"replica"`
	Adds    map[string][]string `json:"adds,omitempty"`
	Tombs   []string            `json:"tombs,omitempty"`
}

// StateJSON implements CRDT.
func (s *ORSet) StateJSON() ([]byte, error) {
	st := orsetState{
		Counter: s.clock.counter,
		Replica: s.clock.replica,
		Adds:    make(map[string][]string, len(s.adds)),
	}
	//lint:sorted encoding/json emits map keys sorted; per-element tag lists sorted below
	for v, tags := range s.adds {
		lst := make([]string, 0, len(tags))
		//lint:sorted collected tags are sorted below
		for tag := range tags {
			lst = append(lst, tag)
		}
		sort.Strings(lst)
		st.Adds[v] = lst
	}
	//lint:sorted collected tombstones are sorted below
	for tag := range s.tombs {
		st.Tombs = append(st.Tombs, tag)
	}
	sort.Strings(st.Tombs)
	return json.Marshal(st)
}

// LoadStateJSON implements CRDT.
func (s *ORSet) LoadStateJSON(data []byte) error {
	var st orsetState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	s.clock = newLamportClock(st.Replica, st.Counter)
	s.adds = make(map[string]map[string]struct{}, len(st.Adds))
	//lint:sorted rebuilding a map from a map; insertion order is invisible
	for v, tags := range st.Adds {
		m := make(map[string]struct{}, len(tags))
		for _, tag := range tags {
			m[tag] = struct{}{}
		}
		s.adds[v] = m
	}
	s.tombs = make(map[string]struct{}, len(st.Tombs))
	for _, tag := range st.Tombs {
		s.tombs[tag] = struct{}{}
	}
	return nil
}
