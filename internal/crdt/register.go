package crdt

import (
	"encoding/json"
	"sort"
)

// Type names of the register datatypes.
const (
	TypeLWWRegister = "lww-register"
	TypeLWWMap      = "lww-map"
)

// LWWRegister is a last-writer-wins register ordered by Lamport timestamp.
type LWWRegister struct {
	clock *lamportClock
	stamp lamportID
	value string
}

var _ CRDT = (*LWWRegister)(nil)

// NewLWWRegister returns an empty register.
func NewLWWRegister() *LWWRegister {
	return &LWWRegister{clock: newLamportClock("unbound", 0)}
}

// Bind sets the replica identity used to stamp local writes.
func (r *LWWRegister) Bind(replica string) {
	r.clock = newLamportClock(replica, r.clock.counter)
}

// TypeName implements CRDT.
func (r *LWWRegister) TypeName() string { return TypeLWWRegister }

// Set writes v with a fresh timestamp.
func (r *LWWRegister) Set(v string) {
	r.stamp = r.clock.tick()
	r.value = v
}

// Get returns the current value and whether the register was ever written.
func (r *LWWRegister) Get() (string, bool) { return r.value, !r.stamp.isZero() }

// Value implements CRDT.
func (r *LWWRegister) Value() any { return r.value }

// Merge implements CRDT: the greater timestamp wins.
func (r *LWWRegister) Merge(other CRDT) error {
	o, err := checkType[*LWWRegister](r, other)
	if err != nil {
		return err
	}
	if r.stamp.less(o.stamp) {
		r.stamp, r.value = o.stamp, o.value
	}
	r.clock.witness(o.stamp)
	return nil
}

type lwwRegState struct {
	Counter uint64    `json:"counter"`
	Replica string    `json:"replica"`
	Stamp   lamportID `json:"stamp"`
	Value   string    `json:"value"`
}

// StateJSON implements CRDT.
func (r *LWWRegister) StateJSON() ([]byte, error) {
	return json.Marshal(lwwRegState{
		Counter: r.clock.counter,
		Replica: r.clock.replica,
		Stamp:   r.stamp,
		Value:   r.value,
	})
}

// LoadStateJSON implements CRDT.
func (r *LWWRegister) LoadStateJSON(data []byte) error {
	var st lwwRegState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	r.clock = newLamportClock(st.Replica, st.Counter)
	r.stamp = st.Stamp
	r.value = st.Value
	return nil
}

// LWWMap is a map of string keys to last-writer-wins values with
// last-writer-wins deletion.
type LWWMap struct {
	clock   *lamportClock
	entries map[string]lwwEntry
}

type lwwEntry struct {
	Stamp   lamportID `json:"stamp"`
	Value   string    `json:"value"`
	Deleted bool      `json:"deleted,omitempty"`
}

var _ CRDT = (*LWWMap)(nil)

// NewLWWMap returns an empty map.
func NewLWWMap() *LWWMap {
	return &LWWMap{
		clock:   newLamportClock("unbound", 0),
		entries: make(map[string]lwwEntry),
	}
}

// Bind sets the replica identity used to stamp local writes.
func (m *LWWMap) Bind(replica string) {
	m.clock = newLamportClock(replica, m.clock.counter)
}

// TypeName implements CRDT.
func (m *LWWMap) TypeName() string { return TypeLWWMap }

// Set writes key=value with a fresh timestamp.
func (m *LWWMap) Set(key, value string) {
	m.entries[key] = lwwEntry{Stamp: m.clock.tick(), Value: value}
}

// Delete tombstones key with a fresh timestamp.
func (m *LWWMap) Delete(key string) {
	m.entries[key] = lwwEntry{Stamp: m.clock.tick(), Deleted: true}
}

// Get returns the live value of key.
func (m *LWWMap) Get(key string) (string, bool) {
	e, ok := m.entries[key]
	if !ok || e.Deleted {
		return "", false
	}
	return e.Value, true
}

// Value implements CRDT: a plain map of the live entries.
func (m *LWWMap) Value() any {
	out := make(map[string]string)
	//lint:sorted map-to-map projection; insertion order is invisible
	for k, e := range m.entries {
		if !e.Deleted {
			out[k] = e.Value
		}
	}
	return out
}

// Keys returns the sorted live keys.
func (m *LWWMap) Keys() []string {
	out := make([]string, 0, len(m.entries))
	//lint:sorted collected keys are sorted below before anything observes them
	for k, e := range m.entries {
		if !e.Deleted {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Merge implements CRDT: per-key greater timestamp wins.
func (m *LWWMap) Merge(other CRDT) error {
	o, err := checkType[*LWWMap](m, other)
	if err != nil {
		return err
	}
	//lint:sorted per-key LWW merge is commutative; witness takes a running max
	for k, oe := range o.entries {
		cur, ok := m.entries[k]
		if !ok || cur.Stamp.less(oe.Stamp) {
			m.entries[k] = oe
		}
		m.clock.witness(oe.Stamp)
	}
	return nil
}

type lwwMapState struct {
	Counter uint64              `json:"counter"`
	Replica string              `json:"replica"`
	Entries map[string]lwwEntry `json:"entries,omitempty"`
}

// StateJSON implements CRDT.
func (m *LWWMap) StateJSON() ([]byte, error) {
	return json.Marshal(lwwMapState{
		Counter: m.clock.counter,
		Replica: m.clock.replica,
		Entries: m.entries,
	})
}

// LoadStateJSON implements CRDT.
func (m *LWWMap) LoadStateJSON(data []byte) error {
	var st lwwMapState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	m.clock = newLamportClock(st.Replica, st.Counter)
	m.entries = st.Entries
	if m.entries == nil {
		m.entries = make(map[string]lwwEntry)
	}
	return nil
}
