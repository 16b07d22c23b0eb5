package crdt

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// The registers and the observed-remove set order and tag their writes with
// Lamport timestamps: every replica stamps its own writes, and a merge
// witnesses the remote stamps so later local writes order after them.

// lamportID is a Lamport timestamp: a (counter, replica) pair totally
// ordered first by counter and then by replica identifier. The zero value
// is "no ID".
type lamportID struct {
	counter uint64
	// replica identifies the issuing replica. It must not contain '@'.
	replica string
}

func (id lamportID) isZero() bool { return id.counter == 0 && id.replica == "" }

// less reports whether id is ordered strictly before other.
func (id lamportID) less(other lamportID) bool {
	if id.counter != other.counter {
		return id.counter < other.counter
	}
	return id.replica < other.replica
}

// String renders the ID as "counter@replica", its form in persisted states.
func (id lamportID) String() string {
	return strconv.FormatUint(id.counter, 10) + "@" + id.replica
}

var errBadID = errors.New("crdt: malformed lamport id")

// parseLamportID parses the "counter@replica" form produced by String.
func parseLamportID(s string) (lamportID, error) {
	at := strings.IndexByte(s, '@')
	if at <= 0 {
		return lamportID{}, fmt.Errorf("%w: %q", errBadID, s)
	}
	n, err := strconv.ParseUint(s[:at], 10, 64)
	if err != nil {
		return lamportID{}, fmt.Errorf("%w: %q: %v", errBadID, s, err)
	}
	return lamportID{counter: n, replica: s[at+1:]}, nil
}

// MarshalText implements encoding.TextMarshaler.
func (id lamportID) MarshalText() ([]byte, error) { return []byte(id.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (id *lamportID) UnmarshalText(b []byte) error {
	parsed, err := parseLamportID(string(b))
	if err != nil {
		return err
	}
	*id = parsed
	return nil
}

// lamportClock is a Lamport logical clock bound to one replica.
type lamportClock struct {
	replica string
	counter uint64
}

func newLamportClock(replica string, counter uint64) *lamportClock {
	return &lamportClock{replica: replica, counter: counter}
}

// tick advances the clock and returns a fresh identifier.
func (c *lamportClock) tick() lamportID {
	c.counter++
	return lamportID{counter: c.counter, replica: c.replica}
}

// witness folds an observed identifier into the clock so that subsequent
// ticks are ordered after it (Lamport's receive rule).
func (c *lamportClock) witness(id lamportID) {
	if id.counter > c.counter {
		c.counter = id.counter
	}
}
