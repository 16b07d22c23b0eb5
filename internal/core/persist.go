package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"fabriccrdt/internal/rwset"
	"fabriccrdt/internal/statedb"
)

// A key's CRDT state persists as a log of records in the state database's
// metadata space (DESIGN.md §3, docs/PERSISTENCE.md):
//
//   - a snapshot record, the full state, under the key's kind prefix:
//     'J' | uvarint generation | jsoncrdt.MarshalBinary bytes under
//     MetaPrefix + ledger key, or
//     'S' | uvarint generation | crdt.Marshal bytes under TypedMetaPrefix +
//     ledger key
//   - the delta records merged after it, one per block, in numbered slots
//     (deltaKey): 'D' | uvarint generation | uvarint slot | running hash |
//     entries, where the entries are the writes the block passed to
//     keyState.merge for the key, in block order, each
//     uvarint len | CRDTType | uvarint len | value.
//
// A block writes exactly one record for each key it merges into: a
// snapshot when the key has none yet or when the generation's delta
// records add up to the snapshot's size, else the next delta record. The
// rule reads only persisted sizes, so a restarted peer writes the records
// a long-running one writes; it bounds both the amortized snapshot cost
// per block and the replay behind a load by the snapshot's size. Each
// snapshot opens a new generation whose deltas reuse the slots from 0:
// the slots beyond it still hold an earlier generation's records, which a
// load tells apart by their generation and ignores.
//
// The running hash chains the snapshot record and every delta's entries
// after it, so a delta record's bytes identify the whole history it ends.

// DeltaPrefix namespaces the delta record slots of persisted CRDT states
// in the state database's metadata space.
const DeltaPrefix = "crdtd/"

// Record tags. None can open the pre-snapshot format, a bare JSON state.
// JSON documents have their own snapshot tag so that a build that wrote
// them as 'S' records, with operation IDs in the body, refuses these by
// their header; this build refuses 'S' under MetaPrefix in turn
// (parseSnapshot).
const (
	typedSnapshotTag byte = 'S'
	docSnapshotTag   byte = 'J'
	deltaTag         byte = 'D'
)

// snapshotTagOf returns the snapshot tag of the kind whose prefix snapKey
// carries.
func snapshotTagOf(snapKey string) byte {
	if strings.HasPrefix(snapKey, MetaPrefix) {
		return docSnapshotTag
	}
	return typedSnapshotTag
}

// deltaKey is the metadata key of a ledger key's delta slot. The slot
// number ends at the first '/', so no two (key, slot) pairs share a key.
func deltaKey(key string, slot uint64) string {
	return DeltaPrefix + strconv.FormatUint(slot, 10) + "/" + key
}

// keyLog is where one key's persisted record log stands.
type keyLog struct {
	// snapKey is the snapshot's metadata key.
	snapKey string
	gen     uint64
	// snapBytes is the snapshot record's size, 0 while the key has none.
	snapBytes int
	// deltas and deltaBytes count the generation's delta records and their
	// total size; deltas is also the next record's slot.
	deltas     uint64
	deltaBytes int
	// hash is the running hash after the last delta record. Until the
	// first one, snap holds the snapshot record the hash starts from, so
	// a key no later block touches never hashes its snapshot.
	hash [sha256.Size]byte
	snap []byte
}

// snapshotDue reports whether the key's next record is a snapshot.
func (l *keyLog) snapshotDue() bool {
	return l.snapBytes == 0 || l.deltaBytes >= l.snapBytes
}

// appendRecord builds the one record a block writes for a key whose state
// is st after merging entries, and advances the log past it.
func (l *keyLog) appendRecord(key string, st keyState, entries []byte) (metaKey string, rec []byte, err error) {
	if l.snapshotDue() {
		body, err := st.snapshot()
		if err != nil {
			return "", nil, err
		}
		var gen uint64
		if l.snapBytes > 0 {
			gen = l.gen + 1
		}
		rec = append(make([]byte, 0, 1+binary.MaxVarintLen64+len(body)), snapshotTagOf(l.snapKey))
		rec = binary.AppendUvarint(rec, gen)
		rec = append(rec, body...)
		*l = keyLog{snapKey: l.snapKey, gen: gen, snapBytes: len(rec), snap: rec}
		return l.snapKey, rec, nil
	}
	l.hash, l.snap = l.nextHash(entries), nil
	rec = make([]byte, 0, 1+2*binary.MaxVarintLen64+sha256.Size+len(entries))
	rec = append(rec, deltaTag)
	rec = binary.AppendUvarint(rec, l.gen)
	rec = binary.AppendUvarint(rec, l.deltas)
	rec = append(rec, l.hash[:]...)
	rec = append(rec, entries...)
	metaKey = deltaKey(key, l.deltas)
	l.deltas++
	l.deltaBytes += len(rec)
	return metaKey, rec, nil
}

// nextHash returns the running hash after a delta record of entries.
func (l *keyLog) nextHash(entries []byte) [sha256.Size]byte {
	prev := l.hash
	if l.deltas == 0 {
		prev = sha256.Sum256(l.snap)
	}
	h := sha256.New()
	h.Write(prev[:])
	h.Write(entries)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// appendEntry encodes one write passed to keyState.merge.
func appendEntry(dst []byte, w *rwset.Write) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(w.CRDTType)))
	dst = append(dst, w.CRDTType...)
	dst = binary.AppendUvarint(dst, uint64(len(w.Value)))
	return append(dst, w.Value...)
}

// loadState rebuilds the state persisted for key under snapKey: the
// snapshot, decoded by decode, then every delta record of its generation
// replayed through merge in slot order, bad deltas ignored exactly as the
// live merge ignored them. The state is nil when the key has no snapshot.
func loadState(db *statedb.DB, snapKey, key string, decode func(key string, body []byte) (keyState, error)) (keyState, keyLog, error) {
	log := keyLog{snapKey: snapKey}
	rec := db.GetMeta(snapKey)
	if rec == nil {
		return nil, log, nil
	}
	gen, body, err := parseSnapshot(snapKey, key, rec)
	if err != nil {
		return nil, log, err
	}
	st, err := decode(key, body)
	if err != nil {
		return nil, log, fmt.Errorf("core: loading the persisted state of %q: %w", key, err)
	}
	log.gen, log.snapBytes, log.snap = gen, len(rec), rec
	for {
		slot := deltaKey(key, log.deltas)
		rec := db.GetMeta(slot)
		if rec == nil {
			break
		}
		d, err := parseDelta(rec)
		if err != nil {
			return nil, log, fmt.Errorf("core: loading the persisted state of %q: %s: %w", key, slot, err)
		}
		if d.gen != gen {
			break // an earlier generation's record: the log ends here
		}
		if d.slot != log.deltas || d.hash != log.nextHash(d.entries) {
			return nil, log, fmt.Errorf("core: loading the persisted state of %q: %s does not continue generation %d", key, slot, gen)
		}
		if err := replay(st, key, d.entries); err != nil {
			return nil, log, fmt.Errorf("core: loading the persisted state of %q: %s: %w", key, slot, err)
		}
		log.hash, log.snap = d.hash, nil
		log.deltas++
		log.deltaBytes += len(rec)
	}
	return st, log, nil
}

// parseSnapshot splits a snapshot record into its generation and state
// bytes. The formats a datadir is not migrated from are refused by name: a
// bare state — the format before snapshots and deltas — and, under
// MetaPrefix, an 'S' record, a JSON document that carries operation IDs.
func parseSnapshot(snapKey, key string, rec []byte) (gen uint64, body []byte, err error) {
	tag := snapshotTagOf(snapKey)
	if len(rec) > 0 && (rec[0] == '{' || tag == docSnapshotTag && rec[0] == typedSnapshotTag) {
		return 0, nil, fmt.Errorf("core: %s holds the CRDT state of key %q in a format this build does not migrate, a bare state (the pre-snapshot format) or, under %s, a JSON document with operation IDs (record tag 'S'): re-sync the peer into an empty datadir", snapKey, key, MetaPrefix)
	}
	if len(rec) == 0 || rec[0] != tag {
		return 0, nil, fmt.Errorf("core: %s, the persisted state of %q, is not a snapshot record", snapKey, key)
	}
	gen, n := binary.Uvarint(rec[1:])
	if n <= 0 {
		return 0, nil, fmt.Errorf("core: %s, the persisted state of %q, has a corrupt snapshot header", snapKey, key)
	}
	return gen, rec[1+n:], nil
}

// deltaRecord is a parsed delta record.
type deltaRecord struct {
	gen, slot uint64
	hash      [sha256.Size]byte
	entries   []byte
}

var errCorruptDelta = errors.New("corrupt delta record")

func parseDelta(rec []byte) (deltaRecord, error) {
	var d deltaRecord
	if len(rec) == 0 || rec[0] != deltaTag {
		return d, errCorruptDelta
	}
	rest := rec[1:]
	for _, v := range []*uint64{&d.gen, &d.slot} {
		x, n := binary.Uvarint(rest)
		if n <= 0 {
			return d, errCorruptDelta
		}
		*v, rest = x, rest[n:]
	}
	if len(rest) < sha256.Size {
		return d, errCorruptDelta
	}
	copy(d.hash[:], rest)
	d.entries = rest[sha256.Size:]
	return d, nil
}

// replay merges a delta record's entries into st.
func replay(st keyState, key string, entries []byte) error {
	for len(entries) > 0 {
		typ, rest, err := readField(entries)
		if err != nil {
			return err
		}
		value, rest, err := readField(rest)
		if err != nil {
			return err
		}
		w := rwset.Write{Key: key, Value: value, IsCRDT: true, CRDTType: string(typ)}
		if err := st.merge(&w); err != nil && !errors.Is(err, errInvalidDelta) {
			return err
		}
		entries = rest
	}
	return nil
}

// readField reads one uvarint-length-prefixed field.
func readField(b []byte) (field, rest []byte, err error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) {
		return nil, nil, errCorruptDelta
	}
	return b[k : k+int(n)], b[k+int(n):], nil
}
