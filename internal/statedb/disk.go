package statedb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"fabriccrdt/internal/framing"
	"fabriccrdt/internal/rwset"
)

// diskBackend is the persistent backend: an append-only record log plus a
// periodically rewritten snapshot, with the full state mirrored in memory
// (the "index") so reads never touch the disk.
//
// On-disk layout inside the data directory:
//
//	state.snap   one batch record holding the whole compacted state
//	state.log    batch records appended since the last compaction
//
// Both files hold internal/framing records (docs/PERSISTENCE.md, "Record
// format and recovery"), and each payload is one batch record (see
// encodeBatch): the commit height followed by the block's key mutations
// and metadata writes. One Apply appends exactly one frame, so a crash can
// only ever produce a torn *tail*, which open truncates back to the last
// intact frame instead of failing. Opening replays the snapshot, then the
// log, rebuilding the in-memory maps and the persisted height.
//
// Compaction: when the log grows past DiskOptions.CompactAfterBytes the
// whole in-memory state atomically replaces state.snap (a crash
// mid-compaction leaves the previous snapshot valid) and the log is
// truncated.
type diskBackend struct {
	dir  string
	opts DiskOptions

	mu      sync.RWMutex
	data    map[string]VersionedValue
	meta    map[string][]byte
	height  rwset.Version
	log     *os.File
	logSize int64
	closed  bool
	// logBroken disables the write path after a failed append: the file
	// may end in a torn frame, and anything written after it would be
	// silently dropped by the next open's tail truncation.
	logBroken bool
	// compactBroken stops retrying a failed compaction on every block.
	compactBroken bool
	applyErr      error
	// I/O accounting surfaced via Stats (mu held for writes).
	appends     int64
	fsyncs      int64
	compactions int64
}

// Stats reports the backend's current log size and lifetime
// append/fsync/compaction counts.
func (b *diskBackend) Stats() Stats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return Stats{
		LogBytes:    b.logSize,
		Appends:     b.appends,
		Fsyncs:      b.fsyncs,
		Compactions: b.compactions,
	}
}

// DiskOptions tunes a disk backend.
type DiskOptions struct {
	// CompactAfterBytes rewrites the snapshot and truncates the log once
	// the log exceeds this size; <= 0 selects the 8 MiB default.
	CompactAfterBytes int64
	// SyncEveryApply fsyncs the log after every batch. Off (the default),
	// batches reach the OS page cache on Apply and the disk on Close or
	// compaction: a process crash loses nothing, a host power loss may
	// lose the most recent batches (never corrupting earlier ones).
	SyncEveryApply bool
	// BeforeCompact, when set, runs right before a compaction makes the
	// whole state durable (snapshot fsync + rename). The channel runtime
	// uses it to fsync the peer's block store first, so a power loss
	// around compaction cannot leave the durable state ahead of the block
	// log. An error aborts the compaction; the log stays authoritative.
	BeforeCompact func() error
}

const defaultCompactAfterBytes = 8 << 20

func (o DiskOptions) normalized() DiskOptions {
	if o.CompactAfterBytes <= 0 {
		o.CompactAfterBytes = defaultCompactAfterBytes
	}
	return o
}

const (
	snapFileName = "state.snap"
	logFileName  = "state.log"

	recordVersion = 1

	// maxRecordBytes bounds a single record so a corrupt length prefix
	// cannot trigger a multi-gigabyte allocation on open.
	maxRecordBytes = 1 << 30
)

// ErrClosed reports use of a closed disk backend.
var ErrClosed = errors.New("statedb: disk backend is closed")

// OpenDisk opens (creating if needed) a persistent backend rooted at dir.
// The returned backend satisfies Durable.
func OpenDisk(dir string, opts DiskOptions) (Backend, error) {
	return openDisk(dir, opts)
}

func openDisk(dir string, opts DiskOptions) (*diskBackend, error) {
	if dir == "" {
		return nil, errors.New("statedb: disk backend requires a data directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("statedb: creating data dir: %w", err)
	}
	// Refuse a directory holding an LSM store: opening it as the
	// log+snapshot backend would silently present an empty state while the
	// real one sits in files this backend never reads.
	for _, name := range []string{manifestFileName, walFileName} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return nil, fmt.Errorf("statedb: %s holds an LSM store (%s exists); refusing to open it as the disk backend", dir, name)
		}
	}
	b := &diskBackend{
		dir:  dir,
		opts: opts.normalized(),
		data: make(map[string]VersionedValue),
		meta: make(map[string][]byte),
	}
	if err := b.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := b.openAndReplayLog(); err != nil {
		return nil, err
	}
	return b, nil
}

// NewDisk returns a world state persisted under dir with default options.
// Reopening the same directory restores the state and the height of the
// last committed block.
func NewDisk(dir string) (*DB, error) {
	return NewDiskWithOptions(dir, DiskOptions{})
}

// NewDiskWithOptions is NewDisk with explicit DiskOptions.
func NewDiskWithOptions(dir string, opts DiskOptions) (*DB, error) {
	b, err := openDisk(dir, opts)
	if err != nil {
		return nil, err
	}
	return NewWithBackend(b), nil
}

// loadSnapshot replays state.snap if present. A snapshot is replaced
// atomically so it is either absent or one fully intact record; a corrupt
// snapshot is reported as an error rather than silently dropped, since
// losing it would silently lose compacted history.
func (b *diskBackend) loadSnapshot() error {
	path := filepath.Join(b.dir, snapFileName)
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("statedb: reading snapshot: %w", err)
	}
	payload, err := framing.Verify(raw)
	if err == nil {
		err = b.replayRecord(payload)
	}
	if err != nil {
		return fmt.Errorf("statedb: corrupt snapshot %s: %w", path, err)
	}
	return nil
}

// openAndReplayLog opens state.log for append, replaying every intact
// frame into memory (the torn tail a crash mid-Apply leaves behind is
// truncated).
func (b *diskBackend) openAndReplayLog() error {
	f, size, err := framing.OpenLog(filepath.Join(b.dir, logFileName), 0, maxRecordBytes, b.replayRecord)
	if err != nil {
		return fmt.Errorf("statedb: opening log: %w", err)
	}
	b.log, b.logSize = f, size
	return nil
}

// replayRecord applies one batch record to the in-memory maps.
func (b *diskBackend) replayRecord(payload []byte) error {
	updates, meta, height, err := decodeBatch(payload)
	if err != nil {
		return fmt.Errorf("record decode: %w", err)
	}
	applyToMaps(b.data, b.meta, updates, meta)
	b.height = height
	return nil
}

func (b *diskBackend) Get(key string) (VersionedValue, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	vv, ok := b.data[key]
	return vv, ok
}

func (b *diskBackend) GetMeta(key string) []byte {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.meta[key]
}

func (b *diskBackend) Range(start, end string) []KV {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return rangeOverMap(b.data, start, end)
}

func (b *diskBackend) KeyCount() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.data)
}

// PersistedHeight returns the height of the last batch that reached the
// store (zero for a fresh store).
func (b *diskBackend) PersistedHeight() rwset.Version {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.height
}

// Err returns the first write error Apply encountered, if any. The Backend
// interface keeps Apply error-free (in-memory backends cannot fail), so
// the disk backend records failures and surfaces them here and on Close.
func (b *diskBackend) Err() error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.applyErr
}

// Apply durably appends the batch to the log, then applies it to the
// in-memory maps and compacts if the log has outgrown the threshold. A
// write failure is recorded (see Err) and the in-memory update still
// happens, keeping the running peer consistent; the store is simply no
// longer ahead of memory.
//
// The write path is fail-stop: after the first failed append (which may
// have left a torn frame mid-file), no further frames are written — a
// frame appended after a torn one would be silently discarded by the next
// open's tail truncation anyway, so continuing would only fake
// durability. The recorded error keeps surfacing via Err and Close.
func (b *diskBackend) Apply(updates map[string]Update, meta map[string][]byte, height rwset.Version) {
	frame := encodeBatch(updates, meta, height)
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.closed:
		b.recordErr(ErrClosed)
	case b.logBroken:
		// Write path disabled by an earlier failed append.
	default:
		n, err := appendBatch(b.log, frame, b.opts.SyncEveryApply)
		b.logSize += int64(n)
		if err != nil {
			b.logBroken = true
			b.recordErr(err)
			break
		}
		b.appends++
		if b.opts.SyncEveryApply {
			b.fsyncs++
		}
	}
	applyToMaps(b.data, b.meta, updates, meta)
	b.height = height
	if !b.logBroken && !b.closed && !b.compactBroken && b.logSize > b.opts.CompactAfterBytes {
		if err := b.compactLocked(); err != nil {
			// Compaction failures leave the log authoritative; don't retry
			// every block (each attempt costs an O(state) encode).
			b.compactBroken = true
			b.recordErr(err)
		}
	}
}

func (b *diskBackend) recordErr(err error) {
	if b.applyErr == nil {
		b.applyErr = err
	}
}

// appendBatch seals frame (as encodeBatch returns it) in place, appends it
// to log and, when sync is set, fsyncs it — the durable step of Apply on
// the disk log and the LSM WAL alike. It returns the bytes that reached the
// file (a failed write may be partial). A payload over maxRecordBytes is
// refused: replay would reject its frame.
func appendBatch(log *os.File, frame []byte, sync bool) (int, error) {
	if err := framing.Seal(frame, maxRecordBytes); err != nil {
		return 0, fmt.Errorf("statedb: batch record: %w", err)
	}
	n, err := log.Write(frame)
	if err == nil && sync {
		err = log.Sync()
	}
	if err != nil {
		return n, fmt.Errorf("statedb: appending batch to %s: %w", filepath.Base(log.Name()), err)
	}
	return n, nil
}

// compactLocked atomically replaces state.snap with the whole in-memory
// state as one snapshot record and truncates the log (mu held). A crash at
// any point leaves either the old snapshot + old log or the new snapshot +
// (possibly still full, harmlessly replayed) log.
func (b *diskBackend) compactLocked() error {
	if b.opts.BeforeCompact != nil {
		if err := b.opts.BeforeCompact(); err != nil {
			return fmt.Errorf("statedb: pre-compaction hook: %w", err)
		}
	}
	frame := encodeSnapshot(b.data, b.meta, b.height)
	if err := framing.Seal(frame, maxRecordBytes); err != nil {
		// Keep the old snapshot + full log, which still reproduce the state.
		return fmt.Errorf("statedb: state snapshot: %w; compaction skipped", err)
	}
	err := framing.ReplaceFile(filepath.Join(b.dir, snapFileName), func(w io.Writer) error {
		_, err := w.Write(frame)
		return err
	})
	if err != nil {
		return fmt.Errorf("statedb: writing snapshot: %w", err)
	}
	b.fsyncs += framing.ReplaceFileSyncs
	if err := b.log.Truncate(0); err != nil {
		return fmt.Errorf("statedb: truncating log after compaction: %w", err)
	}
	if _, err := b.log.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("statedb: rewinding log after compaction: %w", err)
	}
	b.logSize = 0
	b.compactions++
	return nil
}

// Reset drops all contents, in memory and on disk.
func (b *diskBackend) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.data = make(map[string]VersionedValue)
	b.meta = make(map[string][]byte)
	b.height = rwset.Version{}
	if b.closed {
		return
	}
	if err := os.Remove(filepath.Join(b.dir, snapFileName)); err != nil && !errors.Is(err, os.ErrNotExist) {
		b.recordErr(err)
	}
	if err := b.log.Truncate(0); err != nil {
		b.logBroken = true
		b.recordErr(err)
	} else if _, err := b.log.Seek(0, io.SeekStart); err != nil {
		b.logBroken = true
		b.recordErr(err)
	} else {
		// An emptied log has no torn tail: the write path is clean again
		// (the first error stays recorded for Err/Close).
		b.logBroken = false
		b.compactBroken = false
	}
	b.logSize = 0
}

// Close fsyncs and closes the log, returning the first error any Apply
// encountered (write failures would otherwise be invisible to callers).
func (b *diskBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return b.applyErr
	}
	b.closed = true
	if err := b.log.Sync(); err != nil {
		b.recordErr(err)
	} else {
		b.fsyncs++
	}
	if err := b.log.Close(); err != nil {
		b.recordErr(err)
	}
	return b.applyErr
}

// Batch record encoding (little-endian, length-prefixed strings/bytes):
//
//	u8  record format version (1)
//	u64 height.BlockNum, u64 height.TxNum
//	u32 update count, then per update:
//	    u32 key length, key bytes,
//	    u8  flags (bit 0 = delete),
//	    u64 version.BlockNum, u64 version.TxNum,
//	    u32 value length, value bytes   (omitted for deletes)
//	u32 meta count, then per entry:
//	    u32 key length, key bytes, u32 value length, value bytes
//
// Updates are written in map order: replay order within one batch is
// irrelevant because UpdateBatch already collapsed per-key writes.

// encodeBatch encodes one batch record behind framing.HeaderLen reserved
// bytes, ready for appendBatch to seal in place without copying it.
func encodeBatch(updates map[string]Update, meta map[string][]byte, height rwset.Version) []byte {
	size := 1 + 16 + 4 + 4
	for k, u := range updates {
		size += 4 + len(k) + 1 + 16
		if !u.IsDelete {
			size += 4 + len(u.Value)
		}
	}
	for k, v := range meta {
		size += 4 + len(k) + 4 + len(v)
	}
	buf := make([]byte, framing.HeaderLen, framing.HeaderLen+size)
	buf = append(buf, recordVersion)
	buf = binary.LittleEndian.AppendUint64(buf, height.BlockNum)
	buf = binary.LittleEndian.AppendUint64(buf, height.TxNum)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(updates)))
	for k, u := range updates {
		buf = appendString(buf, k)
		var flags byte
		if u.IsDelete {
			flags |= 1
		}
		buf = append(buf, flags)
		buf = binary.LittleEndian.AppendUint64(buf, u.Version.BlockNum)
		buf = binary.LittleEndian.AppendUint64(buf, u.Version.TxNum)
		if !u.IsDelete {
			buf = appendBytes(buf, u.Value)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(meta)))
	for k, v := range meta {
		buf = appendString(buf, k)
		buf = appendBytes(buf, v)
	}
	return buf
}

// encodeSnapshot writes the whole state as one batch record (all puts, no
// deletes), straight from the live maps — the snapshot is a batch that
// replays into the full state, so open needs no separate snapshot decoder.
// The record sits behind framing.HeaderLen reserved bytes, ready to be
// sealed in place: a snapshot is too large to copy into a second buffer.
func encodeSnapshot(data map[string]VersionedValue, meta map[string][]byte, height rwset.Version) []byte {
	size := 1 + 16 + 4 + 4
	for k, vv := range data {
		size += 4 + len(k) + 1 + 16 + 4 + len(vv.Value)
	}
	for k, v := range meta {
		size += 4 + len(k) + 4 + len(v)
	}
	buf := make([]byte, framing.HeaderLen, framing.HeaderLen+size)
	buf = append(buf, recordVersion)
	buf = binary.LittleEndian.AppendUint64(buf, height.BlockNum)
	buf = binary.LittleEndian.AppendUint64(buf, height.TxNum)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(data)))
	for k, vv := range data {
		buf = appendString(buf, k)
		buf = append(buf, 0) // flags: a live value, never a delete
		buf = binary.LittleEndian.AppendUint64(buf, vv.Version.BlockNum)
		buf = binary.LittleEndian.AppendUint64(buf, vv.Version.TxNum)
		buf = appendBytes(buf, vv.Value)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(meta)))
	for k, v := range meta {
		buf = appendString(buf, k)
		buf = appendBytes(buf, v)
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func appendBytes(buf []byte, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// errTruncatedRecord reports a record shorter than its own structure
// claims — distinct from a torn frame, which the CRC already caught; this
// guards against decoding bugs and hand-corrupted files.
var errTruncatedRecord = errors.New("truncated batch record")

func decodeBatch(buf []byte) (map[string]Update, map[string][]byte, rwset.Version, error) {
	var height rwset.Version
	d := &decoder{buf: buf}
	ver := d.u8()
	if d.err == nil && ver != recordVersion {
		return nil, nil, height, fmt.Errorf("unsupported record version %d", ver)
	}
	height.BlockNum = d.u64()
	height.TxNum = d.u64()
	nUpdates := d.u32()
	updates := make(map[string]Update, nUpdates)
	for i := uint32(0); i < nUpdates && d.err == nil; i++ {
		key := d.str()
		flags := d.u8()
		u := Update{IsDelete: flags&1 != 0}
		u.Version.BlockNum = d.u64()
		u.Version.TxNum = d.u64()
		if !u.IsDelete {
			u.Value = d.bytes()
		}
		updates[key] = u
	}
	nMeta := d.u32()
	meta := make(map[string][]byte, nMeta)
	for i := uint32(0); i < nMeta && d.err == nil; i++ {
		key := d.str()
		meta[key] = d.bytes()
	}
	if d.err != nil {
		return nil, nil, rwset.Version{}, d.err
	}
	if len(d.buf) != d.off {
		return nil, nil, rwset.Version{}, fmt.Errorf("batch record has %d trailing bytes", len(d.buf)-d.off)
	}
	return updates, meta, height, nil
}

// decoder is a cursor over a batch record; the first structural failure
// sticks in err and zero values flow from then on.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) || n < 0 {
		d.err = errTruncatedRecord
		return nil
	}
	out := d.buf[d.off : d.off+n]
	d.off += n
	return out
}

func (d *decoder) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) str() string { return string(d.take(int(d.u32()))) }

func (d *decoder) bytes() []byte {
	b := d.take(int(d.u32()))
	if b == nil {
		return nil
	}
	// Copy out of the record buffer: stored values must not alias the
	// (reusable) decode input.
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
