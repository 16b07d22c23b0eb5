// Package blockstore implements the durable block store: an append-only
// log of block bodies, one per (node, channel) — the ledger.BlockStore
// behind a durable peer's chain and a durable orderer's History — making
// the ledger, not just the state database, the recovery root.
// In Fabric the blockchain is the source of truth and the world state a
// rebuildable cache (Androulaki et al., §2.1); with this store a restarted
// peer can serve its full history to lagging peers (Peer.SyncFrom) and
// re-derive its world state from block 0 (Peer.RebuildState), neither of
// which a state checkpoint alone allows.
//
// On-disk layout inside the store directory (DataDir/<channel-ID>/blocks
// on a peer through the channel runtime, and on an orderer):
//
//	blocks.log   framed block records, appended one per committed block
//	blocks.idx   offset sidecar: where each block's frame starts
//
// Both files hold internal/framing records (docs/PERSISTENCE.md, "Record
// format and recovery"); each log payload is one block (format version
// byte, block number, JSON block body carrying the commit-time validation
// codes). One Append writes exactly one frame, so a crash can only produce
// a torn *tail*, which Open truncates back to the last intact,
// in-sequence block.
//
// The index sidecar is an optimization, never an authority: it is replaced
// atomically on Close and every few hundred appends, and Open verifies the
// last indexed frame before trusting it, then scans the log forward for
// any frames the index has not caught up with. A missing, stale or corrupt
// index just means a full log scan.
package blockstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"fabriccrdt/internal/framing"
	"fabriccrdt/internal/ledger"
)

const (
	logFileName = "blocks.log"
	idxFileName = "blocks.idx"

	recordVersion = 1

	// maxRecordBytes bounds a single record so a corrupt length prefix
	// cannot trigger a multi-gigabyte allocation on open.
	maxRecordBytes = 1 << 30

	// payloadHeaderLen is the per-record prefix before the block body:
	// format version byte + the block number.
	payloadHeaderLen = 1 + 8

	// idxEvery flushes the offset sidecar after this many appends, so a
	// crashed store reopens with at most idxEvery frames to re-scan.
	idxEvery = 256
)

// ErrClosed reports use of a closed block store.
var ErrClosed = errors.New("blockstore: store is closed")

// Options tunes a block store.
type Options struct {
	// SyncEveryAppend fsyncs the log after every appended block. Off (the
	// default), blocks reach the OS page cache on Append and the disk on
	// Close or an index flush: a process crash loses nothing, a host power
	// loss may lose the most recent blocks (never corrupting earlier ones)
	// — the same durability window as the statedb disk backend.
	SyncEveryAppend bool
}

// Store is one channel's durable block log. Appends are strictly
// sequential (block n can only follow block n-1, starting from 0); reads
// may run concurrently with appends, so a peer serves history to a
// syncing peer while it keeps committing.
type Store struct {
	dir  string
	opts Options

	mu   sync.RWMutex
	log  *os.File
	size int64
	// offsets[n] is the log offset of block n's frame; the store always
	// covers the contiguous range [0, len(offsets)).
	offsets []int64
	// appendsSinceIdx counts frames not yet covered by the sidecar.
	appendsSinceIdx int
	closed          bool
	// broken disables the write path after a failed append: the file may
	// end in a torn frame, and a frame written after it would be silently
	// dropped by the next open's tail truncation.
	broken bool
	// I/O accounting surfaced via Stats (mu held for writes).
	appends int64
	fsyncs  int64
}

// Stats is the store's I/O accounting, scraped into the obs metrics
// endpoint.
type Stats struct {
	LogBytes int64
	Appends  int64
	Fsyncs   int64
}

// Stats reports the current log size and lifetime append/fsync counts
// (fsyncs include the sidecar-index installs).
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{LogBytes: s.size, Appends: s.appends, Fsyncs: s.fsyncs}
}

// Exists reports whether dir already holds a block log — a cheap probe
// for stores created by an earlier run, without opening (and thereby
// creating) one.
func Exists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, logFileName))
	return err == nil
}

// Open opens (creating if needed) the block store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("blockstore: store requires a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blockstore: creating store dir: %w", err)
	}
	s := &Store{dir: dir, opts: opts}
	path := filepath.Join(dir, logFileName)
	// Frames the sidecar index vouches for are not re-read; everything
	// after them is scanned, and the scan stops — truncating the rest — at
	// the first frame that is damaged or not the next block in sequence.
	off := s.loadIndex(path)
	f, size, err := framing.OpenLog(path, off, maxRecordBytes, func(payload []byte) error {
		b, err := decodeRecord(payload)
		if err != nil {
			return err
		}
		if next := uint64(len(s.offsets)); b.Header.Number != next {
			return fmt.Errorf("block %d where block %d belongs", b.Header.Number, next)
		}
		s.offsets = append(s.offsets, off)
		off += int64(framing.HeaderLen + len(payload))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("blockstore: opening log: %w", err)
	}
	s.log, s.size = f, size
	return s, nil
}

// Height returns the number of stored blocks — equivalently, the number
// the next appended block must carry. The store always covers the
// contiguous range [0, Height()).
func (s *Store) Height() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return uint64(len(s.offsets))
}

// Append writes block b to the log. b must be the next block in sequence
// (Header.Number == Height()); the caller appends blocks exactly as they
// commit, validation codes included, so the log replays into the same
// outcomes the live pipeline produced.
//
// The write path is fail-stop, like the statedb disk log: after the first
// failed append (which may have left a torn frame mid-file) every further
// Append fails — a frame after a torn one would be discarded by the next
// open's tail truncation, faking durability.
func (s *Store) Append(b *ledger.Block) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return ErrClosed
	case s.broken:
		return errors.New("blockstore: write path disabled by an earlier failed append")
	}
	next := uint64(len(s.offsets))
	if b.Header.Number != next {
		return fmt.Errorf("blockstore: appending block %d out of sequence (next is %d)", b.Header.Number, next)
	}
	body, err := b.Marshal()
	if err != nil {
		return fmt.Errorf("blockstore: encoding block %d: %w", b.Header.Number, err)
	}
	frame := make([]byte, framing.HeaderLen+payloadHeaderLen, framing.HeaderLen+payloadHeaderLen+len(body))
	frame[framing.HeaderLen] = recordVersion
	binary.LittleEndian.PutUint64(frame[framing.HeaderLen+1:], b.Header.Number)
	frame = append(frame, body...)
	if err := framing.Seal(frame, maxRecordBytes); err != nil {
		return fmt.Errorf("blockstore: block %d: %w", b.Header.Number, err)
	}
	if _, err := s.log.Write(frame); err != nil {
		s.broken = true
		return fmt.Errorf("blockstore: appending block %d: %w", b.Header.Number, err)
	}
	if s.opts.SyncEveryAppend {
		if err := s.log.Sync(); err != nil {
			s.broken = true
			return fmt.Errorf("blockstore: syncing log: %w", err)
		}
		s.fsyncs++
	}
	s.offsets = append(s.offsets, s.size)
	s.size += int64(len(frame))
	s.appends++
	s.appendsSinceIdx++
	if s.appendsSinceIdx >= idxEvery {
		// Best-effort: a failed sidecar write only costs the next open a
		// longer scan.
		if s.writeIndexLocked() == nil {
			s.appendsSinceIdx = 0
		}
	}
	return nil
}

// Get returns stored block n. Blocks the store does not hold report
// ledger.ErrBlockNotFound.
func (s *Store) Get(n uint64) (*ledger.Block, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	if n >= uint64(len(s.offsets)) {
		return nil, fmt.Errorf("%w: %d (block store holds [0, %d))", ledger.ErrBlockNotFound, n, len(s.offsets))
	}
	end := s.size
	if n+1 < uint64(len(s.offsets)) {
		end = s.offsets[n+1]
	}
	b, err := readRecord(s.log, s.offsets[n], end)
	if err != nil {
		return nil, fmt.Errorf("blockstore: reading block %d: %w", n, err)
	}
	if b.Header.Number != n {
		return nil, fmt.Errorf("blockstore: record at offset %d holds block %d, want %d", s.offsets[n], b.Header.Number, n)
	}
	return b, nil
}

// Sync flushes the log to stable storage. The channel runtime calls it
// before the state store makes anything durable beyond its routine
// appends (snapshot compaction), preserving the recovery invariant that
// the durable state never gets ahead of the block log.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.log.Sync(); err != nil {
		s.broken = true
		return fmt.Errorf("blockstore: syncing log: %w", err)
	}
	s.fsyncs++
	return nil
}

// Close flushes the offset sidecar and the log and closes the store,
// returning the first failure.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	if err := s.writeIndexLocked(); err != nil && first == nil {
		first = err
	}
	if err := s.log.Sync(); err != nil && first == nil {
		first = err
	}
	if err := s.log.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// readRecord reads and decodes the block whose frame spans [off, end) of
// the log — the index knows both, so one read fetches the frame.
func readRecord(log *os.File, off, end int64) (*ledger.Block, error) {
	payload, err := framing.ReadAt(log, off, int(end-off), maxRecordBytes)
	if err != nil {
		return nil, err
	}
	return decodeRecord(payload)
}

// decodeRecord decodes one log payload: format version byte, block number,
// JSON block body.
func decodeRecord(payload []byte) (*ledger.Block, error) {
	if len(payload) < payloadHeaderLen {
		return nil, fmt.Errorf("record of %d bytes is shorter than its header", len(payload))
	}
	if payload[0] != recordVersion {
		return nil, fmt.Errorf("unsupported record version %d", payload[0])
	}
	num := binary.LittleEndian.Uint64(payload[1:9])
	b, err := ledger.UnmarshalBlock(payload[payloadHeaderLen:])
	if err != nil {
		return nil, fmt.Errorf("record decode: %w", err)
	}
	if b.Header.Number != num {
		return nil, fmt.Errorf("record claims block %d but holds block %d", num, b.Header.Number)
	}
	return b, nil
}

// Index sidecar payload (one frame around it, like the log):
//
//	u8  format version (1)
//	u64 block count
//	u64 end offset of the last indexed frame
//	count × u64 frame offsets
//
// writeIndexLocked replaces it atomically, so the sidecar is either the
// previous intact one or the new intact one.
func (s *Store) writeIndexLocked() error {
	frame := make([]byte, framing.HeaderLen, framing.HeaderLen+1+16+8*len(s.offsets))
	frame = append(frame, recordVersion)
	frame = binary.LittleEndian.AppendUint64(frame, uint64(len(s.offsets)))
	frame = binary.LittleEndian.AppendUint64(frame, uint64(s.size))
	for _, off := range s.offsets {
		frame = binary.LittleEndian.AppendUint64(frame, uint64(off))
	}
	if err := framing.Seal(frame, maxRecordBytes); err != nil {
		return fmt.Errorf("blockstore: index: %w", err)
	}

	// The log must be durable up to everything the index claims before the
	// index is installed: an index pointing past the persisted log would
	// survive a power loss that the frames it indexes did not.
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("blockstore: syncing log before index: %w", err)
	}
	s.fsyncs++
	err := framing.ReplaceFile(filepath.Join(s.dir, idxFileName), func(w io.Writer) error {
		_, err := w.Write(frame)
		return err
	})
	if err != nil {
		return fmt.Errorf("blockstore: writing index: %w", err)
	}
	s.fsyncs += framing.ReplaceFileSyncs
	return nil
}

// loadIndex seeds s.offsets from the sidecar when it is intact and
// consistent with the log at logPath, returning the offset scanning should
// resume from. Any inconsistency — missing file, bad CRC, offsets past the
// log's end, a last frame that no longer verifies — discards the index and
// returns 0 (full scan): the log is always the authority.
func (s *Store) loadIndex(logPath string) int64 {
	data, err := os.ReadFile(filepath.Join(s.dir, idxFileName))
	if err != nil {
		return 0
	}
	payload, err := framing.Verify(data)
	if err != nil || len(payload) < 1+16 || payload[0] != recordVersion {
		return 0
	}
	count := binary.LittleEndian.Uint64(payload[1:9])
	end := int64(binary.LittleEndian.Uint64(payload[9:17]))
	if uint64(len(payload)-17) != count*8 {
		return 0
	}
	log, err := os.Open(logPath)
	if err != nil {
		return 0
	}
	defer log.Close()
	info, err := log.Stat()
	if err != nil || end > info.Size() {
		return 0
	}
	offsets := make([]int64, count)
	prev := int64(-1)
	for i := range offsets {
		off := int64(binary.LittleEndian.Uint64(payload[17+8*i:]))
		if off <= prev || off >= end {
			return 0
		}
		offsets[i] = off
		prev = off
	}
	if count > 0 {
		// Trust, but verify the newest indexed frame end to end; earlier
		// frames are CRC-checked on every read anyway.
		b, err := readRecord(log, offsets[count-1], end)
		if err != nil || b.Header.Number != count-1 {
			return 0
		}
	}
	s.offsets = offsets
	return end
}
