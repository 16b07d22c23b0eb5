package statedb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"

	"fabriccrdt/internal/framing"
	"fabriccrdt/internal/rwset"
)

// Sorted-run file format (the LSM backend's immutable on-disk unit):
//
//	[data block frame]...[filter frame][index frame][44-byte footer]
//
// Data blocks, the filter and the index are internal/framing frames like
// every other statedb record, so a flipped bit anywhere is caught by a
// checksum. The fixed-size footer sits at EOF and carries its own
// framing.Checksum; open reads only the footer, the index and the filter —
// never the data blocks — so opening a run is O(1) in the number of
// entries.
//
// Runs are installed with framing.ReplaceFile before any manifest
// references them, so a manifest-listed run is either fully intact or
// evidence of external corruption (which open refuses, mirroring the disk
// backend's corrupt-snapshot refusal).
//
// Data block payload:
//
//	u32 entry count, then per entry:
//	    u8  flags (bit 0 = tombstone; other bits invalid)
//	    u32 key length, internal key bytes
//	    u64 version.BlockNum, u64 version.TxNum
//	    u32 value length, value bytes   (omitted for tombstones)
//
// Index payload: u32 block count, then per block
// u32 first-key length + bytes, u64 file offset, u32 framed length.
//
// Filter payload: u32 hash count (k), u64 bit count, bit bytes.

const (
	runFooterLen     = 44
	runMagic         = 0x4C534D31 // "LSM1"
	runFormatVersion = 1
)

// runEntry is one internal-keyed record inside a memtable or run. Internal
// keys carry a one-byte namespace prefix ('d' data, 'm' metadata) so both
// keyspaces share one sorted file (see dataKey/metaKey in lsm.go).
type runEntry struct {
	ikey      string
	tombstone bool
	version   rwset.Version
	value     []byte
}

// runEntrySize approximates the resident cost of one entry, used for
// memtable and block-cache accounting.
func runEntrySize(e runEntry) int {
	return len(e.ikey) + len(e.value) + 48
}

// runBlockMeta locates one data block within a run file.
type runBlockMeta struct {
	firstKey string
	off      int64
	flen     uint32
}

func runFileName(seq uint64) string { return fmt.Sprintf("run-%06d.run", seq) }

// encodeRunBlock encodes one data block payload. Entries must already be
// sorted by internal key (the writer flushes sorted memtables and merges
// sorted runs, so this holds by construction).
func encodeRunBlock(entries []runEntry) []byte {
	size := 4
	for _, e := range entries {
		size += 1 + 4 + len(e.ikey) + 16
		if !e.tombstone {
			size += 4 + len(e.value)
		}
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		var flags byte
		if e.tombstone {
			flags |= 1
		}
		buf = append(buf, flags)
		buf = appendString(buf, e.ikey)
		buf = binary.LittleEndian.AppendUint64(buf, e.version.BlockNum)
		buf = binary.LittleEndian.AppendUint64(buf, e.version.TxNum)
		if !e.tombstone {
			buf = appendBytes(buf, e.value)
		}
	}
	return buf
}

// decodeRunBlock decodes one data block payload. It rejects unknown flag
// bits and trailing bytes, keeping the codec bijective: whatever decodes
// re-encodes to the identical bytes (pinned by FuzzRunDecode). Values are
// copied out of buf, so cached blocks never alias a read buffer.
func decodeRunBlock(buf []byte) ([]runEntry, error) {
	d := &decoder{buf: buf}
	n := d.u32()
	// A tombstone with an empty key — the smallest possible entry — still
	// takes 21 bytes, so reject implausible counts before allocating. (Any
	// input failing this would also fail the per-entry truncation checks;
	// the guard only bounds the allocation.)
	if d.err == nil && int64(n)*21 > int64(len(buf)) {
		return nil, fmt.Errorf("run block claims %d entries in %d bytes", n, len(buf))
	}
	entries := make([]runEntry, 0, n)
	for i := uint32(0); i < n && d.err == nil; i++ {
		flags := d.u8()
		if d.err == nil && flags&^byte(1) != 0 {
			return nil, fmt.Errorf("run block entry has unknown flags %#x", flags)
		}
		e := runEntry{ikey: d.str(), tombstone: flags&1 != 0}
		e.version.BlockNum = d.u64()
		e.version.TxNum = d.u64()
		if !e.tombstone {
			e.value = d.bytes()
		}
		entries = append(entries, e)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != d.off {
		return nil, fmt.Errorf("run block has %d trailing bytes", len(d.buf)-d.off)
	}
	return entries, nil
}

// bloomFilter is a classic split-hash bloom filter: k probe positions
// derived from one 64-bit FNV-1a hash via double hashing. ~10 bits and 7
// probes per key give a ~1% false-positive rate.
type bloomFilter struct {
	k    uint32
	m    uint64 // bit count
	bits []byte
}

func bloomKeyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

func buildBloom(hashes []uint64) bloomFilter {
	m := uint64(len(hashes)) * 10
	if m < 64 {
		m = 64
	}
	bl := bloomFilter{k: 7, m: m, bits: make([]byte, (m+7)/8)}
	for _, h := range hashes {
		bl.set(h)
	}
	return bl
}

func (bl bloomFilter) probe(h uint64, i uint32) uint64 {
	h1 := h & 0xFFFFFFFF
	h2 := (h >> 32) | 1 // odd, so probes cycle through distinct positions
	return (h1 + uint64(i)*h2) % bl.m
}

func (bl bloomFilter) set(h uint64) {
	for i := uint32(0); i < bl.k; i++ {
		p := bl.probe(h, i)
		bl.bits[p/8] |= 1 << (p % 8)
	}
}

func (bl bloomFilter) mayContain(h uint64) bool {
	for i := uint32(0); i < bl.k; i++ {
		p := bl.probe(h, i)
		if bl.bits[p/8]&(1<<(p%8)) == 0 {
			return false
		}
	}
	return true
}

func encodeBloom(bl bloomFilter) []byte {
	buf := make([]byte, 0, 12+len(bl.bits))
	buf = binary.LittleEndian.AppendUint32(buf, bl.k)
	buf = binary.LittleEndian.AppendUint64(buf, bl.m)
	return append(buf, bl.bits...)
}

func decodeBloom(buf []byte) (bloomFilter, error) {
	if len(buf) < 12 {
		return bloomFilter{}, fmt.Errorf("bloom filter record of %d bytes is too short", len(buf))
	}
	bl := bloomFilter{
		k: binary.LittleEndian.Uint32(buf[0:4]),
		m: binary.LittleEndian.Uint64(buf[4:12]),
	}
	if bl.k == 0 || bl.m == 0 || uint64(len(buf)-12) != (bl.m+7)/8 {
		return bloomFilter{}, fmt.Errorf("bloom filter dimensions k=%d m=%d do not match %d bit bytes", bl.k, bl.m, len(buf)-12)
	}
	bl.bits = buf[12:]
	return bl, nil
}

func encodeRunIndex(index []runBlockMeta) []byte {
	size := 4
	for _, m := range index {
		size += 4 + len(m.firstKey) + 8 + 4
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(index)))
	for _, m := range index {
		buf = appendString(buf, m.firstKey)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.off))
		buf = binary.LittleEndian.AppendUint32(buf, m.flen)
	}
	return buf
}

// decodeRunIndex decodes the block index, validating that every block lies
// wholly inside [0, dataEnd) and that first keys ascend — a corrupt index
// must be caught at open, not surface as silently wrong binary searches.
func decodeRunIndex(buf []byte, dataEnd int64) ([]runBlockMeta, error) {
	d := &decoder{buf: buf}
	n := d.u32()
	if d.err == nil && int64(n)*16 > int64(len(buf)) {
		return nil, fmt.Errorf("run index claims %d blocks in %d bytes", n, len(buf))
	}
	index := make([]runBlockMeta, 0, n)
	var prevEnd int64
	for i := uint32(0); i < n && d.err == nil; i++ {
		m := runBlockMeta{firstKey: d.str()}
		m.off = int64(d.u64())
		m.flen = d.u32()
		if d.err != nil {
			break
		}
		if m.off != prevEnd || m.flen <= framing.HeaderLen || m.off+int64(m.flen) > dataEnd {
			return nil, fmt.Errorf("run index block %d spans [%d,+%d) outside the data region", i, m.off, m.flen)
		}
		if len(index) > 0 && m.firstKey <= index[len(index)-1].firstKey {
			return nil, fmt.Errorf("run index block %d first key is not ascending", i)
		}
		prevEnd = m.off + int64(m.flen)
		index = append(index, m)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != d.off {
		return nil, fmt.Errorf("run index has %d trailing bytes", len(d.buf)-d.off)
	}
	if prevEnd != dataEnd {
		return nil, fmt.Errorf("run index covers %d of %d data bytes", prevEnd, dataEnd)
	}
	return index, nil
}

func encodeRunFooter(entryCount uint64, indexOff int64, indexLen uint32, filterOff int64, filterLen uint32) []byte {
	buf := make([]byte, runFooterLen)
	binary.LittleEndian.PutUint32(buf[0:4], runMagic)
	buf[4] = runFormatVersion
	binary.LittleEndian.PutUint64(buf[8:16], entryCount)
	binary.LittleEndian.PutUint64(buf[16:24], uint64(indexOff))
	binary.LittleEndian.PutUint32(buf[24:28], indexLen)
	binary.LittleEndian.PutUint64(buf[28:36], uint64(filterOff))
	binary.LittleEndian.PutUint32(buf[36:40], filterLen)
	binary.LittleEndian.PutUint32(buf[40:44], framing.Checksum(buf[:40]))
	return buf
}

// writeRun installs entries (sorted by internal key) as one run file with
// framing.ReplaceFile, so the run either exists completely or not at all.
// blockBytes bounds each data block's payload size.
func writeRun(path string, entries []runEntry, blockBytes int) error {
	err := framing.ReplaceFile(path, func(f io.Writer) error {
		w := bufio.NewWriterSize(f, 1<<16)
		if err := encodeRun(w, entries, blockBytes); err != nil {
			return err
		}
		return w.Flush()
	})
	if err != nil {
		return fmt.Errorf("statedb: writing run: %w", err)
	}
	return nil
}

// encodeRun streams one run file's bytes to w.
func encodeRun(w io.Writer, entries []runEntry, blockBytes int) error {
	hashes := make([]uint64, len(entries))
	for i, e := range entries {
		hashes[i] = bloomKeyHash(e.ikey)
	}

	var off int64
	// writeFrame frames payload and writes it, returning the framed length.
	writeFrame := func(payload []byte) (uint32, error) {
		frame, err := framing.Append(nil, payload, maxRecordBytes)
		if err != nil {
			return 0, err
		}
		_, err = w.Write(frame)
		off += int64(len(frame))
		return uint32(len(frame)), err
	}

	var index []runBlockMeta
	for start := 0; start < len(entries); {
		end, size := start, 0
		for end < len(entries) && (end == start || size < blockBytes) {
			size += runEntrySize(entries[end])
			end++
		}
		blockOff := off
		flen, err := writeFrame(encodeRunBlock(entries[start:end]))
		if err != nil {
			return fmt.Errorf("run block: %w", err)
		}
		index = append(index, runBlockMeta{firstKey: entries[start].ikey, off: blockOff, flen: flen})
		start = end
	}

	filterOff := off
	filterLen, err := writeFrame(encodeBloom(buildBloom(hashes)))
	if err != nil {
		return fmt.Errorf("run filter: %w", err)
	}
	indexOff := off
	indexLen, err := writeFrame(encodeRunIndex(index))
	if err != nil {
		return fmt.Errorf("run index: %w", err)
	}
	if _, err := w.Write(encodeRunFooter(uint64(len(entries)), indexOff, indexLen, filterOff, filterLen)); err != nil {
		return fmt.Errorf("run footer: %w", err)
	}
	return nil
}

// runReader serves reads from one immutable run file. Only the footer, the
// block index and the bloom filter are resident; data blocks are fetched
// with ReadAt (and usually served from the LSM's block cache), so open
// cost and memory are independent of the entry count.
type runReader struct {
	seq        uint64
	f          *os.File
	entryCount uint64
	index      []runBlockMeta
	filter     bloomFilter
}

// openRun opens a run file and loads its footer, index and filter. Any
// inconsistency is an error: manifest-listed runs were fsynced before the
// manifest referenced them, so a legitimate crash cannot corrupt one.
func openRun(path string, seq uint64) (*runReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("statedb: opening run: %w", err)
	}
	r, err := loadRun(f, seq)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("statedb: corrupt run %s: %w", path, err)
	}
	return r, nil
}

func loadRun(f *os.File, seq uint64) (*runReader, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < runFooterLen {
		return nil, fmt.Errorf("file of %d bytes is smaller than the footer", size)
	}
	footer := make([]byte, runFooterLen)
	if _, err := f.ReadAt(footer, size-runFooterLen); err != nil {
		return nil, fmt.Errorf("reading footer: %w", err)
	}
	if got := framing.Checksum(footer[:40]); got != binary.LittleEndian.Uint32(footer[40:44]) {
		return nil, fmt.Errorf("footer CRC mismatch")
	}
	if magic := binary.LittleEndian.Uint32(footer[0:4]); magic != runMagic {
		return nil, fmt.Errorf("bad magic %#x", magic)
	}
	if footer[4] != runFormatVersion {
		return nil, fmt.Errorf("unsupported run format version %d", footer[4])
	}
	entryCount := binary.LittleEndian.Uint64(footer[8:16])
	indexOff := int64(binary.LittleEndian.Uint64(footer[16:24]))
	indexLen := binary.LittleEndian.Uint32(footer[24:28])
	filterOff := int64(binary.LittleEndian.Uint64(footer[28:36]))
	filterLen := binary.LittleEndian.Uint32(footer[36:40])
	if filterOff < 0 || indexOff != filterOff+int64(filterLen) || indexOff+int64(indexLen)+runFooterLen != size {
		return nil, fmt.Errorf("footer regions do not tile the file")
	}

	filterPayload, err := framing.ReadAt(f, filterOff, int(filterLen), maxRecordBytes)
	if err != nil {
		return nil, fmt.Errorf("filter: %w", err)
	}
	filter, err := decodeBloom(filterPayload)
	if err != nil {
		return nil, err
	}
	indexPayload, err := framing.ReadAt(f, indexOff, int(indexLen), maxRecordBytes)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	index, err := decodeRunIndex(indexPayload, filterOff)
	if err != nil {
		return nil, err
	}
	return &runReader{seq: seq, f: f, entryCount: entryCount, index: index, filter: filter}, nil
}

func (r *runReader) close() error { return r.f.Close() }

// readBlock fetches and decodes data block i straight from the file
// (callers go through the LSM block cache; this is the miss path).
func (r *runReader) readBlock(i int) ([]runEntry, error) {
	m := r.index[i]
	payload, err := framing.ReadAt(r.f, m.off, int(m.flen), maxRecordBytes)
	if err != nil {
		return nil, fmt.Errorf("statedb: run %d block %d: %w", r.seq, i, err)
	}
	entries, err := decodeRunBlock(payload)
	if err != nil {
		return nil, fmt.Errorf("statedb: run %d block %d: %w", r.seq, i, err)
	}
	return entries, nil
}

// blockFor returns the index of the block that could contain ikey, or -1
// when ikey sorts before the first block.
func (r *runReader) blockFor(ikey string) int {
	return sort.Search(len(r.index), func(j int) bool { return r.index[j].firstKey > ikey }) - 1
}

// get returns the entry stored for ikey, using load to fetch blocks (the
// cache hook). The bool reports whether a record — live or tombstone —
// exists in this run.
func (r *runReader) get(ikey string, load func(*runReader, int) ([]runEntry, error)) (runEntry, bool, error) {
	i := r.blockFor(ikey)
	if i < 0 {
		return runEntry{}, false, nil
	}
	block, err := load(r, i)
	if err != nil {
		return runEntry{}, false, err
	}
	j := sort.Search(len(block), func(k int) bool { return block[k].ikey >= ikey })
	if j < len(block) && block[j].ikey == ikey {
		return block[j], true, nil
	}
	return runEntry{}, false, nil
}
