// Package framing is the one record discipline every durable file and the
// wire protocol share (docs/PERSISTENCE.md, "Record format and recovery"):
//
//	[4B little-endian payload length][4B CRC-32C (Castagnoli) of payload][payload]
//
// It owns the frame layout, the length cap, the rule for what counts as a
// damaged frame and what happens to one, and the atomic file replacement.
// The block store, the statedb disk and LSM backends and the wire transport
// keep only their payload codecs.
//
// Damage versus failure: a frame that is cut short, declares a length over
// the caller's cap, fails its checksum or is rejected by the caller's
// payload decoder is torn — the tail a crash mid-append leaves behind —
// and OpenLog truncates the log back to the last intact frame. Any other
// read error (EIO, a closed handle) says nothing about the bytes on disk:
// OpenLog aborts with the file untouched.
package framing

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// HeaderLen is the length prefix plus checksum preceding every payload.
const HeaderLen = 8

// ReplaceFileSyncs is how many fsyncs one successful ReplaceFile issues
// (the temp file, then the parent directory), for callers' I/O accounting.
const ReplaceFileSyncs = 2

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C every frame carries over its payload.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// errTorn marks a damaged frame, as opposed to a failed read.
var errTorn = errors.New("torn or corrupt frame")

// Seal fills in the header of frame in place: the caller allocates
// HeaderLen + payload bytes, writes the payload at frame[HeaderLen:] and
// seals — one buffer, no copy. A payload over max is refused: every
// reader would reject its frame.
func Seal(frame []byte, max int) error {
	n := len(frame) - HeaderLen
	if n < 0 {
		return fmt.Errorf("framing: %d-byte buffer has no room for the frame header", len(frame))
	}
	if n > max {
		return errTooLarge(n, max)
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(n))
	binary.LittleEndian.PutUint32(frame[4:8], Checksum(frame[HeaderLen:]))
	return nil
}

func errTooLarge(n, max int) error {
	return fmt.Errorf("framing: record of %d bytes exceeds the %d-byte record limit", n, max)
}

// Append appends payload to dst as one sealed frame, growing dst at most
// once.
func Append(dst, payload []byte, max int) ([]byte, error) {
	if len(payload) > max {
		return dst, errTooLarge(len(payload), max)
	}
	start := len(dst)
	dst = append(slices.Grow(dst, HeaderLen+len(payload))[:start+HeaderLen], payload...)
	return dst, Seal(dst[start:], max)
}

// Verify checks that frame is exactly one intact frame and returns its
// payload, which aliases frame.
func Verify(frame []byte) ([]byte, error) {
	if len(frame) < HeaderLen {
		return nil, fmt.Errorf("%w: %d bytes are shorter than a frame header", errTorn, len(frame))
	}
	payload := frame[HeaderLen:]
	if n := binary.LittleEndian.Uint32(frame[0:4]); int64(n) != int64(len(payload)) {
		return nil, fmt.Errorf("%w: header declares %d payload bytes, frame holds %d", errTorn, n, len(payload))
	}
	if got, want := Checksum(payload), binary.LittleEndian.Uint32(frame[4:8]); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch: computed %08x, recorded %08x", errTorn, got, want)
	}
	return payload, nil
}

// Read reads and verifies the next frame from r. The declared length is
// checked against max before anything is allocated, so a corrupt or hostile
// prefix cannot balloon memory. io.EOF at a frame boundary is returned
// bare (clean end of stream); a stream ending inside a frame wraps
// io.ErrUnexpectedEOF.
func Read(r io.Reader, max int) ([]byte, error) {
	var header [HeaderLen]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, readErr("header", err)
	}
	n := binary.LittleEndian.Uint32(header[0:4])
	if int64(n) > int64(max) {
		return nil, fmt.Errorf("%w: declared length %d exceeds the %d-byte record limit", errTorn, n, max)
	}
	frame := make([]byte, HeaderLen+int(n))
	copy(frame, header[:])
	if _, err := io.ReadFull(r, frame[HeaderLen:]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, readErr("payload", err)
	}
	return Verify(frame)
}

// readErr classifies a failed read of part of a frame: running out of
// bytes is a torn frame, anything else is the medium failing.
func readErr(part string, err error) error {
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: truncated %s: %w", errTorn, part, err)
	}
	return fmt.Errorf("framing: reading frame %s: %w", part, err)
}

// ReadAt reads and verifies the n-byte frame at off — for callers whose
// index already knows where each frame starts and ends, so one read
// fetches it. A payload over max is refused before allocation.
func ReadAt(r io.ReaderAt, off int64, n, max int) ([]byte, error) {
	if n < HeaderLen || n-HeaderLen > max {
		return nil, fmt.Errorf("framing: implausible %d-byte frame at offset %d (record limit %d)", n, off, max)
	}
	buf := make([]byte, n)
	if _, err := r.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("framing: reading frame at offset %d: %w", off, err)
	}
	payload, err := Verify(buf)
	if err != nil {
		return nil, fmt.Errorf("%w at offset %d", err, off)
	}
	return payload, nil
}

// scan reads frames from r, handing each intact payload to fn, and returns
// the offset just past the last frame fn accepted. A nil error is a clean
// end at a frame boundary; an error wrapping errTorn says why the tail
// from that offset on is damaged (fn rejecting a payload counts: the
// checksum held but the record is not one the caller wrote); any other
// error is a failed read.
func scan(r io.Reader, max int, fn func(payload []byte) error) (int64, error) {
	var off int64
	for {
		payload, err := Read(r, max)
		if errors.Is(err, io.EOF) {
			return off, nil
		}
		if err != nil {
			return off, fmt.Errorf("%w at offset %d", err, off)
		}
		if err := fn(payload); err != nil {
			return off, fmt.Errorf("%w: %w at offset %d", errTorn, err, off)
		}
		off += HeaderLen + int64(len(payload))
	}
}

// OpenLog opens (creating if needed) the append-only frame log at path,
// replays every intact frame from offset from on into fn, truncates a torn
// tail back to the last intact frame and leaves the handle positioned for
// appending. It returns the handle and the log's size. A read failure that
// is not a torn frame aborts the open and leaves the file as it was.
func OpenLog(path string, from int64, max int, fn func(payload []byte) error) (*os.File, int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, err
	}
	size, err := recoverLog(f, from, max, fn)
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, size, nil
}

func recoverLog(f *os.File, from int64, max int, fn func(payload []byte) error) (int64, error) {
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return 0, err
	}
	// A buffered reader suits logs of many small frames; the absolute Seek
	// below re-positions the raw handle, so the buffer never goes stale.
	n, err := scan(bufio.NewReader(f), max, fn)
	end := from + n
	switch {
	case err == nil:
	case errors.Is(err, errTorn):
		if terr := f.Truncate(end); terr != nil {
			return 0, fmt.Errorf("truncating torn tail at offset %d: %w", end, terr)
		}
	default:
		return 0, err
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		return 0, err
	}
	return end, nil
}

// ReplaceFile atomically replaces the file at path with what write
// produces: temp file, fsync, rename over path, fsync of the parent
// directory — so after it returns the new contents survive a power loss,
// and a crash at any earlier point leaves the previous file intact. The
// temp file is path + ".tmp".
func ReplaceFile(path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir makes a rename inside dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
