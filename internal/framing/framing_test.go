package framing

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"
)

const testMax = 1 << 10

// frames returns the given payloads as consecutive sealed frames.
func frames(t testing.TB, payloads ...string) []byte {
	t.Helper()
	var out []byte
	for _, p := range payloads {
		var err error
		if out, err = Append(out, []byte(p), testMax); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestOpenLogTornTailMatrix is the one torn-tail matrix for every user of
// the record discipline: whatever damage follows N good frames, OpenLog
// replays exactly those N, truncates the rest and leaves the log ready for
// the next append. (Resuming at an offset > 0 is the block store's index
// path, covered by its stale-index tests.)
func TestOpenLogTornTailMatrix(t *testing.T) {
	good := []string{"alpha", "", "gamma-gamma"}
	intact := frames(t, good...)
	last := frames(t, "tail-frame")
	oversized := binary.LittleEndian.AppendUint32(nil, testMax+1)
	oversized = append(oversized, 0, 0, 0, 0)

	cases := []struct {
		name string
		tail []byte
	}{
		{"clean-eof", nil},
		{"cut-inside-header", last[:HeaderLen-3]},
		{"cut-after-header", last[:HeaderLen]},
		{"cut-inside-payload", last[:len(last)-2]},
		{"flipped-payload-byte", func() []byte {
			b := bytes.Clone(last)
			b[HeaderLen+1] ^= 0x01
			return b
		}()},
		{"flipped-checksum-byte", func() []byte {
			b := bytes.Clone(last)
			b[5] ^= 0x80
			return b
		}()},
		{"over-cap-length", oversized},
		{"trailing-garbage", bytes.Repeat([]byte{0xab}, 37)},
		{"good-frame-after-damage", append(last[:len(last)-1:len(last)-1], frames(t, "unreachable")...)},
		{"payload-the-owner-rejects", frames(t, "reject-me", "unreachable")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			if err := os.WriteFile(path, append(bytes.Clone(intact), tc.tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			var got []string
			f, size, err := OpenLog(path, 0, testMax, func(p []byte) error {
				if string(p) == "reject-me" {
					return errors.New("not a record I wrote")
				}
				got = append(got, string(p))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(good) {
				t.Fatalf("replayed %q, want %q", got, good)
			}
			if size != int64(len(intact)) {
				t.Fatalf("size = %d, want the %d intact bytes", size, len(intact))
			}
			// The torn tail is gone and the handle appends right after the
			// last intact frame.
			defer f.Close()
			info, err := f.Stat()
			if err != nil {
				t.Fatal(err)
			}
			if pos, _ := f.Seek(0, io.SeekCurrent); pos != size || info.Size() != size {
				t.Fatalf("handle at %d, file %d bytes; want both %d", pos, info.Size(), size)
			}
		})
	}
}

// TestIOErrorIsNotATornTail: only running out of bytes, an over-cap length
// or a checksum mismatch mean "torn" (the verdict OpenLog answers with
// Truncate). A read that fails any other way — here EIO mid-frame and at a
// frame boundary — must abort the scan, or one transient error on open
// would silently discard every later intact frame.
func TestIOErrorIsNotATornTail(t *testing.T) {
	eio := errors.New("input/output error")
	data := frames(t, "one", "two", "three")
	first := len(frames(t, "one"))
	for _, cut := range []int{first, first + 3, first + HeaderLen + 1} {
		r := io.MultiReader(bytes.NewReader(data[:cut]), iotest.ErrReader(eio))
		end, err := scan(r, testMax, func([]byte) error { return nil })
		if !errors.Is(err, eio) || errors.Is(err, errTorn) {
			t.Fatalf("cut %d: scan error = %v, want the I/O error and not a torn-frame verdict", cut, err)
		}
		if end != int64(first) {
			t.Fatalf("cut %d: scan stopped at %d, want %d", cut, end, first)
		}
	}
	// The same cuts ending in a plain EOF are torn tails (or, at the frame
	// boundary, a clean end).
	for _, cut := range []int{first + 3, first + HeaderLen + 1} {
		if _, err := scan(bytes.NewReader(data[:cut]), testMax, func([]byte) error { return nil }); !errors.Is(err, errTorn) {
			t.Fatalf("cut %d: scan error = %v, want a torn-frame verdict", cut, err)
		}
	}
	if _, err := scan(bytes.NewReader(data[:first]), testMax, func([]byte) error { return nil }); err != nil {
		t.Fatalf("clean end: %v", err)
	}
}

// TestReplaceFile: the new contents land under the final name, a failed
// write leaves the previous file intact, and no temp file is left on
// either outcome.
func TestReplaceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "MANIFEST")
	boom := errors.New("boom")
	for _, step := range []struct {
		write, want string
		fail        error
	}{{"first", "first", nil}, {"second", "second", nil}, {"half-writ", "second", boom}} {
		err := ReplaceFile(path, func(w io.Writer) error {
			io.WriteString(w, step.write)
			return step.fail
		})
		if !errors.Is(err, step.fail) {
			t.Fatalf("ReplaceFile(%q) = %v, want %v", step.write, err, step.fail)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != step.want {
			t.Fatalf("after writing %q the file holds %q (%v), want %q", step.write, got, err, step.want)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 1 {
			t.Fatalf("directory holds %d entries, want only MANIFEST", len(entries))
		}
	}
}

// FuzzFrame holds the whole discipline to its contract on arbitrary bytes:
// never panic, never produce a payload beyond the cap, scan always stops on
// a frame boundary, and seal∘read round-trips (the accepted prefix is
// exactly the accepted payloads, re-sealed).
func FuzzFrame(f *testing.F) {
	valid := frames(f, "payload", "")
	f.Add(valid)
	f.Add(valid[:3])
	f.Add(valid[:HeaderLen])
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint32(nil, testMax+1))
	f.Add(append(bytes.Clone(valid), 0xde, 0xad))
	f.Fuzz(func(t *testing.T, data []byte) {
		var payloads [][]byte
		end, err := scan(bytes.NewReader(data), testMax, func(p []byte) error {
			if len(p) > testMax {
				t.Fatalf("scan produced a %d-byte payload over the %d-byte cap", len(p), testMax)
			}
			payloads = append(payloads, p)
			return nil
		})
		if err != nil && !errors.Is(err, errTorn) {
			t.Fatalf("in-memory scan failed with a non-torn error: %v", err)
		}
		if err == nil && end != int64(len(data)) {
			t.Fatalf("clean scan stopped at %d of %d bytes", end, len(data))
		}
		// The accepted prefix is exactly the accepted payloads, re-sealed.
		var resealed []byte
		for _, p := range payloads {
			var aerr error
			if resealed, aerr = Append(resealed, p, testMax); aerr != nil {
				t.Fatal(aerr)
			}
		}
		if !bytes.Equal(resealed, data[:end]) {
			t.Fatalf("scan end %d is not a frame boundary:\n in: %x\nout: %x", end, data[:end], resealed)
		}
	})
}
