package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"testing"

	"fabriccrdt/internal/framing"
)

// validFrameBytes encodes one well-formed frame for seeding.
func validFrameBytes(t frameType, stream, seq uint64, body []byte) []byte {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frame{Type: t, Stream: stream, Seq: seq, Body: body}); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzReadFrame holds the decoder to its contract on arbitrary input:
// error, never panic, never allocate beyond the declared (capped) length.
// The seeds below are the rejections wire itself owns — a version mismatch
// and a payload shorter than the header; the committed corpus
// (testdata/fuzz/FuzzReadFrame) adds every framing-level one (truncation at
// each boundary, checksum mismatch, over-cap length), which
// internal/framing's FuzzFrame explores in depth.
func FuzzReadFrame(f *testing.F) {
	valid := validFrameBytes(ftMsg, 3, 7, []byte(`{"header":{"number":4}}`))
	f.Add(valid)
	f.Add(validFrameBytes(ftHello, 0, 0, nil)) // empty body

	badVersion := append([]byte(nil), valid...)
	badVersion[framing.HeaderLen] = 0x7F
	short := append([]byte(nil), valid[:framing.HeaderLen+headerLen-1]...)
	for _, seed := range [][]byte{badVersion, short} {
		if err := framing.Seal(seed, MaxFrameBytes); err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever decoded must re-encode to the identical wire bytes — the
		// codec is bijective on valid frames.
		var buf bytes.Buffer
		if werr := writeFrame(&buf, got); werr != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", werr)
		}
		consumed := framing.HeaderLen + headerLen + len(got.Body)
		if !bytes.Equal(buf.Bytes(), data[:consumed]) {
			t.Fatalf("decode/encode round trip diverged:\n in: %x\nout: %x", data[:consumed], buf.Bytes())
		}
	})
}

// TestReadFrameRejections pins the rejections wire itself owns — an intact
// frame whose payload is not a wire message — on every plain `go test`.
// Truncation, checksum and length-cap damage is internal/framing's matrix.
func TestReadFrameRejections(t *testing.T) {
	valid := validFrameBytes(ftMsg, 1, 1, []byte(`{}`))

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"BadVersion", func(b []byte) []byte { b[framing.HeaderLen] = 99; return b }},
		{"PayloadBelowHeaderSize", func(b []byte) []byte { return b[:framing.HeaderLen+headerLen-1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), valid...))
			if err := framing.Seal(data, MaxFrameBytes); err != nil {
				t.Fatal(err)
			}
			if _, err := readFrame(bytes.NewReader(data)); err == nil {
				t.Fatal("corrupt frame decoded")
			}
		})
	}

	// Clean EOF at a frame boundary is NOT an error wrapped as corruption —
	// it's how a closed connection reads.
	if _, err := readFrame(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Fatalf("empty reader: got %v, want io.EOF", err)
	}
}

// TestGoldenBytes pins the protocol bytes: the fixture is what the
// pre-framing encoder (PR 12, wire.Version 1) put on the socket for this
// frame. It must decode, and re-encode to the same bytes.
func TestGoldenBytes(t *testing.T) {
	const golden = "2100000069fcda760106080706050403020109000000000000007b22676f6c64656e223a747275657d"
	want := frame{Type: ftMsg, Stream: 0x0102030405060708, Seq: 9, Body: []byte(`{"golden":true}`)}
	raw, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != want.Type || got.Stream != want.Stream || got.Seq != want.Seq || !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("golden frame decoded to %+v, want %+v", got, want)
	}
	if enc := hex.EncodeToString(validFrameBytes(want.Type, want.Stream, want.Seq, want.Body)); enc != golden {
		t.Fatalf("frame encodes to %s, want the golden %s", enc, golden)
	}
}
