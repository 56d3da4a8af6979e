package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"slices"
	"testing"

	"github.com/backlogfs/backlog/internal/storage"
)

// FuzzDecodeFrame: whatever the bytes, reading a frame stays inside the
// input. Read as version 2 — exactly one record, no flag bits — it either
// reports a torn frame or returns one record of a known op from a frame
// with a matching checksum. Read as version 3 it either reports a torn
// frame or walks a checksummed batch to its end or to its first
// undecodable record, never past it; and what it decodes survives a
// re-encode. Neither panics, and neither sizes anything from a length field
// (TestBatchReaderAllocatesNothing pins that they allocate nothing at all).
func FuzzDecodeFrame(f *testing.F) {
	for _, seg := range [][]byte{goldenSegment(f, 1), goldenSegment(f, 2), goldenV3Segment(1), goldenV3Segment(2)} {
		f.Add(seg[segHeaderSize:])
		f.Add(seg[segHeaderSize+3:])
	}
	f.Add(reframe([]byte{byte(OpCheckpoint), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}))
	f.Add(reframe([]byte{byte(OpCut) | flagSameCP}))
	f.Add(binary.BigEndian.AppendUint32(nil, 1<<31))
	f.Fuzz(func(t *testing.T, b []byte) {
		checkFrame := func(n int) {
			if n <= frameHeaderSize || n > len(b) {
				t.Fatalf("consumed %d of %d bytes", n, len(b))
			}
			if int(binary.BigEndian.Uint32(b)) != n-frameHeaderSize {
				t.Fatalf("consumed %d bytes, length field says %d", n, binary.BigEndian.Uint32(b))
			}
			if crc32.Checksum(b[frameHeaderSize:n], crcTable) != binary.BigEndian.Uint32(b[4:]) {
				t.Fatalf("decoded a frame whose checksum fails")
			}
		}
		knownOp := func(r Record) {
			if r.Op < OpAddRef || r.Op > OpCut {
				t.Fatalf("decoded unknown op %d", r.Op)
			}
		}

		r, n, err := decodeLone(b)
		if err != nil {
			if !errors.Is(err, errTorn) || n != 0 {
				t.Fatalf("v2: err = %v, n = %d", err, n)
			}
		} else {
			checkFrame(n)
			knownOp(r)
			// A version-2 record reads the same as a one-record batch.
			if back, err := decodeBatches(b[:n]); err != nil || len(back) != 1 || back[0] != r {
				t.Fatalf("v2 decoded %+v, the v3 decoder %+v (%v)", r, back, err)
			}
		}

		body, n, err := splitFrame(b)
		if err != nil {
			if !errors.Is(err, errTorn) || n != 0 || body != nil {
				t.Fatalf("v3: err = %v, n = %d, %d body bytes", err, n, len(body))
			}
			return
		}
		checkFrame(n)
		recs, err := decodeBatches(b[:n])
		if len(recs) > len(body) {
			t.Fatalf("v3: %d records out of %d bytes", len(recs), len(body))
		}
		for _, r := range recs {
			knownOp(r)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("v3: checksummed batch failed with %v", err)
			}
			return
		}
		if back, err := decodeBatches(appendBatch(nil, recs...)); err != nil || !slices.Equal(back, recs) {
			t.Fatalf("re-encoding %+v decodes to %+v (%v)", recs, back, err)
		}
	})
}

// FuzzRecover: whatever two consecutive segment files hold, recovery ends
// in a clean (possibly empty) tail or ErrCorrupt — never a panic, never
// another error — and a log that recovers also opens, seals its tear, and
// recovers to the same records again.
func FuzzRecover(f *testing.F) {
	// testdata/fuzz/FuzzRecover holds the whole tails: the version-2 golden
	// pair, its version-3 rewrite, one of each, and a regression input.
	f.Add(goldenV3Segment(1)[:40], goldenV3Segment(2))
	f.Add(goldenSegment(f, 2)[:7], []byte{})
	f.Fuzz(func(t *testing.T, seg1, seg2 []byte) {
		vfs := storage.NewMemFS()
		plantSegment(t, vfs, 1, seg1)
		plantSegment(t, vfs, 2, seg2)
		rec, err := Recover(vfs)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("recovery failed with an untyped error: %v", err)
			}
			return
		}
		l, rec2, err := Open(vfs, Options{Durability: Buffered})
		if err != nil {
			t.Fatalf("recoverable log does not open: %v", err)
		}
		if err := l.Append(addRec(1)); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		rec3, err := Recover(vfs)
		if err != nil {
			t.Fatalf("recovery after a sealed reopen: %v", err)
		}
		want := append(append([]Record(nil), rec.Records...), addRec(1))
		if !reflect.DeepEqual(rec2.Records, rec.Records) || !reflect.DeepEqual(rec3.Records, want) {
			t.Fatalf("records changed across reopen: %d, then %d, then %d", len(rec.Records), len(rec2.Records), len(rec3.Records))
		}
	})
}
