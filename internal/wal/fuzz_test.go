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
// input. It either reports a torn frame or walks a checksummed batch to its
// end or to its first undecodable record, never past it, in either readable
// version; neither panics, and neither sizes anything from a length field
// (TestBatchReaderAllocatesNothing pins that decoding allocates nothing at
// all). What version 3 decodes, version 4 decodes to the same records, since
// version 4 only adds a flag. What version 4 decodes survives a re-encode
// that is no longer than the frame it came from: the encoder elides whatever
// the decoder could have taken from a record's predecessors.
func FuzzDecodeFrame(f *testing.F) {
	for _, seg := range [][]byte{goldenFile(f, "v3-", 1), goldenFile(f, "v3-", 2), goldenFile(f, "v4-", 1), goldenFile(f, "v4-", 2)} {
		f.Add(seg[segHeaderSize:])
		f.Add(seg[segHeaderSize+3:])
	}
	f.Add(reframe([]byte{byte(OpCheckpoint), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}))
	f.Add(reframe([]byte{byte(OpCut) | flagSameCP}))
	f.Add(binary.BigEndian.AppendUint32(nil, 1<<31))
	f.Add(reframe([]byte{byte(OpRemoveRef) | flagContinues | flagLineZero | flagLengthOne, 1, 1}))
	f.Fuzz(func(t *testing.T, b []byte) {
		body, n, err := splitFrame(b)
		if err != nil {
			if !errors.Is(err, errTorn) || n != 0 || body != nil {
				t.Fatalf("err = %v, n = %d, %d body bytes", err, n, len(body))
			}
			return
		}
		if n <= frameHeaderSize || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if int(binary.BigEndian.Uint32(b)) != n-frameHeaderSize {
			t.Fatalf("consumed %d bytes, length field says %d", n, binary.BigEndian.Uint32(b))
		}
		if crc32.Checksum(b[frameHeaderSize:n], crcTable) != binary.BigEndian.Uint32(b[4:]) {
			t.Fatalf("decoded a frame whose checksum fails")
		}
		recs, err := decodeBatches(b[:n], segVersion)
		old, oldErr := decodeBatches(b[:n], segVersion-1)
		for _, rs := range [][]Record{recs, old} {
			if len(rs) > len(body) {
				t.Fatalf("%d records out of %d bytes", len(rs), len(body))
			}
			for _, r := range rs {
				if r.Op < OpAddRef || r.Op > OpCut {
					t.Fatalf("decoded unknown op %d", r.Op)
				}
			}
		}
		for _, e := range []error{err, oldErr} {
			if e != nil && !errors.Is(e, ErrCorrupt) {
				t.Fatalf("checksummed batch failed with %v", e)
			}
		}
		if oldErr == nil && (err != nil || !slices.Equal(old, recs)) {
			t.Fatalf("v3 decoded %+v, v4 %+v (%v)", old, recs, err)
		}
		if err != nil {
			return
		}
		back := appendBatch(nil, recs...)
		if got, err := decodeBatches(back, segVersion); err != nil || !slices.Equal(got, recs) {
			t.Fatalf("re-encoding %+v decodes to %+v (%v)", recs, got, err)
		}
		if len(back) > n {
			t.Fatalf("re-encoding %d records took %d bytes, the frame %d", len(recs), len(back), n)
		}
	})
}

// FuzzRecover: whatever two consecutive segment files hold, recovery ends
// in a clean (possibly empty) tail or ErrCorrupt — never a panic, never
// another error — and a log that recovers also opens, seals its tear, and
// recovers to the same records again.
func FuzzRecover(f *testing.F) {
	// testdata/fuzz/FuzzRecover holds whole tails: the version-2 golden pair
	// (refused now), its version-3 rewrite, one of each, and a regression
	// input. The seeds here add version 4 with its continuations: the golden
	// pair, and a version-3 tail continued by a torn version-4 segment.
	f.Add(goldenFile(f, "v3-", 1)[:40], goldenFile(f, "v3-", 2))
	f.Add(goldenFile(f, "v2-", 2)[:7], []byte{})
	f.Add(goldenFile(f, "v4-", 1), goldenFile(f, "v4-", 2))
	f.Add(goldenFile(f, "v3-", 1), goldenFile(f, "v4-", 1)[:60])
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
