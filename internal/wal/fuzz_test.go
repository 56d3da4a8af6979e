package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"github.com/backlogfs/backlog/internal/storage"
)

// FuzzDecodeFrame: whatever the bytes, each version's frame decoder either
// reports a torn frame or returns a record of a known op whose frame lies
// inside the input, has a matching checksum, and — for the version this
// binary writes — survives a re-encode. It never panics and never sizes
// anything from an unchecked length.
func FuzzDecodeFrame(f *testing.F) {
	for _, seg := range [][]byte{goldenSegment(f, 1), goldenSegment(f, 2), goldenV2Segment(1), goldenV2Segment(2)} {
		f.Add(seg[segHeaderSize:])
		f.Add(seg[segHeaderSize+3:])
	}
	f.Add(reframe([]byte{byte(OpCheckpoint), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}))
	f.Add(binary.BigEndian.AppendUint32(nil, 1<<31))
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, version := range []byte{1, segVersion} {
			r, n, err := decodeFrame(b, version)
			if err != nil {
				if !errors.Is(err, errTorn) || n != 0 {
					t.Fatalf("v%d: err = %v, n = %d", version, err, n)
				}
				continue
			}
			if n <= frameHeaderSize || n > len(b) || n > frameHeaderSize+maxPayload {
				t.Fatalf("v%d: consumed %d of %d bytes", version, n, len(b))
			}
			if int(binary.BigEndian.Uint32(b)) != n-frameHeaderSize {
				t.Fatalf("v%d: consumed %d bytes, length field says %d", version, n, binary.BigEndian.Uint32(b))
			}
			if crc32.Checksum(b[frameHeaderSize:n], crcTable) != binary.BigEndian.Uint32(b[4:]) {
				t.Fatalf("v%d: decoded %+v from a frame whose checksum fails", version, r)
			}
			if r.Op < OpAddRef || r.Op > OpCut {
				t.Fatalf("v%d: decoded unknown op %d", version, r.Op)
			}
			if version == segVersion {
				if back, _, err := decodeFrame(appendFrame(nil, r), segVersion); err != nil || back != r {
					t.Fatalf("re-encoding %+v decodes to %+v (%v)", r, back, err)
				}
			}
		}
	})
}

// FuzzRecover: whatever two consecutive segment files hold, recovery ends
// in a clean (possibly empty) tail or ErrCorrupt — never a panic, never
// another error — and a log that recovers also opens, seals its tear, and
// recovers to the same records again.
func FuzzRecover(f *testing.F) {
	f.Add(goldenSegment(f, 1), goldenSegment(f, 2))
	f.Add(goldenV2Segment(1), goldenV2Segment(2))
	f.Add(goldenSegment(f, 1), goldenV2Segment(2))
	f.Add(goldenV2Segment(1)[:40], goldenV2Segment(2))
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
