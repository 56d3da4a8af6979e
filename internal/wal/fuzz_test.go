package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/backlogfs/backlog/internal/storage"
)

// FuzzDecodeFrame: whatever the bytes, reading them as the frames of a
// segment, from its first, stays inside the input in both readable versions
// — 6, whose elision state carries from frame to frame, and 5, whose every
// frame starts empty. Each walk ends at the input's end, at a torn frame or
// at a checksummed frame's first undecodable record, never past it; none
// panics, and none sizes anything from a length field
// (TestBatchReaderAllocatesNothing pins that decoding allocates nothing at
// all). Every frame walked is a whole frame of its version, its length in
// the shortest form. What a version decodes survives a re-encode into the
// same frames that is no longer than the bytes it came from, since the
// encoder elides whatever the decoder could have taken from a record's
// predecessors; and the frames version 5 decodes take no more bytes in
// version 6. Under a version-4 or version-3 header the same bytes are
// refused by name, with the binary that replays them: recovery reads no
// frame of a retired version.
func FuzzDecodeFrame(f *testing.F) {
	for _, prefix := range []string{"v3-", "v4-", "v5-", "v6-"} {
		for _, index := range []uint64{1, 2} {
			seg := goldenFile(f, prefix, index)
			f.Add(seg[segHeaderSize:])
			f.Add(seg[segHeaderSize+3:])
		}
	}
	seg := goldenFile(f, "v6-", 1)[segHeaderSize:]
	_, n, _ := splitFrame(seg, segVersion)
	f.Add(seg[n:]) // frames that take what they elide from the mark's frame
	f.Add(reframe([]byte{byte(OpCheckpoint), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}))
	f.Add(reframe([]byte{byte(OpCut) | flagSameCP}))
	f.Add(binary.BigEndian.AppendUint32(nil, 1<<31))
	f.Add(binary.AppendUvarint(nil, 1<<31))
	f.Add(make([]byte, 64))
	f.Add(reframe([]byte{byte(OpRemoveRef) | flagContinues | flagLineZero | flagLengthOne, 1, 1}))
	// Every packed kind, each behind a record of the other form, so that
	// packed and version-4 records alternate, a frame of two each.
	var mixed []byte
	var st batchState
	for kind := range 8 {
		op := OpAddRef + Op(kind&packedRemove)
		cp := uint64(3 + kind/packedSameCP%2)
		mixed = appendFrame(mixed, segVersion, &st,
			Record{Op: op, Block: uint64(kind) << 13, Inode: 9, Offset: uint64(kind) * 4, Line: 2, Length: 1, CP: 4},
			Record{Op: op, Block: uint64(kind) << 30, Inode: 9, Offset: uint64(kind)*4 + 2 - uint64(kind/packedContinues%2), Length: 1, CP: cp})
	}
	f.Add(mixed)
	f.Add(reframe([]byte{flagPacked | packedContinues, 1, 2}))
	f.Add(reframe(append([]byte{flagPacked | 0xf0}, binary.AppendUvarint(nil, 1<<60)...)))
	f.Fuzz(func(t *testing.T, b []byte) {
		var decoded [segVersion + 1][][]Record
		for _, v := range []byte{5, segVersion} {
			frames, end, err := decodeFrames(b, v)
			if err != nil && !errors.Is(err, errTorn) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("v%d: %v", v, err)
			}
			if errors.Is(err, ErrCorrupt) {
				frames = frames[:len(frames)-1] // the whole frames before the one that fails
			}
			if walked := frameBytes(t, b, v, len(frames)); walked != end || (err == nil) != (end == len(b)) {
				t.Fatalf("v%d: %d frames of %d bytes, stopped at %d of %d with %v", v, len(frames), walked, end, len(b), err)
			}
			var n int
			for _, recs := range frames {
				n += len(recs)
				for _, r := range recs {
					if r.Op < OpAddRef || r.Op > OpCut {
						t.Fatalf("v%d decoded unknown op %d", v, r.Op)
					}
				}
			}
			if n > end {
				t.Fatalf("v%d: %d records out of %d bytes", v, n, end)
			}
			decoded[v] = frames
			back := encodeFrames(v, frames)
			if got, _, err := decodeFrames(back, v); err != nil || len(frames) > 0 && !reflect.DeepEqual(got, frames) {
				t.Fatalf("v%d: re-encoding %+v decodes to %+v (%v)", v, frames, got, err)
			}
			if len(back) > end {
				t.Fatalf("v%d: re-encoding %d frames took %d bytes, they came in %d", v, len(frames), len(back), end)
			}
		}
		v5 := frameBytes(t, b, 5, len(decoded[5]))
		if v6 := encodeFrames(segVersion, decoded[5]); len(v6) > v5 {
			t.Fatalf("the %d frames version 5 decoded take %d bytes in version 6, %d in version 5", len(decoded[5]), len(v6), v5)
		}
		for _, retired := range []byte{3, 4} {
			vfs := storage.NewMemFS()
			plantSegment(t, vfs, 1, append(withVersion(encodeSegHeader(1), retired), b...))
			if _, err := Recover(vfs); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("format version %d", retired)) ||
				!strings.Contains(err.Error(), upgraders[retired]) {
				t.Fatalf("the frames under a version-%d header: %v, want the version refused by name", retired, err)
			}
		}
	})
}

// decodeFrames walks b as the frames of a segment of a version from its
// first, as readSegment does but without interpreting marks, and returns
// the records of each frame it reached — the last one those before its
// first undecodable record, when it stopped at one — the offset where it
// stopped, and errTorn or ErrCorrupt if that was not b's end. Each frame it
// passes is checked against its version's layout.
func decodeFrames(b []byte, version byte) ([][]Record, int, error) {
	var frames [][]Record
	last := -1
	off, err := walkFrames(b, version, func(at int, r Record) bool {
		if at != last {
			frames, last = append(frames, nil), at
		}
		frames[len(frames)-1] = append(frames[len(frames)-1], r)
		return false
	})
	if errors.Is(err, errUndecodable) {
		if off != last {
			frames = append(frames, nil)
		}
		return frames, off, ErrCorrupt
	}
	return frames, off, err
}

// encodeFrames encodes frames as a segment of a version writes them, from
// its first.
func encodeFrames(version byte, frames [][]Record) []byte {
	var b []byte
	var st batchState
	for _, recs := range frames {
		b = appendFrame(b, version, &st, recs...)
	}
	return b
}

// frameBytes is how many bytes the first n frames of b, a segment of a
// version from its first, take, each checked to be a frame of its version
// with its length in its shortest form.
func frameBytes(t *testing.T, b []byte, version byte, n int) int {
	t.Helper()
	off := 0
	for range n {
		body, k, err := splitFrame(b[off:], version)
		if err != nil || k != frameHeaderLen(version, len(body))+len(body) {
			t.Fatalf("v%d frame at %d: %d bytes, %d of body (%v)", version, off, k, len(body), err)
		}
		off += k
	}
	return off
}

// FuzzRecover: whatever two consecutive segment files hold, recovery ends
// in a clean (possibly empty) tail, ErrCorrupt, or, for a segment whose
// header names a version above this binary's, storage.ErrNewerFormat —
// never a panic, never another error — and a log that recovers also opens,
// seals its tear, and recovers to the same records again.
func FuzzRecover(f *testing.F) {
	// testdata/fuzz/FuzzRecover holds whole tails: the version-2 golden pair,
	// its version-3 rewrite, one of each (all refused now), and two
	// regression inputs, one a header of a newer version. The seeds here add
	// version 4 with its continuations (refused now too), version 5 with its
	// packed block updates and version 6 with its state carried from frame
	// to frame: the golden pairs, an older tail continued by a torn newer
	// segment, a version-6 segment opening with the frames that take their
	// state from the mark's, and the bytes of each readable version under
	// the other's header.
	f.Add(goldenFile(f, "v3-", 1)[:40], goldenFile(f, "v3-", 2))
	f.Add(goldenFile(f, "v2-", 2)[:7], []byte{})
	f.Add(goldenFile(f, "v4-", 1), goldenFile(f, "v4-", 2))
	f.Add(goldenFile(f, "v3-", 1), goldenFile(f, "v4-", 1)[:60])
	f.Add(goldenFile(f, "v5-", 1), goldenFile(f, "v5-", 2))
	f.Add(goldenFile(f, "v4-", 1), goldenFile(f, "v5-", 1)[:70])
	f.Add(goldenFile(f, "v6-", 1), goldenFile(f, "v6-", 2))
	f.Add(goldenFile(f, "v5-", 1), goldenFile(f, "v6-", 1)[:70])
	f.Add(goldenFile(f, "v6-", 1)[:80], goldenFile(f, "v6-", 2)[:90])
	v6 := goldenFile(f, "v6-", 1)
	_, mark, _ := splitFrame(v6[segHeaderSize:], segVersion)
	f.Add(append(v6[:segHeaderSize:segHeaderSize], v6[segHeaderSize+mark:]...), goldenFile(f, "v6-", 2))
	f.Add(withVersion(goldenFile(f, "v6-", 1), 5), withVersion(goldenFile(f, "v5-", 2), 6))
	f.Fuzz(func(t *testing.T, seg1, seg2 []byte) {
		vfs := storage.NewMemFS()
		plantSegment(t, vfs, 1, seg1)
		plantSegment(t, vfs, 2, seg2)
		rec, err := Recover(vfs)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, storage.ErrNewerFormat) {
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
