package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/backlogfs/backlog/internal/storage"
)

// The golden files under testdata/ are never regenerated. Each was written
// by the encoder of its version:
//
//	v2-wal-…01.seg  Checkpoint mark CP=1, goldenRecords()[:5], a frame each
//	v2-wal-…02.seg  Cut mark CP=3, goldenRecords()[5:], then 20 bytes of a
//	                torn AddRef frame. This binary refuses version 2.
//	v3-wal-…01.seg  Checkpoint mark CP=1 in a batch of its own, then
//	                goldenRecords()[:5] in one batch
//	v3-wal-…02.seg  Cut mark CP=3, then goldenRecords()[5:] in one batch.
//	                This binary refuses version 3 too.
//	v4-wal-…01.seg  Cut mark CP=4, then goldenV4Records()[:13] in one batch
//	v4-wal-…02.seg  goldenV4Records()[13:] in one batch. This binary
//	                refuses version 4 too.
//	v5-wal-…01.seg  Cut mark CP=7, then goldenV5Records()[:14] in one batch
//	v5-wal-…02.seg  goldenV5Records()[14:] in one batch
//	v6-wal-…01.seg  Cut mark CP=7, then goldenV6Records()[:14] in frames
//	                of 2, 1, 5 and 6 records, the state carried across them
//	v6-wal-…02.seg  goldenV6Records()[14:] in frames of 3 and 32 records,
//	                the second over 127 bytes (goldenV6Frames)
func goldenRecords() []Record {
	return []Record{
		{Op: OpAddRef, Block: 1, Inode: 2, Offset: 3, Line: 0, Length: 1, CP: 2},
		{Op: OpAddRef, Block: 1 << 20, Inode: 300, Offset: 70000, Line: 2, Length: 8, CP: 2},
		{Op: OpRemoveRef, Block: 1, Inode: 2, Offset: 3, Line: 0, Length: 1, CP: 3},
		{Op: OpRelocate, Block: 1 << 20, NewBlock: 1<<40 + 5, CP: 3},
		{Op: OpAddRef, Block: math.MaxUint64, Inode: 1 << 63, Offset: 1<<56 - 1, Line: 255, Length: 1 << 32, CP: 3},
		{Op: OpAddRef, Block: 77, Inode: 9, Offset: 0, Line: 0, Length: 1, CP: 4},
		{Op: OpRemoveRef, Block: 1<<40 + 5, Inode: 300, Offset: 70000, Line: 2, Length: 8, CP: 4},
		{Op: OpAddRef, Block: 78, Inode: 9, Offset: 4096, Line: 1, Length: 2, CP: 4},
	}
}

// goldenV4Records is the history the version-4 golden files hold: files
// written front to back, whose updates continue their op's previous one.
func goldenV4Records() []Record {
	return []Record{
		{Op: OpAddRef, Block: 100, Inode: 7, Offset: 0, Length: 1, CP: 5},
		{Op: OpAddRef, Block: 101, Inode: 7, Offset: 1, Length: 1, CP: 5},            // continues
		{Op: OpRemoveRef, Block: 50, Inode: 7, Offset: 0, Length: 1, CP: 5},          // the batch's first RemoveRef
		{Op: OpAddRef, Block: 102, Inode: 7, Offset: 2, Line: 3, Length: 1, CP: 5},   // continues, Line ≠ 0
		{Op: OpRemoveRef, Block: 51, Inode: 7, Offset: 1, Line: 1, Length: 2, CP: 5}, // continues, Length ≠ 1
		{Op: OpRelocate, Block: 102, NewBlock: 900, CP: 5},
		{Op: OpCut, CP: 5},
		{Op: OpAddRef, Block: 103, Inode: 7, Offset: 3, Length: 4, CP: 6},                  // continues past the relocate and the mark
		{Op: OpRemoveRef, Block: 52, Inode: 8, Offset: 9, Length: 1, CP: 6},                // another file
		{Op: OpAddRef, Block: 107, Inode: 7, Offset: 7, Length: 1, CP: 6},                  // continues past it
		{Op: OpRemoveRef, Block: 53, Inode: 8, Offset: 10, Length: 1, CP: 6},               // continues
		{Op: OpAddRef, Block: 200, Inode: 9, Offset: math.MaxUint64 - 1, Length: 3, CP: 6}, // ends past 2^64
		{Op: OpAddRef, Block: 201, Inode: 9, Offset: 1, Length: 1, CP: 6},                  // continues at the wrapped offset
		{Op: OpAddRef, Block: 202, Inode: 9, Offset: 2, Length: 1, CP: 6},                  // the next batch's first AddRef
		{Op: OpAddRef, Block: 203, Inode: 9, Offset: 3, Length: 1, CP: 6},                  // continues
		{Op: OpRemoveRef, Block: 54, Inode: 8, Offset: 11, Length: 1, CP: 7},               // the next batch's first RemoveRef
	}
}

// goldenV4Continues lists the goldenV4Records the encoder flags as
// continuing their op's previous record in the batch.
var goldenV4Continues = []int{1, 3, 4, 7, 9, 10, 12, 14}

// goldenV5Records is the history the version-5 golden files hold: every
// packed kind — AddRef and RemoveRef, continuing or not, with the CP of the
// record before or not — over blocks from 0 to 2^64-1, beside updates whose
// Line or Length keeps them in the version-4 form.
func goldenV5Records() []Record {
	return []Record{
		{Op: OpAddRef, Block: 3<<16 + 5, Inode: 12, Offset: 0, Length: 1, CP: 8},         // packed: spelled, new CP
		{Op: OpAddRef, Block: 1<<18 - 1, Inode: 12, Offset: 1, Length: 1, CP: 8},         // packed: continues, same CP
		{Op: OpRemoveRef, Block: 15, Inode: 3, Offset: 40, Length: 1, CP: 8},             // packed: spelled, same CP
		{Op: OpRemoveRef, Block: 16, Inode: 3, Offset: 41, Length: 1, CP: 9},             // packed: continues, new CP
		{Op: OpAddRef, Block: 1<<40 + 9, Inode: 13, Offset: 0, Length: 1, CP: 9},         // packed: spelled, same CP
		{Op: OpAddRef, Block: 7, Inode: 13, Offset: 1, Length: 1, CP: 10},                // packed: continues, new CP
		{Op: OpRemoveRef, Block: math.MaxUint64, Inode: 4, Offset: 0, Length: 1, CP: 11}, // packed: spelled, new CP
		{Op: OpRemoveRef, Block: 0, Inode: 4, Offset: 1, Length: 1, CP: 11},              // packed: continues, same CP
		{Op: OpAddRef, Block: 300, Inode: 13, Offset: 2, Line: 1, Length: 1, CP: 11},     // Line ≠ 0: version-4 form, continues
		{Op: OpAddRef, Block: 301, Inode: 13, Offset: 3, Length: 8, CP: 11},              // Length ≠ 1: version-4 form, continues
		{Op: OpAddRef, Block: 302, Inode: 13, Offset: 11, Length: 1, CP: 11},             // packed, continues past them
		{Op: OpRelocate, Block: 302, NewBlock: 1 << 20, CP: 11},
		{Op: OpCut, CP: 11},
		{Op: OpAddRef, Block: 303, Inode: 13, Offset: 12, Length: 1, CP: 12},    // packed, continues past the relocate and the mark
		{Op: OpRemoveRef, Block: 5, Inode: 4, Offset: 2, Length: 1, CP: 12},     // the next batch's first RemoveRef
		{Op: OpAddRef, Block: 1 << 18, Inode: 14, Offset: 0, Length: 0, CP: 12}, // Length 0: version-4 form
		{Op: OpAddRef, Block: 17, Inode: 14, Offset: 0, Length: 1, CP: 12},      // packed, continues the Length-0 update at its offset
	}
}

// goldenV6Records is the history the version-6 golden files hold: version
// 5's, then 32 block updates over four files in turn, none of which
// continues, so that their frame's body takes two bytes of length.
func goldenV6Records() []Record {
	recs := goldenV5Records()
	for i := range uint64(32) {
		recs = append(recs, Record{Op: OpAddRef, Block: i * 0x9e3779b1 % (1 << 34), Inode: 20 + i%4, Offset: i / 4, Length: 1, CP: 12})
	}
	return recs
}

// goldenV6Frames is how the version-6 golden files frame
// goldenV6Records(): segment 1 a lone cut mark, then frames of 2, 1, 5 and
// 6 records, segment 2 frames of 3 and 32.
func goldenV6Frames(index uint64) [][]Record {
	recs := goldenV6Records()
	if index == 1 {
		return [][]Record{{{Op: OpCut, CP: 7}}, recs[:2], recs[2:3], recs[3:8], recs[8:14]}
	}
	return [][]Record{recs[14:17], recs[17:]}
}

// goldenV6Segment lays out the version-6 golden history as its segment
// files do: the elision state carried from each frame to the next and
// empty at the segment's start, as a writer's batches leave it.
func goldenV6Segment(index uint64) []byte {
	return append(encodeSegHeader(index), encodeFrames(segVersion, goldenV6Frames(index))...)
}

func goldenFile(t testing.TB, prefix string, index uint64) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", prefix+segmentName(index)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// withVersion returns a copy of seg whose header names another version.
func withVersion(seg []byte, version byte) []byte {
	seg = append([]byte(nil), seg...)
	seg[8] = version
	return seg
}

// goldenSegment lays out a golden history as its segment files do: in
// segment 1 the mark in a batch of its own and recs[:split] in one batch
// behind it, in segment 2 the rest in one batch (behind mark2, if it is
// set), each batch encoded in the given version and headed by a header of
// that version.
func goldenSegment(index uint64, version byte, mark1 Record, mark2 *Record, recs []Record, split int) []byte {
	b := withVersion(encodeSegHeader(index), version)
	if index == 1 {
		b = appendBatchAs(b, version, mark1)
		return appendBatchAs(b, version, recs[:split]...)
	}
	if mark2 != nil {
		b = appendBatchAs(b, version, *mark2)
	}
	return appendBatchAs(b, version, recs[split:]...)
}

// goldenV3Segment, goldenV4Segment and goldenV5Segment are the golden
// histories of versions 3, 4 and 5 as segment files of a version, each
// batch from an empty state (a version-3 or -4 segment only to compare
// bytes with: this binary refuses them).
func goldenV3Segment(index uint64, version byte) []byte {
	return goldenSegment(index, version, Record{Op: OpCheckpoint, CP: 1}, &Record{Op: OpCut, CP: 3}, goldenRecords(), 5)
}

func goldenV4Segment(index uint64, version byte) []byte {
	return goldenSegment(index, version, Record{Op: OpCut, CP: 4}, nil, goldenV4Records(), 13)
}

func goldenV5Segment(index uint64, version byte) []byte {
	return goldenSegment(index, version, Record{Op: OpCut, CP: 7}, nil, goldenV5Records(), 14)
}

// TestFormat3BytesPinned: the version-3 golden files, whose encoder no
// longer exists and which this binary refuses
// (TestUnreadableVersionNamedNotSealed), are version-5 frames that never
// pack or continue: version 5's decoder reads them to the history they were
// written from. appendBatchAs writes them byte for byte: it is a faithful
// version-3 encoder for the tests that compare sizes against one.
func TestFormat3BytesPinned(t *testing.T) {
	golden := goldenRecords()
	for index, want := range map[uint64][]Record{
		1: append([]Record{{Op: OpCheckpoint, CP: 1}}, golden[:5]...),
		2: append([]Record{{Op: OpCut, CP: 3}}, golden[5:]...),
	} {
		seg := goldenFile(t, "v3-", index)
		if v, ok := segHeaderVersion(seg); !ok || v != 3 {
			t.Fatalf("v3 golden segment %d has header version %d (%v)", index, v, ok)
		}
		if got, err := decodeBatches(seg[segHeaderSize:], 5); err != nil || !slices.Equal(got, want) {
			t.Errorf("v3 golden segment %d decodes as\n%+v (%v)\nwant\n%+v", index, got, err, want)
		}
		if got := goldenV3Segment(index, 3); !bytes.Equal(got, seg) {
			t.Errorf("v3 golden segment %d re-encodes as\n%x\nthe golden file holds\n%x", index, got, seg)
		}
	}
}

// TestFormat4BytesPinned: the version-4 golden files, whose encoder no
// longer exists and which this binary refuses
// (TestUnreadableVersionNamedNotSealed), are version-5 frames that never
// pack: version 5's decoder reads them to their history, flagging exactly
// the records that continue their op's predecessor in the batch, and
// appendBatchAs writes them byte for byte.
func TestFormat4BytesPinned(t *testing.T) {
	recs := goldenV4Records()
	for index, want := range map[uint64][]Record{
		1: append([]Record{{Op: OpCut, CP: 4}}, recs[:13]...),
		2: recs[13:],
	} {
		seg := goldenFile(t, "v4-", index)
		if v, ok := segHeaderVersion(seg); !ok || v != 4 {
			t.Fatalf("v4 golden segment %d has header version %d (%v)", index, v, ok)
		}
		if got := goldenV4Segment(index, 4); !bytes.Equal(got, seg) {
			t.Errorf("segment %d re-encodes as\n%x\nthe golden file holds\n%x", index, got, seg)
		}
		if got, err := decodeBatches(seg[segHeaderSize:], 5); err != nil || !slices.Equal(got, want) {
			t.Errorf("v4 golden segment %d decodes as\n%+v (%v)\nwant\n%+v", index, got, err, want)
		}
	}

	var continues []int
	for _, batch := range [][2]int{{0, 13}, {13, len(recs)}} {
		var st batchState
		for i := batch[0]; i < batch[1]; i++ {
			if b := unpacked(appendRecord(nil, recs[i], &st)); b[0]&flagContinues != 0 {
				continues = append(continues, i)
			}
		}
	}
	if !slices.Equal(continues, goldenV4Continues) {
		t.Errorf("records %v continue their predecessor, want %v", continues, goldenV4Continues)
	}
}

// TestFormat5BytesPinned: the version-5 golden files, which the previous
// encoder wrote, still recover to their history, every kind of block update
// packed into its first byte; the same history is shorter than in version
// 4, and appendBatchAs, which frames version 5 as sealTear does for a torn
// version-5 tail, writes them byte for byte.
func TestFormat5BytesPinned(t *testing.T) {
	vfs := storage.NewMemFS()
	var size, v4Size int
	for _, index := range []uint64{1, 2} {
		want := goldenFile(t, "v5-", index)
		if got := goldenV5Segment(index, 5); !bytes.Equal(got, want) {
			t.Errorf("segment %d encodes as\n%x\nthe golden file holds\n%x", index, got, want)
		}
		size += len(want)
		v4Size += len(goldenV5Segment(index, 4))
		plantSegment(t, vfs, index, want)
	}
	if size >= v4Size {
		t.Errorf("the history takes %d bytes, %d in version 4", size, v4Size)
	}

	recs := goldenV5Records()
	kinds := map[byte]bool{}
	for _, batch := range [][2]int{{0, 14}, {14, len(recs)}} {
		var st batchState
		for i := batch[0]; i < batch[1]; i++ {
			b := appendRecord(nil, recs[i], &st)
			if packed := b[0]&flagPacked != 0; packed != (recs[i].Op <= OpRemoveRef && recs[i].Line == 0 && recs[i].Length == 1) {
				t.Errorf("record %d %+v: packed = %v", i, recs[i], packed)
			} else if packed {
				kinds[b[0]&opMask] = true
			}
		}
	}
	if len(kinds) != 8 {
		t.Errorf("the history packs %d kinds of block update, want all 8", len(kinds))
	}

	rec, err := Recover(vfs)
	if err != nil {
		t.Fatal(err)
	}
	updates := slices.DeleteFunc(slices.Clone(recs), func(r Record) bool { return r.Op == OpCut })
	want := Recovered{Records: updates, Cuts: []CutMark{{Index: 0, CP: 7}, {Index: 12, CP: 11}}, Found: true}
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("v5 golden log recovered as\n%+v\nwant\n%+v", rec, want)
	}
}

// TestFormat6BytesPinned: the encoder still writes the bytes committed as
// testdata/v6-wal-*.seg, and the bytes recover to the history. A frame's
// first record takes what it can from the frame before — a CP, a
// continuation, across frames of one segment but never across segments —
// and the frame over 127 bytes of body takes 6 bytes of header, the rest 5.
// The same frames are longer each started from an empty state, and longer
// again under version 5's header. A deliberate format change bumps
// segVersion and adds files; it never rewrites these.
func TestFormat6BytesPinned(t *testing.T) {
	vfs := storage.NewMemFS()
	var size, emptyStarts, v5Size int
	for _, index := range []uint64{1, 2} {
		want := goldenFile(t, "v6-", index)
		if got := goldenV6Segment(index); !bytes.Equal(got, want) {
			t.Errorf("segment %d encodes as\n%x\nthe golden file holds\n%x", index, got, want)
		}
		plantSegment(t, vfs, index, want)
		size += len(want) - segHeaderSize

		var headers []int
		for b := want[segHeaderSize:]; len(b) > 0; {
			body, n, err := splitFrame(b, segVersion)
			if err != nil {
				t.Fatal(err)
			}
			headers = append(headers, n-len(body))
			b = b[n:]
		}
		wantHeaders := []int{5, 5, 5, 5, 5}
		if index == 2 {
			wantHeaders = []int{5, 6}
		}
		if !slices.Equal(headers, wantHeaders) {
			t.Errorf("segment %d: frame headers of %v bytes, want %v", index, headers, wantHeaders)
		}
		for _, frame := range goldenV6Frames(index) {
			emptyStarts += len(appendBatch(nil, frame...))
			v5Size += len(appendBatchAs(nil, 5, frame...))
		}
	}
	if size >= emptyStarts || emptyStarts >= v5Size {
		t.Errorf("the history's frames take %d bytes, %d each from an empty state, %d in version 5", size, emptyStarts, v5Size)
	}

	rec, err := Recover(vfs)
	if err != nil {
		t.Fatal(err)
	}
	updates := slices.DeleteFunc(goldenV6Records(), func(r Record) bool { return r.Op == OpCut })
	want := Recovered{Records: updates, Cuts: []CutMark{{Index: 0, CP: 7}, {Index: 12, CP: 11}}, Found: true}
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("v6 golden log recovered as\n%+v\nwant\n%+v", rec, want)
	}
}

// plantSegment stores raw bytes as a durable segment file.
func plantSegment(t testing.TB, vfs storage.VFS, index uint64, b []byte) {
	t.Helper()
	f, err := vfs.Create(segmentName(index))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(b, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// readSegmentFile returns the bytes of a segment file.
func readSegmentFile(t testing.TB, vfs storage.VFS, index uint64) []byte {
	t.Helper()
	f, err := vfs.Open(segmentName(index))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, size)
	if _, err := f.ReadAt(b, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	return b
}

func appendAll(t *testing.T, l *Log, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMixedVersionRecovery: a tail left by an earlier binary in version 5,
// continued by this one in version 6, replays to exactly what an
// all-version-6 log of the same history does, and the first checkpoint
// retires the old files. A version-4 or version-3 tail is refused by name,
// with the binary that replays it, and stays as it was.
func TestMixedVersionRecovery(t *testing.T) {
	later := []Record{
		{Op: OpAddRef, Block: 500, Inode: 11, Offset: 1, Length: 1, CP: 13},
		{Op: OpRelocate, Block: 77, NewBlock: 501, CP: 13},
		{Op: OpRemoveRef, Block: 500, Inode: 11, Offset: 1, Length: 1, CP: 14},
	}
	// continueLog is what the new binary does with either tail: two more
	// records, a checkpoint freeze, one record racing its flush.
	continueLog := func(vfs storage.VFS) (*Log, int) {
		l, _ := mustOpen(t, vfs, Sync)
		appendAll(t, l, later[:2]...)
		cut, err := l.Cut(13)
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, later[2])
		return l, cut
	}

	v5Updates := slices.DeleteFunc(goldenV5Records(), func(r Record) bool { return r.Op == OpCut })
	for _, tail := range []struct {
		version byte
		// segment is the tail's history as segment files of a version.
		segment func(index uint64, version byte) []byte
		want    Recovered // nothing, for a refused tail
	}{
		{3, nil, Recovered{}},
		{4, nil, Recovered{}},
		{5, goldenV5Segment, Recovered{Records: v5Updates, Cuts: []CutMark{{Index: 0, CP: 7}, {Index: 12, CP: 11}}, Found: true}},
	} {
		t.Run(fmt.Sprintf("v%d", tail.version), func(t *testing.T) {
			mixed := storage.NewMemFS()
			prefix := fmt.Sprintf("v%d-", tail.version)
			plantSegment(t, mixed, 1, goldenFile(t, prefix, 1))
			plantSegment(t, mixed, 2, goldenFile(t, prefix, 2))
			rec, err := Recover(mixed)
			if tail.segment == nil {
				want := fmt.Sprintf("format version %d; this binary reads versions 5 to 6: open the store once with a binary that reads it (%s)", tail.version, upgraders[tail.version])
				if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
					t.Fatalf("version-%d tail: Recover err = %v, want ErrCorrupt naming the version and the binary", tail.version, err)
				}
				if _, _, err := Open(mixed, Options{Durability: Sync}); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("version-%d tail: Open err = %v, want ErrCorrupt", tail.version, err)
				}
				for index := uint64(1); index <= 2; index++ {
					if got := readSegmentFile(t, mixed, index); !bytes.Equal(got, goldenFile(t, prefix, index)) {
						t.Fatalf("version-%d tail: the refused Open changed segment %d", tail.version, index)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rec, tail.want) {
				t.Fatalf("version-%d golden log recovered as\n%+v\nwant\n%+v", tail.version, rec, tail.want)
			}
			lm, cut := continueLog(mixed)

			// The same history in this binary's format alone.
			pure := storage.NewMemFS()
			plantSegment(t, pure, 1, tail.segment(1, segVersion))
			plantSegment(t, pure, 2, tail.segment(2, segVersion))
			lp, _ := continueLog(pure)

			got, err := Recover(mixed)
			if err != nil {
				t.Fatal(err)
			}
			all, err := Recover(pure)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, all) {
				t.Fatalf("mixed-version log recovered as\n%+v\nall-version-%d log as\n%+v", got, segVersion, all)
			}
			if n := len(tail.want.Records) + len(later); len(got.Records) != n || len(got.Cuts) != len(tail.want.Cuts)+1 {
				t.Fatalf("recovered %d records and %d cuts, want %d and %d", len(got.Records), len(got.Cuts), n, len(tail.want.Cuts)+1)
			}

			// The checkpoint commits: the old files go, the rest stays.
			if err := lm.Retire(cut); err != nil {
				t.Fatal(err)
			}
			for _, l := range []*Log{lm, lp} {
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			}
			segs, err := listSegments(mixed)
			if err != nil {
				t.Fatal(err)
			}
			for _, idx := range segs {
				if idx <= 2 {
					t.Fatalf("version-%d segment %d survived the checkpoint's retirement", tail.version, idx)
				}
			}
			rec, err = Recover(mixed)
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Records) != 1 || rec.Records[0] != later[2] {
				t.Fatalf("after retirement recovered %+v, want just %+v", rec.Records, later[2])
			}
		})
	}
}

// TestVersionByteSelectsDecoder: a segment is read by the framing its
// header's version names. Frames of one readable version under the other's
// header — the one way to get there is damage — read as a tear at the first
// frame, so not one of their records is replayed: the segment ends there
// when it is the log's last, and recovery fails with ErrCorrupt when it is
// not.
func TestVersionByteSelectsDecoder(t *testing.T) {
	for _, c := range []struct {
		golden  string
		version byte
	}{{"v5-", 6}, {"v6-", 5}} {
		for _, final := range []bool{true, false} {
			vfs := storage.NewMemFS()
			plantSegment(t, vfs, 1, withVersion(goldenFile(t, c.golden, 1), c.version))
			if !final {
				buildSegment(t, vfs, 2, []Record{addRec(1)}, nil)
			}
			rec, err := Recover(vfs)
			if final && (err != nil || len(rec.Records) != 0 || len(rec.Cuts) != 0) {
				t.Fatalf("%s bytes marked v%d, final: recovered %+v (%v), want nothing", c.golden, c.version, rec, err)
			}
			if !final && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s bytes marked v%d, mid-log: err = %v, want ErrCorrupt", c.golden, c.version, err)
			}
		}
	}
}

// TestUnreadableVersionNamedNotSealed is the house rule for the log: of
// the versions a segment header can name, this binary reads the current
// one, 6, and the one before it, 5. A segment of any other version — 4, 3,
// 2 or 1, which earlier binaries read, 0, or one from the future — fails
// recovery with an error that names the version, in any position: an older
// one as ErrCorrupt, version 4's and 3's also naming the binary that
// replays it, and a newer one as storage.ErrNewerFormat
// (btree.ErrNewerFormat), not damage. In particular Open does not take a
// final one for a torn creation and seal over it, which would silently
// discard its records, and it removes no segment.
func TestUnreadableVersionNamedNotSealed(t *testing.T) {
	for version := range byte(9) {
		seg := withVersion(goldenFile(t, "v6-", 1), version)
		want := fmt.Sprintf("format version %d", version)
		switch version {
		case 2, 3, 4, 5:
			seg = goldenFile(t, fmt.Sprintf("v%d-", version), 1) // what the version's encoder wrote
		}
		switch version {
		case 3:
			want += "; this binary reads versions 5 to 6: open the store once with a binary that reads it (commit 0ea923b or earlier) and run Checkpoint, as internal/core/testdata/upgrade does"
		case 4:
			want += "; this binary reads versions 5 to 6: open the store once with a binary that reads it (commit 8d5575c) and run Checkpoint, as internal/core/testdata/upgrade does"
		}
		for _, final := range []bool{true, false} {
			vfs := storage.NewMemFS()
			plantSegment(t, vfs, 1, seg)
			planted := 1
			if !final {
				buildSegment(t, vfs, 2, []Record{addRec(1)}, nil)
				planted = 2
			}
			l, _, err := Open(vfs, Options{Durability: Sync})
			if version == oldestReadable || version == segVersion {
				if err != nil {
					t.Fatalf("version %d, final=%v: %v, want it read", version, final, err)
				}
				l.Close()
				continue
			}
			if err == nil || !strings.Contains(err.Error(), want) || errors.Is(err, ErrCorrupt) == (version > segVersion) ||
				errors.Is(err, storage.ErrNewerFormat) != (version > segVersion) {
				t.Fatalf("version %d, final=%v: Open err = %v, want it refused naming the version", version, final, err)
			}
			if segs, err := listSegments(vfs); err != nil || len(segs) != planted {
				t.Fatalf("version %d, final=%v: segments after the failed Open: %v (%v), want the %d planted", version, final, segs, err, planted)
			}
			if got := readSegmentFile(t, vfs, 1); !bytes.Equal(got, seg) {
				t.Fatalf("version %d, final=%v: the failed Open rewrote the segment", version, final)
			}
		}
	}
}

// TestSyncLogStoreTailIsAFramePerUpdate: the log tail of
// internal/core/testdata/v5log-store, which a Sync-mode binary of format 5
// wrote, is the checkpoint's cut mark and then one frame per update, as a
// lone Sync appender writes them, so a reader that carries state from
// frame to frame meets a version-5 tail of many frames there.
func TestSyncLogStoreTailIsAFramePerUpdate(t *testing.T) {
	seg, err := os.ReadFile(filepath.Join("..", "core", "testdata", "v5log-store", segmentName(8)))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := segHeaderVersion(seg); !ok || v != 5 {
		t.Fatalf("the segment's header names version %d (%v), want 5", v, ok)
	}
	var frames []int // records per frame
	for b := seg[segHeaderSize:]; len(b) > 0; {
		_, n, err := splitFrame(b, 5)
		if err != nil {
			t.Fatalf("frame %d: %v", len(frames), err)
		}
		recs, err := decodeBatches(b[:n], 5)
		if err != nil {
			t.Fatalf("frame %d: %v", len(frames), err)
		}
		if len(frames) == 0 && (len(recs) != 1 || recs[0].Op != OpCut) {
			t.Fatalf("the segment opens with %+v, want a lone cut mark", recs)
		}
		frames = append(frames, len(recs))
		b = b[n:]
	}
	if len(frames) != 61 || slices.ContainsFunc(frames, func(n int) bool { return n != 1 }) {
		t.Fatalf("records per frame: %v, want the cut mark and 60 updates a frame each", frames)
	}
}
