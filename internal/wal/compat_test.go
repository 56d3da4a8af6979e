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
//	v3-wal-…02.seg  Cut mark CP=3, then goldenRecords()[5:] in one batch
//	v4-wal-…01.seg  Cut mark CP=4, then goldenV4Records()[:13] in one batch
//	v4-wal-…02.seg  goldenV4Records()[13:] in one batch
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

// goldenV4Segment is the version-4 golden history as this binary writes it.
func goldenV4Segment(index uint64) []byte {
	recs := goldenV4Records()
	b := encodeSegHeader(index)
	if index == 1 {
		b = appendBatch(b, Record{Op: OpCut, CP: 4})
		return appendBatch(b, recs[:13]...)
	}
	return appendBatch(b, recs[13:]...)
}

// goldenHistory is the version-3 golden tail's history as this binary
// writes it: the mark in a batch of its own, the records in one batch
// behind it.
func goldenHistory(index uint64) []byte {
	recs := goldenRecords()
	b := encodeSegHeader(index)
	if index == 1 {
		b = appendBatch(b, Record{Op: OpCheckpoint, CP: 1})
		recs = recs[:5]
	} else {
		b = appendBatch(b, Record{Op: OpCut, CP: 3})
		recs = recs[5:]
	}
	return appendBatch(b, recs...)
}

// TestFormat3BytesPinned: the version-3 golden files, whose encoder no
// longer exists, still decode to the history they were written from.
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
		if got, err := decodeBatches(seg[segHeaderSize:], 3); err != nil || !slices.Equal(got, want) {
			t.Errorf("v3 golden segment %d decodes as\n%+v (%v)\nwant\n%+v", index, got, err, want)
		}
	}
}

// TestFormat4BytesPinned: the encoder still writes the bytes committed as
// testdata/v4-wal-*.seg, flagging exactly the records that continue their
// op's predecessor in the batch, and the bytes recover to the history. A
// deliberate format change bumps segVersion and adds files; it never
// rewrites these.
func TestFormat4BytesPinned(t *testing.T) {
	vfs := storage.NewMemFS()
	for _, index := range []uint64{1, 2} {
		want := goldenFile(t, "v4-", index)
		if got := goldenV4Segment(index); !bytes.Equal(got, want) {
			t.Errorf("segment %d encodes as\n%x\nthe golden file holds\n%x", index, got, want)
		}
		plantSegment(t, vfs, index, want)
	}

	recs := goldenV4Records()
	var continues []int
	for _, batch := range [][2]int{{0, 13}, {13, len(recs)}} {
		var st batchState
		for i := batch[0]; i < batch[1]; i++ {
			if b := appendRecord(nil, recs[i], &st); b[0]&flagContinues != 0 {
				continues = append(continues, i)
			}
		}
	}
	if !slices.Equal(continues, goldenV4Continues) {
		t.Errorf("records %v continue their predecessor, want %v", continues, goldenV4Continues)
	}

	rec, err := Recover(vfs)
	if err != nil {
		t.Fatal(err)
	}
	updates := slices.DeleteFunc(slices.Clone(recs), func(r Record) bool { return r.Op == OpCut })
	want := Recovered{Records: updates, Cuts: []CutMark{{Index: 0, CP: 4}, {Index: 6, CP: 5}}, Found: true}
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("v4 golden log recovered as\n%+v\nwant\n%+v", rec, want)
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

func appendAll(t *testing.T, l *Log, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMixedVersionRecovery: a version-3 tail left by the previous binary,
// continued by this one in version 4, replays to exactly what an
// all-version-4 log of the same history does, and the first checkpoint
// retires the old files.
func TestMixedVersionRecovery(t *testing.T) {
	golden := goldenRecords()
	later := []Record{
		{Op: OpAddRef, Block: 500, Inode: 11, Offset: 1, Length: 1, CP: 4},
		{Op: OpRelocate, Block: 77, NewBlock: 501, CP: 4},
		{Op: OpRemoveRef, Block: 500, Inode: 11, Offset: 1, Length: 1, CP: 5},
	}
	// continueLog is what the new binary does with either tail: two more
	// records, a checkpoint freeze, one record racing its flush.
	continueLog := func(vfs storage.VFS) (*Log, int) {
		l, _ := mustOpen(t, vfs, Sync)
		appendAll(t, l, later[:2]...)
		cut, err := l.Cut(4)
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, later[2])
		return l, cut
	}

	mixed := storage.NewMemFS()
	plantSegment(t, mixed, 1, goldenFile(t, "v3-", 1))
	plantSegment(t, mixed, 2, goldenFile(t, "v3-", 2))
	rec, err := Recover(mixed)
	if err != nil {
		t.Fatal(err)
	}
	// The checkpoint mark the tail opens with is one nothing writes any
	// more; read, it still means what it meant.
	want := Recovered{Records: golden, Cuts: []CutMark{{Index: 5, CP: 3}}, MarkCP: 1, Found: true}
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("version-3 golden log recovered as\n%+v\nwant\n%+v", rec, want)
	}
	lm, cut := continueLog(mixed)

	// The same history in this binary's format alone.
	pure := storage.NewMemFS()
	plantSegment(t, pure, 1, goldenHistory(1))
	plantSegment(t, pure, 2, goldenHistory(2))
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
		t.Fatalf("mixed-version log recovered as\n%+v\nall-version-4 log as\n%+v", got, all)
	}
	if n := len(golden) + len(later); len(got.Records) != n || len(got.Cuts) != 2 {
		t.Fatalf("recovered %d records and %d cuts, want %d and 2", len(got.Records), len(got.Cuts), n)
	}

	// The checkpoint commits: the version-3 files go, the rest stays.
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
			t.Fatalf("version-3 segment %d survived the checkpoint's retirement", idx)
		}
	}
	rec, err = Recover(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 1 || rec.Records[0] != later[2] {
		t.Fatalf("after retirement recovered %+v, want just %+v", rec.Records, later[2])
	}
}

// TestVersionByteSelectsDecoder: a segment is read by the decoder its
// header names. Version-4 batches under a version-3 header — the one way to
// get there is damage — fail at the first continuation: the batch passes its
// checksum, so that is ErrCorrupt in the final segment as much as mid-log,
// never a torn tail and never records read with a flag the version lacks.
// The reverse is harmless by construction: version 4 is version 3 plus a
// flag, so version-3 bytes under a version-4 header decode to the same
// records.
func TestVersionByteSelectsDecoder(t *testing.T) {
	for _, final := range []bool{true, false} {
		vfs := storage.NewMemFS()
		plantSegment(t, vfs, 1, withVersion(goldenFile(t, "v4-", 1), 3))
		if !final {
			buildSegment(t, vfs, 2, []Record{addRec(1)}, nil)
		}
		if _, err := Recover(vfs); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("v4 bytes marked v3, final=%v: err = %v, want ErrCorrupt", final, err)
		}
	}

	vfs := storage.NewMemFS()
	plantSegment(t, vfs, 1, withVersion(goldenFile(t, "v3-", 1), segVersion))
	rec, err := Recover(vfs)
	if err != nil || rec.MarkCP != 1 || !reflect.DeepEqual(rec.Records, goldenRecords()[:5]) {
		t.Fatalf("v3 bytes marked v4: recovered %+v (%v)", rec, err)
	}
}

// TestUnreadableVersionNamedNotSealed: a segment in a format this binary
// has no decoder for — version 2 or 1, which it used to read, or one from
// the future — fails recovery with an error that names the version, in any
// position. In particular Open does not take a final one for a torn
// creation and seal over it, which would silently discard its records, and
// it removes no segment.
func TestUnreadableVersionNamedNotSealed(t *testing.T) {
	for _, version := range []byte{1, 2, segVersion + 1} {
		seg := withVersion(goldenFile(t, "v4-", 1), version)
		if version == 2 {
			seg = goldenFile(t, "v2-", 1) // what the version-2 encoder wrote
		}
		want := fmt.Sprintf("format version %d", version)
		for _, final := range []bool{true, false} {
			vfs := storage.NewMemFS()
			plantSegment(t, vfs, 1, seg)
			planted := 1
			if !final {
				buildSegment(t, vfs, 2, []Record{addRec(1)}, nil)
				planted = 2
			}
			_, _, err := Open(vfs, Options{Durability: Sync})
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
				t.Fatalf("version %d, final=%v: Open err = %v, want ErrCorrupt naming the version", version, final, err)
			}
			if segs, err := listSegments(vfs); err != nil || len(segs) != planted {
				t.Fatalf("version %d, final=%v: segments after the failed Open: %v (%v), want the %d planted", version, final, segs, err, planted)
			}
			f, err := vfs.Open(segmentName(1))
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(seg))
			if _, err := f.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
				t.Fatal(err)
			}
			f.Close()
			if !bytes.Equal(got, seg) {
				t.Fatalf("version %d, final=%v: the failed Open rewrote the segment", version, final)
			}
		}
	}
}
