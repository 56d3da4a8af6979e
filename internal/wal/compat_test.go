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
	"strings"
	"testing"

	"github.com/backlogfs/backlog/internal/storage"
)

// The golden files under testdata/ were written by the version-2 encoder
// (one frame per record, every field spelled out) at the commit before it
// was replaced, and are the only place version-2 bytes come from now:
//
//	v2-wal-…01.seg  Checkpoint mark CP=1, goldenRecords()[:5]
//	v2-wal-…02.seg  Cut mark CP=3, goldenRecords()[5:], then 20 bytes of a
//	                torn AddRef frame — the tail of a killed older binary
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

func goldenSegment(t testing.TB, index uint64) []byte {
	return goldenFile(t, "v2-", index)
}

func goldenFile(t testing.TB, prefix string, index uint64) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", prefix+segmentName(index)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenV3Segment is goldenSegment's history as this binary writes it: the
// mark in a batch of its own, the records in one batch behind it.
func goldenV3Segment(index uint64) []byte {
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

// TestFormat3BytesPinned: the encoder still writes the bytes committed as
// testdata/v3-wal-*.seg. A deliberate format change bumps segVersion and
// adds files; it never rewrites these.
func TestFormat3BytesPinned(t *testing.T) {
	for _, index := range []uint64{1, 2} {
		if got, want := goldenV3Segment(index), goldenFile(t, "v3-", index); !bytes.Equal(got, want) {
			t.Errorf("segment %d encodes as\n%x\nthe golden file holds\n%x", index, got, want)
		}
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

// TestMixedVersionRecovery: a version-2 tail left by the previous binary,
// continued by this one in version 3, replays to exactly what an
// all-version-3 log of the same history does, and the first checkpoint
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
	plantSegment(t, mixed, 1, goldenSegment(t, 1))
	plantSegment(t, mixed, 2, goldenSegment(t, 2))
	rec, err := Recover(mixed)
	if err != nil {
		t.Fatal(err)
	}
	// The checkpoint mark the tail opens with is one nothing writes any
	// more; read, it still means what it meant.
	want := Recovered{Records: golden, Cuts: []CutMark{{Index: 5, CP: 3}}, MarkCP: 1, Found: true}
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("version-2 golden log recovered as\n%+v\nwant\n%+v", rec, want)
	}
	lm, cut := continueLog(mixed)

	// The same history in this binary's format alone.
	pure := storage.NewMemFS()
	plantSegment(t, pure, 1, goldenV3Segment(1))
	plantSegment(t, pure, 2, goldenV3Segment(2))
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
		t.Fatalf("mixed-version log recovered as\n%+v\nall-version-3 log as\n%+v", got, all)
	}
	if n := len(golden) + len(later); len(got.Records) != n || len(got.Cuts) != 2 {
		t.Fatalf("recovered %d records and %d cuts, want %d and 2", len(got.Records), len(got.Cuts), n)
	}

	// The checkpoint commits: the version-2 files go, the rest stays.
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
			t.Fatalf("version-2 segment %d survived the checkpoint's retirement", idx)
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
// header names, and by no other. Version-3 batches under a version-2 header
// — the one way to get there is damage — stop at the first batch that is
// not a lone record: a clean torn tail in a final segment, ErrCorrupt
// mid-log, never records split out of a frame the header says holds one.
// The reverse is harmless by construction: a version-2 frame is a valid
// one-record batch with no flag set (the same property that lets one
// SegmentEnd seal a tear in either), so it decodes to the same records.
func TestVersionByteSelectsDecoder(t *testing.T) {
	remark := func(seg []byte, version byte) []byte {
		seg = append([]byte(nil), seg...)
		seg[8] = version
		return seg
	}
	vfs := storage.NewMemFS()
	plantSegment(t, vfs, 1, remark(goldenV3Segment(1), segVersionOld))
	rec, err := Recover(vfs)
	if err != nil {
		t.Fatalf("v3 bytes marked v2, final segment: %v", err)
	}
	// The lone checkpoint mark reads the same either way; the five-record
	// batch behind it does not read at all.
	if len(rec.Records) != 0 || rec.MarkCP != 1 {
		t.Fatalf("v3 bytes marked v2: decoded %+v", rec)
	}
	// Followed by an ordinary rotation successor, the same segment is
	// corruption.
	buildSegment(t, vfs, 2, []Record{addRec(1)}, nil)
	if _, err := Recover(vfs); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v3 bytes marked v2, mid-log: err = %v, want ErrCorrupt", err)
	}

	vfs = storage.NewMemFS()
	plantSegment(t, vfs, 1, remark(goldenSegment(t, 1), segVersion))
	rec, err = Recover(vfs)
	if err != nil || !reflect.DeepEqual(rec.Records, goldenRecords()[:5]) {
		t.Fatalf("v2 bytes marked v3: recovered %+v (%v)", rec, err)
	}
}

// TestUnreadableVersionNamedNotSealed: a segment in a format this binary
// has no decoder for — version 1, which it used to read, or one from the
// future — fails recovery with an error that names the version, in any
// position. In particular Open does not take a final one for a torn
// creation and seal over it, which would silently discard its records.
func TestUnreadableVersionNamedNotSealed(t *testing.T) {
	for _, version := range []byte{1, segVersion + 1} {
		seg := goldenV3Segment(1)
		seg[8] = version
		want := fmt.Sprintf("format version %d", version)
		for _, final := range []bool{true, false} {
			vfs := storage.NewMemFS()
			plantSegment(t, vfs, 1, seg)
			if !final {
				buildSegment(t, vfs, 2, []Record{addRec(1)}, nil)
			}
			_, _, err := Open(vfs, Options{Durability: Sync})
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
				t.Fatalf("version %d, final=%v: Open err = %v, want ErrCorrupt naming the version", version, final, err)
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
