package wal

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/backlogfs/backlog/internal/storage"
)

// The golden files under testdata/ were written by the version-1 encoder
// (fixed big-endian uint64 fields) before it was deleted, and are the only
// place version-1 bytes come from now:
//
//	v1-wal-…01.seg  Checkpoint mark CP=1, goldenRecords()[:5]
//	v1-wal-…02.seg  Cut mark CP=3, goldenRecords()[5:], then 20 bytes of a
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
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "v1-"+segmentName(index)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenV2Segment is goldenSegment's history as this binary writes it.
func goldenV2Segment(index uint64) []byte {
	recs := goldenRecords()
	b := encodeSegHeader(index)
	if index == 1 {
		b = appendFrame(b, Record{Op: OpCheckpoint, CP: 1})
		recs = recs[:5]
	} else {
		b = appendFrame(b, Record{Op: OpCut, CP: 3})
		recs = recs[5:]
	}
	for _, r := range recs {
		b = appendFrame(b, r)
	}
	return b
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

// TestMixedVersionRecovery: a version-1 tail left by an older binary,
// continued by this one in version 2, replays to exactly what an
// all-version-2 log of the same history does, and the first checkpoint
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
	want := Recovered{Records: golden, Cuts: []CutMark{{Index: 5, CP: 3}}, MarkCP: 1, Found: true}
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("version-1 golden log recovered as\n%+v\nwant\n%+v", rec, want)
	}
	lm, cut := continueLog(mixed)

	// The same history, written by this binary alone.
	pure := storage.NewMemFS()
	l, _ := mustOpen(t, pure, Sync)
	if err := l.Truncate(1); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, golden[:5]...)
	if _, err := l.Cut(3); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, golden[5:]...)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
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
		t.Fatalf("mixed-version log recovered as\n%+v\nall-version-2 log as\n%+v", got, all)
	}
	if n := len(golden) + len(later); len(got.Records) != n || len(got.Cuts) != 2 {
		t.Fatalf("recovered %d records and %d cuts, want %d and 2", len(got.Records), len(got.Cuts), n)
	}

	// The checkpoint commits: the version-1 files go, the rest stays.
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
			t.Fatalf("version-1 segment %d survived the checkpoint's retirement", idx)
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

// TestVersionByteSelectsDecoder: payloads are only ever read by the
// decoder their segment header names. A header naming the other version —
// the one way to get there is damage — makes the first record unreadable:
// a clean torn tail in a final segment, ErrCorrupt mid-log, never a record
// decoded from the wrong layout.
func TestVersionByteSelectsDecoder(t *testing.T) {
	v2 := goldenV2Segment(1)
	for name, seg := range map[string][]byte{"v1 bytes marked v2": goldenSegment(t, 1), "v2 bytes marked v1": v2} {
		seg = append([]byte(nil), seg...)
		seg[8] ^= 1 ^ 2
		vfs := storage.NewMemFS()
		plantSegment(t, vfs, 1, seg)
		rec, err := Recover(vfs)
		if err != nil {
			t.Fatalf("%s, final segment: %v", name, err)
		}
		if len(rec.Records) != 0 || rec.MarkCP != 0 {
			t.Fatalf("%s: decoded %+v from the wrong layout", name, rec)
		}
		// Followed by an ordinary rotation successor, the same segment is
		// corruption.
		buildSegment(t, vfs, 2, []Record{addRec(1)}, nil)
		if _, err := Recover(vfs); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s, mid-log: err = %v, want ErrCorrupt", name, err)
		}
	}
	// An unknown version is a bad header outright.
	seg := append([]byte(nil), v2...)
	seg[8] = segVersion + 1
	vfs := storage.NewMemFS()
	plantSegment(t, vfs, 1, seg)
	buildSegment(t, vfs, 2, []Record{addRec(1)}, nil)
	if _, err := Recover(vfs); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown version mid-log: err = %v, want ErrCorrupt", err)
	}
}
