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
//	v4-wal-…02.seg  goldenV4Records()[13:] in one batch
//	v5-wal-…01.seg  Cut mark CP=7, then goldenV5Records()[:14] in one batch
//	v5-wal-…02.seg  goldenV5Records()[14:] in one batch
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
// histories of versions 3, 4 and 5 as segment files of a version (a
// version-3 segment only to compare bytes with: this binary refuses it).
func goldenV3Segment(index uint64, version byte) []byte {
	return goldenSegment(index, version, Record{Op: OpCheckpoint, CP: 1}, &Record{Op: OpCut, CP: 3}, goldenRecords(), 5)
}

func goldenV4Segment(index uint64, version byte) []byte {
	return goldenSegment(index, version, Record{Op: OpCut, CP: 4}, nil, goldenV4Records(), 13)
}

func goldenV5Segment(index uint64) []byte {
	return goldenSegment(index, segVersion, Record{Op: OpCut, CP: 7}, nil, goldenV5Records(), 14)
}

// TestFormat3BytesPinned: the version-3 golden files, whose encoder no
// longer exists and which this binary refuses
// (TestUnreadableVersionNamedNotSealed), are version-4 bytes that never
// continue: version 4's decoder reads them to the history they were
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
		if got, err := decodeBatches(seg[segHeaderSize:], 4); err != nil || !slices.Equal(got, want) {
			t.Errorf("v3 golden segment %d decodes as\n%+v (%v)\nwant\n%+v", index, got, err, want)
		}
		if got := goldenV3Segment(index, 3); !bytes.Equal(got, seg) {
			t.Errorf("v3 golden segment %d re-encodes as\n%x\nthe golden file holds\n%x", index, got, seg)
		}
	}
}

// TestFormat4BytesPinned: the version-4 golden files, whose encoder no
// longer exists, still recover to their history, flagging exactly the
// records that continue their op's predecessor in the batch, and
// appendBatchAs writes them byte for byte.
func TestFormat4BytesPinned(t *testing.T) {
	vfs := storage.NewMemFS()
	for _, index := range []uint64{1, 2} {
		want := goldenFile(t, "v4-", index)
		if got := goldenV4Segment(index, 4); !bytes.Equal(got, want) {
			t.Errorf("segment %d re-encodes as\n%x\nthe golden file holds\n%x", index, got, want)
		}
		plantSegment(t, vfs, index, want)
	}

	recs := goldenV4Records()
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

// TestFormat5BytesPinned: the encoder still writes the bytes committed as
// testdata/v5-wal-*.seg, packing every kind of block update the history
// holds into its first byte, and the bytes recover to the history. The same
// history is shorter than in version 4. A deliberate format change bumps
// segVersion and adds files; it never rewrites these.
func TestFormat5BytesPinned(t *testing.T) {
	vfs := storage.NewMemFS()
	var size, v4Size int
	for _, index := range []uint64{1, 2} {
		want := goldenFile(t, "v5-", index)
		if got := goldenV5Segment(index); !bytes.Equal(got, want) {
			t.Errorf("segment %d encodes as\n%x\nthe golden file holds\n%x", index, got, want)
		}
		size += len(want)
		v4Size += len(goldenSegment(index, 4, Record{Op: OpCut, CP: 7}, nil, goldenV5Records(), 14))
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

// TestMixedVersionRecovery: a tail left by an earlier binary in version 4,
// continued by this one in version 5, replays to exactly what an
// all-version-5 log of the same history does, and the first checkpoint
// retires the old files. A version-3 tail is refused by name, with the
// binary that replays it, and stays as it was.
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

	v4 := goldenV4Records()
	v4Updates := slices.DeleteFunc(slices.Clone(v4), func(r Record) bool { return r.Op == OpCut })
	for _, tail := range []struct {
		version byte
		// segment is the tail's history as segment files of a version.
		segment func(index uint64, version byte) []byte
		want    Recovered // nothing, for a refused tail
	}{
		{3, nil, Recovered{}},
		{4, goldenV4Segment, Recovered{Records: v4Updates, Cuts: []CutMark{{Index: 0, CP: 4}, {Index: 6, CP: 5}}, Found: true}},
	} {
		t.Run(fmt.Sprintf("v%d", tail.version), func(t *testing.T) {
			mixed := storage.NewMemFS()
			prefix := fmt.Sprintf("v%d-", tail.version)
			plantSegment(t, mixed, 1, goldenFile(t, prefix, 1))
			plantSegment(t, mixed, 2, goldenFile(t, prefix, 2))
			rec, err := Recover(mixed)
			if tail.segment == nil {
				want := fmt.Sprintf("format version %d; this binary reads versions 4 to 5: open the store once with a binary that reads it (commit 0ea923b or earlier)", tail.version)
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

// TestVersionByteSelectsDecoder: a segment is read by the decoder its
// header names. Newer batches under an older header — the one way to get
// there is damage — fail at the first byte the older version lacks, a
// packed block update: the batch passes its checksum, so
// that is ErrCorrupt in the final segment as much as mid-log, never a torn
// tail and never records read with a flag the version lacks. The reverse is
// harmless by construction: version 5 is version 4 plus what it adds, so
// older bytes under the newer header decode to the same records.
func TestVersionByteSelectsDecoder(t *testing.T) {
	for _, c := range []struct {
		golden  string
		version byte
	}{{"v5-", 4}} {
		for _, final := range []bool{true, false} {
			vfs := storage.NewMemFS()
			plantSegment(t, vfs, 1, withVersion(goldenFile(t, c.golden, 1), c.version))
			if !final {
				buildSegment(t, vfs, 2, []Record{addRec(1)}, nil)
			}
			if _, err := Recover(vfs); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s bytes marked v%d, final=%v: err = %v, want ErrCorrupt", c.golden, c.version, final, err)
			}
		}
	}

	want, err := Recover(func() storage.VFS {
		vfs := storage.NewMemFS()
		plantSegment(t, vfs, 1, goldenFile(t, "v4-", 1))
		return vfs
	}())
	if err != nil {
		t.Fatal(err)
	}
	vfs := storage.NewMemFS()
	plantSegment(t, vfs, 1, withVersion(goldenFile(t, "v4-", 1), segVersion))
	rec, err := Recover(vfs)
	if err != nil || !reflect.DeepEqual(rec, want) {
		t.Fatalf("v4 bytes marked v%d: recovered %+v (%v), want %+v", segVersion, rec, err, want)
	}
}

// TestUnreadableVersionNamedNotSealed is the house rule for the log: of
// the versions a segment header can name, this binary reads the current
// one, 5, and the one before it, 4. A segment of any other version — 3, 2
// or 1, which earlier binaries read, 0, or one from the future — fails
// recovery with an error that names the version, in any position: an older
// one as ErrCorrupt, version 3's also naming the binary that replays it,
// and a newer one as storage.ErrNewerFormat (btree.ErrNewerFormat), not
// damage. In particular Open does not take a final one for a torn creation
// and seal over it, which would silently discard its records, and it
// removes no segment.
func TestUnreadableVersionNamedNotSealed(t *testing.T) {
	for version := range byte(9) {
		seg := withVersion(goldenFile(t, "v5-", 1), version)
		want := fmt.Sprintf("format version %d", version)
		switch version {
		case 2:
			seg = goldenFile(t, "v2-", 1) // what the version-2 encoder wrote
		case 3:
			seg = goldenFile(t, "v3-", 1) // what the version-3 encoder wrote
			want += "; this binary reads versions 4 to 5: open the store once with a binary that reads it (commit 0ea923b or earlier) and run Checkpoint, as internal/core/testdata/upgrade does"
		case 4:
			seg = goldenFile(t, "v4-", 1)
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
