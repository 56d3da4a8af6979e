package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/backlogfs/backlog/internal/btree"
	"github.com/backlogfs/backlog/internal/storage"
)

const testRecSize = 16 // block u64 | payload u64

func rec16(block, payload uint64) []byte {
	r := make([]byte, testRecSize)
	binary.BigEndian.PutUint64(r, block)
	binary.BigEndian.PutUint64(r[8:], payload)
	return r
}

func openTestDB(t *testing.T, fs storage.VFS, partitions int) *DB {
	t.Helper()
	opts := Options{
		Tables:        []TableSpec{{Name: "from", RecordSize: testRecSize}, {Name: "to", RecordSize: testRecSize}},
		Partitions:    partitions,
		PartitionSpan: 1000,
		Cache:         btree.NewCacheBytes(4096 * storage.PageSize),
	}
	db, err := Open(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// flushRecords writes one Level-0 run per partition for the given table
// and commits at the given CP.
func flushRecords(t testing.TB, db *DB, table string, cp uint64, recs [][]byte) {
	t.Helper()
	set := db.NewFileSet(0, cp, storage.SrcCheckpoint, table)
	if err := addAll(set, table, recs); err != nil {
		t.Fatal(err)
	}
	refs, err := set.Finish()
	if err != nil {
		t.Fatal(err)
	}
	edit := db.NewEdit().SetCP(cp)
	for _, ref := range refs {
		edit.AddRun(ref)
	}
	if err := edit.Commit(); err != nil {
		t.Fatal(err)
	}
}

// buildRun writes recs, in ascending order, as table's run in partition 0
// through a file set of its own, and returns the run, not yet committed.
func buildRun(t testing.TB, db *DB, table string, level int, cp uint64, src storage.Source, recs ...[]byte) RunRef {
	t.Helper()
	set := db.NewFileSet(level, cp, src, table)
	b := set.Run(table, 0, len(recs))
	for _, rec := range recs {
		if err := b.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	refs, err := set.Finish()
	if err != nil || len(refs) != 1 {
		t.Fatalf("Finish: %d runs, %v", len(refs), err)
	}
	return refs[0]
}

// collect reads one block of the table through a freshly pinned view.
func collect(t *testing.T, tbl *Table, block uint64) [][]byte {
	t.Helper()
	v := tbl.db.AcquireView()
	defer v.Release()
	return viewCollect(t, v, tbl.Name(), block)
}

// scanTable streams every record of the table's partition 0 — merged,
// deduplicated and deletion-vector filtered — through a freshly pinned
// view, released before it returns.
func scanTable(t *testing.T, tbl *Table, visit func(rec []byte)) {
	t.Helper()
	v := tbl.db.AcquireView()
	defer v.Release()
	it, err := v.MergedIter(tbl.Name(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for {
		rec, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return
		}
		visit(rec)
	}
}

func TestFlushAndCollect(t *testing.T) {
	fs := storage.NewMemFS()
	db := openTestDB(t, fs, 1)
	flushRecords(t, db, "from", 1, [][]byte{rec16(5, 100), rec16(5, 101), rec16(9, 1)})
	flushRecords(t, db, "from", 2, [][]byte{rec16(5, 102), rec16(7, 50)})

	got := collect(t, db.Table("from"), 5)
	if len(got) != 3 {
		t.Fatalf("block 5: got %d records, want 3", len(got))
	}
	for i, want := range []uint64{100, 101, 102} {
		if binary.BigEndian.Uint64(got[i][8:]) != want {
			t.Fatalf("record %d payload = %d, want %d", i, binary.BigEndian.Uint64(got[i][8:]), want)
		}
	}
	if got := collect(t, db.Table("from"), 6); len(got) != 0 {
		t.Fatalf("block 6: got %d records, want 0", len(got))
	}
	if db.CP() != 2 {
		t.Fatalf("CP = %d, want 2", db.CP())
	}
}

func TestDuplicateAcrossRunsSuppressed(t *testing.T) {
	fs := storage.NewMemFS()
	db := openTestDB(t, fs, 1)
	flushRecords(t, db, "from", 1, [][]byte{rec16(5, 100)})
	flushRecords(t, db, "from", 2, [][]byte{rec16(5, 100)})
	got := collect(t, db.Table("from"), 5)
	if len(got) != 1 {
		t.Fatalf("duplicate record emitted %d times, want 1", len(got))
	}
}

func TestReopenPersists(t *testing.T) {
	fs := storage.NewMemFS()
	db := openTestDB(t, fs, 1)
	flushRecords(t, db, "from", 1, [][]byte{rec16(1, 10), rec16(2, 20)})
	flushRecords(t, db, "to", 1, [][]byte{rec16(1, 11)})

	db2 := openTestDB(t, fs, 1)
	if db2.CP() != 1 {
		t.Fatalf("reopened CP = %d", db2.CP())
	}
	if got := collect(t, db2.Table("from"), 2); len(got) != 1 {
		t.Fatalf("reopened from-block-2: %d records", len(got))
	}
	if got := collect(t, db2.Table("to"), 1); len(got) != 1 {
		t.Fatalf("reopened to-block-1: %d records", len(got))
	}
}

func TestCrashBeforeCommitRecoversOldState(t *testing.T) {
	fs := storage.NewMemFS()
	db := openTestDB(t, fs, 1)
	flushRecords(t, db, "from", 1, [][]byte{rec16(1, 10)})

	// Write a run but crash before the manifest commit.
	buildRun(t, db, "from", 0, 2, storage.SrcCheckpoint, rec16(2, 20))
	fs.Crash()

	db2 := openTestDB(t, fs, 1)
	if db2.CP() != 1 {
		t.Fatalf("CP after crash = %d, want 1", db2.CP())
	}
	if got := collect(t, db2.Table("from"), 2); len(got) != 0 {
		t.Fatalf("uncommitted record visible after crash")
	}
	// The orphan run file must have been collected: the directory holds
	// the files the commit needs, its carrier among them.
	if names, _ := fs.List(); !reflect.DeepEqual(names, db2.Files()) {
		t.Fatalf("after recovery the directory holds %v, the commit needs %v", names, db2.Files())
	}
}

func TestCrashAfterCommitKeepsNewState(t *testing.T) {
	fs := storage.NewMemFS()
	db := openTestDB(t, fs, 1)
	flushRecords(t, db, "from", 1, [][]byte{rec16(1, 10)})
	flushRecords(t, db, "from", 2, [][]byte{rec16(2, 20)})
	fs.Crash()
	db2 := openTestDB(t, fs, 1)
	if db2.CP() != 2 {
		t.Fatalf("CP after crash = %d, want 2", db2.CP())
	}
	if got := collect(t, db2.Table("from"), 2); len(got) != 1 {
		t.Fatalf("committed record lost by crash")
	}
}

func TestDeletionVector(t *testing.T) {
	fs := storage.NewMemFS()
	db := openTestDB(t, fs, 1)
	flushRecords(t, db, "from", 1, [][]byte{rec16(1, 10), rec16(1, 11), rec16(2, 20)})

	tbl := db.Table("from")
	tbl.DeleteRecord(rec16(1, 10))
	if got := collect(t, tbl, 1); len(got) != 1 || binary.BigEndian.Uint64(got[0][8:]) != 11 {
		t.Fatalf("DV filter failed: %v", got)
	}
	if !tbl.DVDirty() {
		t.Fatal("DV not marked dirty")
	}

	// Only an edit that advances the CP may persist a dirty vector: one that
	// does not leaves it dirty and off the disk, and one that would drop
	// runs of the table meanwhile is refused.
	if err := db.NewEdit().Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.NewEdit().DropRun("from", tbl.Runs(0)[0].Name()).Commit(); err == nil {
		t.Fatal("an edit dropping runs under a dirty vector committed")
	}
	if !tbl.DVDirty() || tbl.DVLen() != 1 || len(tbl.Runs(0)) != 1 {
		t.Fatalf("after two edits that must not touch the vector: dirty=%v, %d entries, %d runs",
			tbl.DVDirty(), tbl.DVLen(), len(tbl.Runs(0)))
	}
	if dvFiles(t, fs) != 0 {
		t.Fatal("a dirty vector reached the disk without a CP-advancing commit")
	}

	// Persist and reopen.
	if err := db.NewEdit().SetCP(2).Commit(); err != nil {
		t.Fatal(err)
	}
	if tbl.DVDirty() || dvFiles(t, fs) != 1 {
		t.Fatalf("after the CP-advancing commit: dirty=%v, %d vector files", tbl.DVDirty(), dvFiles(t, fs))
	}
	db2 := openTestDB(t, fs, 1)
	tbl2 := db2.Table("from")
	if tbl2.DVLen() != 1 {
		t.Fatalf("reopened DV has %d entries", tbl2.DVLen())
	}
	if got := collect(t, tbl2, 1); len(got) != 1 {
		t.Fatalf("DV filter lost on reopen: %v", got)
	}

	// MergedIter also respects the DV.
	var n int
	scanTable(t, tbl2, func([]byte) { n++ })
	if n != 2 {
		t.Fatalf("MergedIter saw %d records, want 2", n)
	}

	// Dropping the run the entry points into collects the entry and drops
	// the DV file. The runs the same edit adds do not keep it alive, though
	// this one covers block 1 — and, unlike a real merge's output, even
	// holds the hidden record, which therefore shows again.
	ref := buildRun(t, db2, "from", 1, db2.CP(), storage.SrcCompaction, rec16(1, 10), rec16(1, 11), rec16(2, 20))
	edit := db2.NewEdit().AddRun(ref).DropRun("from", tbl2.Runs(0)[0].Name())
	if err := edit.Commit(); err != nil {
		t.Fatal(err)
	}
	if edit.CollectedDVEntries() != 1 || dvFiles(t, fs) != 0 {
		t.Fatalf("merge-shaped edit collected %d entries and left %d vector files, want 1 and 0",
			edit.CollectedDVEntries(), dvFiles(t, fs))
	}
	db3 := openTestDB(t, fs, 1)
	if db3.Table("from").DVLen() != 0 {
		t.Fatal("cleared DV came back")
	}
	if got := collect(t, db3.Table("from"), 1); len(got) != 2 {
		t.Fatalf("records after DV clear: %d, want 2", len(got))
	}
}

// dvFiles counts the deletion-vector files on disk.
func dvFiles(t *testing.T, fs storage.VFS) (n int) {
	t.Helper()
	for name := range listFiles(t, fs) {
		if strings.HasPrefix(name, "dv.") {
			n++
		}
	}
	return n
}

func TestCompactionReplacesRuns(t *testing.T) {
	fs := storage.NewMemFS()
	db := openTestDB(t, fs, 1)
	for cp := uint64(1); cp <= 5; cp++ {
		flushRecords(t, db, "from", cp, [][]byte{rec16(cp, cp*10)})
	}
	tbl := db.Table("from")
	if len(tbl.Runs(0)) != 5 {
		t.Fatalf("run count = %d, want 5", len(tbl.Runs(0)))
	}

	// Merge all runs into one Level-1 run.
	var recs [][]byte
	scanTable(t, tbl, func(rec []byte) { recs = append(recs, slices.Clone(rec)) })
	edit := db.NewEdit().AddRun(buildRun(t, db, "from", 1, db.CP(), storage.SrcCompaction, recs...))
	for _, r := range tbl.Runs(0) {
		edit.DropRun("from", r.Name())
	}
	if err := edit.Commit(); err != nil {
		t.Fatal(err)
	}

	if len(tbl.Runs(0)) != 1 || tbl.Runs(0)[0].Level() != 1 {
		t.Fatalf("after compaction: %d runs, level %d", len(tbl.Runs(0)), tbl.Runs(0)[0].Level())
	}
	for blk := uint64(1); blk <= 5; blk++ {
		if got := collect(t, tbl, blk); len(got) != 1 {
			t.Fatalf("block %d lost by compaction", blk)
		}
	}
	// The old run files are gone from disk.
	names, _ := fs.List()
	runFiles := 0
	for _, n := range names {
		if len(n) > 4 && n[len(n)-4:] == ".run" {
			runFiles++
		}
	}
	if runFiles != 1 {
		t.Fatalf("%d run files on disk after compaction, want 1", runFiles)
	}
}

func TestPartitioning(t *testing.T) {
	fs := storage.NewMemFS()
	db := openTestDB(t, fs, 4) // span 1000
	if p := db.PartitionOf(0); p != 0 {
		t.Fatalf("PartitionOf(0) = %d", p)
	}
	if p := db.PartitionOf(999); p != 0 {
		t.Fatalf("PartitionOf(999) = %d", p)
	}
	if p := db.PartitionOf(1000); p != 1 {
		t.Fatalf("PartitionOf(1000) = %d", p)
	}
	if p := db.PartitionOf(1 << 40); p != 3 {
		t.Fatalf("PartitionOf(huge) = %d, want last partition", p)
	}
	if p := db.PartitionOf(1999); p != 1 {
		t.Fatalf("PartitionOf(1999) = %d", p)
	}
	if p := db.PartitionOf(^uint64(0)); p != 3 {
		t.Fatalf("PartitionOf(MaxUint64) = %d, want last partition", p)
	}

	recs := [][]byte{rec16(5, 1), rec16(1500, 2), rec16(2500, 3), rec16(9999, 4)}
	flushRecords(t, db, "from", 1, recs)
	tbl := db.Table("from")
	for p := 0; p < 4; p++ {
		if len(tbl.Runs(p)) != 1 {
			t.Fatalf("partition %d has %d runs, want 1", p, len(tbl.Runs(p)))
		}
	}
	for _, r := range recs {
		blk := binary.BigEndian.Uint64(r[:8])
		if got := collect(t, tbl, blk); len(got) != 1 {
			t.Fatalf("block %d: %d records", blk, len(got))
		}
	}
}

func TestBloomPrunesRuns(t *testing.T) {
	fs := storage.NewMemFS()
	db := openTestDB(t, fs, 1)
	// Two runs with disjoint but interleaved block sets.
	flushRecords(t, db, "from", 1, [][]byte{rec16(10, 1), rec16(30, 1)})
	flushRecords(t, db, "from", 2, [][]byte{rec16(20, 1), rec16(40, 1)})

	tbl := db.Table("from")
	runs := tbl.Runs(0)
	if len(runs) != 2 {
		t.Fatalf("%d runs", len(runs))
	}
	// Block 20 is inside run 0's [min,max] range but should be rejected by
	// its bloom filter with high probability.
	if runs[0].MayContainBlock(20) {
		t.Log("bloom false positive for block 20 (possible but unlikely)")
	}
	if !runs[0].MayContainBlock(10) || !runs[1].MayContainBlock(20) {
		t.Fatal("bloom false negative")
	}
	// Out-of-range blocks are always rejected.
	if runs[0].MayContainBlock(5) || runs[0].MayContainBlock(50) {
		t.Fatal("range check failed")
	}
}

// TestInstalledRunKeepsBuilderFilter: a run this process built is installed
// from the header its builder still held and probes the builder's Bloom
// filter, reading nothing; the same run after a reopen reads and verifies its
// header, loads the filter from its file on the first probe and answers
// identically.
func TestInstalledRunKeepsBuilderFilter(t *testing.T) {
	fs := storage.NewMemFS()
	db := openTestDB(t, fs, 1)
	var recs [][]byte
	for b := uint64(10); b < 500; b += 7 {
		recs = append(recs, rec16(b, 1))
	}
	flushRecords(t, db, "from", 1, recs)
	if n := fs.Stats().BytesRead; n != 0 {
		t.Fatalf("building and installing a run read %d bytes back", n)
	}
	probe := func(db *DB) (answers []bool, bytesRead int64) {
		run := db.Table("from").Runs(0)[0]
		before := fs.Stats().BytesRead
		for b := uint64(10); b < 500; b++ {
			answers = append(answers, run.MayContainBlock(b))
		}
		return answers, fs.Stats().BytesRead - before
	}
	built, n := probe(db)
	if n != 0 {
		t.Fatalf("probing a freshly built run read %d bytes back", n)
	}
	db2 := openTestDB(t, fs, 1)
	if n := fs.Stats().BytesRead; n < storage.PageSize {
		t.Fatalf("reopening read %d bytes: a run found in the manifest has its header verified", n)
	}
	reopened, n := probe(db2)
	if n == 0 {
		t.Fatal("probing a reopened run read nothing: where did its filter come from?")
	}
	if !reflect.DeepEqual(built, reopened) {
		t.Fatal("the builder's filter and the one loaded from the file disagree")
	}
	for b := uint64(10); b < 500; b += 7 {
		if !built[b-10] {
			t.Fatalf("bloom false negative for block %d", b)
		}
	}
}

// TestDamagedFilterIsReadOnce: a current-format run whose filter bytes fail
// the checksum its commit carries is probed as a run without a filter —
// every block in its range may be present, so no owner goes missing — and
// the bytes are read once, not on every probe. Bytes flipped on disk and a
// checksum the commit carries wrong are the same damage. So is a filter
// whose checksum holds in an encoding this binary does not read (a BLF3):
// a filter is advisory, so a run is never refused for its filter, which is
// what a binary that reads only BLF1 does with a BLF2.
func TestDamagedFilterIsReadOnce(t *testing.T) {
	for _, damage := range []string{"a flipped filter byte", "a wrong carried checksum", "an encoding this binary does not read"} {
		fs := storage.NewMemFS()
		opts := Options{
			Tables:    []TableSpec{{Name: "from", RecordSize: testRecSize}},
			Cache:     btree.NewCacheBytes(64 * storage.PageSize),
			RunFormat: btree.FormatDelta,
		}
		db, err := Open(fs, opts)
		if err != nil {
			t.Fatal(err)
		}
		var recs [][]byte
		for b := uint64(10); b < 500; b += 7 {
			recs = append(recs, rec16(b, 1))
		}
		flushRecords(t, db, "from", 1, recs)
		name, end := db.Table("from").Runs(0)[0].Name(), db.Table("from").Runs(0)[0].SizeBytes()
		// A commit file of its own: the run file that carried the checkpoint's
		// commit is not verified at the reopen, which would find it torn.
		if err := db.NewEdit().Commit(); err != nil {
			t.Fatal(err)
		}
		db.Close()

		switch damage {
		case "a wrong carried checksum":
			reseal(t, fs, func(m *manifest) { m.Tables["from"].Partitions[0][0].Header.FilterCRC ^= 1 })
		case "an encoding this binary does not read":
			reseal(t, fs, func(m *manifest) {
				h := m.Tables["from"].Partitions[0][0].Header
				f, err := fs.Open(name)
				if err != nil {
					t.Fatal(err)
				}
				filter := make([]byte, h.FilterLen)
				if _, err := f.ReadAt(filter, int64(h.FilterOff)); err != nil {
					t.Fatal(err)
				}
				if string(filter[:4]) != "BLF2" {
					t.Fatalf("a delta run's filter is %q", filter[:4])
				}
				copy(filter, "BLF3")
				if _, err := f.WriteAt(filter, int64(h.FilterOff)); err != nil {
					t.Fatal(err)
				}
				f.Close()
				h.FilterCRC = crc32.Checksum(filter, crc32.MakeTable(crc32.Castagnoli))
			})
		default:
			f, err := fs.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			var b [1]byte // the filter's last byte
			if _, err := f.ReadAt(b[:], end-1); err != nil {
				t.Fatal(err)
			}
			b[0] ^= 0x04
			if _, err := f.WriteAt(b[:], end-1); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}

		if db, err = Open(fs, opts); err != nil {
			t.Fatal(err)
		}
		run := db.Table("from").Runs(0)[0]
		before := fs.Stats().BytesRead
		if !run.MayContainBlock(11) {
			t.Fatalf("%s: a run with a damaged filter ruled a block out", damage)
		}
		first := fs.Stats().BytesRead - before
		if first == 0 {
			t.Fatalf("%s: the first probe read nothing: the filter was never checked", damage)
		}
		for b := run.MinBlock(); b <= run.MaxBlock(); b++ {
			if !run.MayContainBlock(b) {
				t.Fatalf("%s: block %d ruled out by a filter that failed its checksum", damage, b)
			}
		}
		if again := fs.Stats().BytesRead - before - first; again != 0 {
			t.Fatalf("%s: later probes read %d more bytes: the failed load is not sticky", damage, again)
		}
		for b := uint64(10); b < 500; b += 7 {
			if got := collect(t, db.Table("from"), b); len(got) != 1 {
				t.Fatalf("%s: block %d: %d records, want 1", damage, b, len(got))
			}
		}
		db.Close()
	}
}

func TestEmptyBuilderProducesNoRun(t *testing.T) {
	fs := storage.NewMemFS()
	db := openTestDB(t, fs, 1)
	set := db.NewFileSet(0, 1, storage.SrcCheckpoint, "from", "to")
	set.Run("from", 0, 1<<15)
	refs, err := set.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 0 {
		t.Fatalf("empty builder produced %d runs", len(refs))
	}
	names, _ := fs.List()
	if len(names) != 0 {
		t.Fatalf("empty builder left files: %v", names)
	}
}

func TestAbortRemovesFile(t *testing.T) {
	fs := storage.NewMemFS()
	db := openTestDB(t, fs, 1)
	set := db.NewFileSet(0, 1, storage.SrcCheckpoint, "from")
	if err := set.Run("from", 0, 1<<15).Add(rec16(1, 1)); err != nil {
		t.Fatal(err)
	}
	set.Abort()
	names, _ := fs.List()
	if len(names) != 0 {
		t.Fatalf("abort left files: %v", names)
	}
}

// TestFailedBuilderLeavesNoFile: a run's first record creates its file
// before it constructs the page writer, so a writer that cannot be
// constructed leaves a file that the failed set must take with it.
// btree.FileWriter.Section does no I/O — it fails on what it is asked to
// write, not on the device — and the one such failure Open does not already
// refuse is a record too wide for a page.
func TestFailedBuilderLeavesNoFile(t *testing.T) {
	fs := storage.NewMemFS()
	db, err := Open(fs, Options{Tables: []TableSpec{{Name: "wide", RecordSize: btree.MaxRecordSize + 8}}})
	if err != nil {
		t.Fatal(err)
	}
	set := db.NewFileSet(0, 1, storage.SrcCheckpoint, "wide")
	err = set.Run("wide", 0, 1).Add(make([]byte, btree.MaxRecordSize+8))
	if err == nil {
		t.Fatal("builder for an oversize record succeeded")
	}
	if err := set.Done("wide", err); err == nil {
		t.Fatal("Done of a failed stream succeeded")
	}
	if _, err := set.Finish(); err == nil {
		t.Fatal("Finish of a failed set succeeded")
	}
	names, _ := fs.List()
	if len(names) != 0 {
		t.Fatalf("failed builder left files: %v", names)
	}
}

func TestOpenValidation(t *testing.T) {
	fs := storage.NewMemFS()
	if _, err := Open(fs, Options{}); err == nil {
		t.Fatal("Open with no tables succeeded")
	}
	if _, err := Open(fs, Options{
		Tables:     []TableSpec{{Name: "t", RecordSize: 16}},
		Partitions: 2,
	}); err == nil {
		t.Fatal("Open with partitions but no span succeeded")
	}
	if _, err := Open(fs, Options{
		Tables: []TableSpec{{Name: "t", RecordSize: 4}},
	}); err == nil {
		t.Fatal("Open with tiny record size succeeded")
	}
	if _, err := Open(fs, Options{
		Tables: []TableSpec{{Name: "t", RecordSize: 16}, {Name: "t", RecordSize: 16}},
	}); err == nil {
		t.Fatal("Open with duplicate tables succeeded")
	}
	// A delta table's records are a multiple of 8 bytes and at most eight
	// columns; raw runs take any width.
	for _, size := range []int{20, 72} {
		if _, err := Open(fs, Options{
			Tables:    []TableSpec{{Name: "t", RecordSize: size}},
			RunFormat: btree.FormatDelta,
		}); err == nil || !strings.Contains(err.Error(), "incompatible with delta") {
			t.Fatalf("Open with %d-byte delta records: %v", size, err)
		}
	}
	if db, err := Open(storage.NewMemFS(), Options{Tables: []TableSpec{{Name: "t", RecordSize: 72}}}); err != nil {
		t.Fatalf("Open with 72-byte raw records: %v", err)
	} else {
		db.Close()
	}
	// Run format 3 is still read, never written.
	if _, err := Open(fs, Options{
		Tables:    []TableSpec{{Name: "t", RecordSize: 16}},
		RunFormat: btree.Format(3),
	}); err == nil || !strings.Contains(err.Error(), "cannot be written") {
		t.Fatalf("Open writing run format 3: %v", err)
	}
}

func TestReopenWithDifferentPartitionsFails(t *testing.T) {
	fs := storage.NewMemFS()
	db := openTestDB(t, fs, 2)
	flushRecords(t, db, "from", 1, [][]byte{rec16(1, 1)})
	_, err := Open(fs, Options{
		Tables:        []TableSpec{{Name: "from", RecordSize: testRecSize}, {Name: "to", RecordSize: testRecSize}},
		Partitions:    3,
		PartitionSpan: 1000,
	})
	if err == nil {
		t.Fatal("partition count mismatch accepted")
	}
}

func TestMergeIterRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		// Build several sorted slices with overlaps and duplicates.
		all := map[string]bool{}
		var iters []RecIter
		for s := 0; s < 1+rng.Intn(5); s++ {
			var recs [][]byte
			for i := 0; i < rng.Intn(50); i++ {
				r := rec16(uint64(rng.Intn(20)), uint64(rng.Intn(10)))
				recs = append(recs, r)
			}
			sort.Slice(recs, func(i, j int) bool { return string(recs[i]) < string(recs[j]) })
			// Dedupe within a slice (sources are individually duplicate-free).
			var ded [][]byte
			for i, r := range recs {
				if i > 0 && string(r) == string(recs[i-1]) {
					continue
				}
				ded = append(ded, r)
				all[string(r)] = true
			}
			iters = append(iters, NewSliceIter(ded))
		}
		m, err := NewMergeIter(iters...)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for {
			rec, ok, err := m.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, string(rec))
		}
		want := make([]string, 0, len(all))
		for r := range all {
			want = append(want, r)
		}
		sort.Strings(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d: merged %d records, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: record %d mismatch", trial, i)
			}
		}
	}
}

func TestSizeBytesTracksRuns(t *testing.T) {
	fs := storage.NewMemFS()
	db := openTestDB(t, fs, 1)
	if db.SizeBytes() != 0 {
		t.Fatalf("empty DB SizeBytes = %d", db.SizeBytes())
	}
	flushRecords(t, db, "from", 1, [][]byte{rec16(1, 1)})
	if db.SizeBytes() == 0 {
		t.Fatal("SizeBytes = 0 after flush")
	}
	if db.RunCount() != 1 {
		t.Fatalf("RunCount = %d", db.RunCount())
	}
	if db.Table("from").TotalRecords() != 1 {
		t.Fatalf("TotalRecords = %d", db.Table("from").TotalRecords())
	}
}

func TestManyCPsRunAccumulation(t *testing.T) {
	fs := storage.NewMemFS()
	db := openTestDB(t, fs, 1)
	const cps = 50
	for cp := uint64(1); cp <= cps; cp++ {
		flushRecords(t, db, "from", cp, [][]byte{rec16(cp%7, cp)})
	}
	if got := len(db.Table("from").Runs(0)); got != cps {
		t.Fatalf("accumulated %d runs, want %d", got, cps)
	}
	// All records for block 3 are found across the runs.
	var want int
	for cp := uint64(1); cp <= cps; cp++ {
		if cp%7 == 3 {
			want++
		}
	}
	if got := collect(t, db.Table("from"), 3); len(got) != want {
		t.Fatalf("block 3: %d records, want %d", len(got), want)
	}
}

func TestMergeScanDoesNotFillCache(t *testing.T) {
	// A full merge scan is served pages the cache holds but inserts none
	// it misses, so it cannot push a query's working set out.
	fs := storage.NewMemFS()
	db, err := Open(fs, Options{
		Tables:    []TableSpec{{Name: "from", RecordSize: testRecSize}},
		Cache:     btree.NewCacheBytes(8 * storage.PageSize),
		RunFormat: btree.FormatDelta,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two runs of several leaves each, far more pages than the cache holds.
	for cp := uint64(1); cp <= 2; cp++ {
		recs := make([][]byte, 20000)
		for i := range recs {
			recs[i] = rec16(uint64(i), cp<<32|uint64(i*7))
		}
		flushRecords(t, db, "from", cp, recs)
	}
	tbl := db.Table("from")
	const hot = 12345
	if got := len(collect(t, tbl, hot)); got != 2 {
		t.Fatalf("block %d has %d records, want 2", hot, got)
	}
	resident := db.cache.Len()
	if resident == 0 {
		t.Fatal("query cached nothing")
	}

	n := 0
	scanTable(t, tbl, func([]byte) { n++ })
	if n != 40000 {
		t.Fatalf("merge scan yielded %d records, want 40000", n)
	}
	if got := db.cache.Len(); got != resident {
		t.Fatalf("merge scan changed cache residency: %d -> %d pages", resident, got)
	}
	before := fs.Stats()
	collect(t, tbl, hot)
	if d := fs.Stats().Sub(before); d.PageReads != 0 {
		t.Fatalf("hot block read %d pages after the merge scan, want 0", d.PageReads)
	}
}

var _ = fmt.Sprintf // keep fmt for debugging helpers

// TestRunsWriteTheFilterGoldens: a raw run carries, byte for byte, the
// BLF1 filters internal/bloom/testdata pins, and a delta run the BLF2 ones,
// built over the same keys (bloom's goldenKeys), each block in perKey
// records.
func TestRunsWriteTheFilterGoldens(t *testing.T) {
	for encoding, format := range map[string]btree.Format{"blf1": btree.FormatRaw, "blf2": btree.FormatDelta} {
		for _, g := range []struct{ keys, perKey int }{{1, 3}, {300, 4}, {5000, 2}} {
			want, err := os.ReadFile(filepath.Join("..", "bloom", "testdata", fmt.Sprintf("%s-%dkeys.filter", encoding, g.keys)))
			if err != nil {
				t.Fatal(err)
			}
			var recs [][]byte
			for i := range g.keys {
				for j := range g.perKey {
					recs = append(recs, rec16(uint64(i)*17+uint64(i*i)%11, uint64(j)))
				}
			}
			db, err := Open(storage.NewMemFS(), Options{Tables: []TableSpec{{Name: "from", RecordSize: testRecSize}}, RunFormat: format})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.NewEdit().SetCP(1).AddRun(buildRun(t, db, "from", 0, 1, storage.SrcCheckpoint, recs...)).Commit(); err != nil {
				t.Fatal(err)
			}
			got, err := db.Table("from").Runs(0)[0].qreader.BloomBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s, %d keys: the run's filter is %d bytes, the golden %d, or they differ", encoding, g.keys, len(got), len(want))
			}
			db.Close()
		}
	}
}

// TestFilterPastItsCap: a run with more distinct blocks than its table's
// BloomMaxBytes gets a filter of the cap, which the builder fills as the
// keys come once they pass it, and which holds every block, in either
// format.
func TestFilterPastItsCap(t *testing.T) {
	for _, format := range []btree.Format{btree.FormatRaw, btree.FormatDelta} {
		const limit = 100
		db, err := Open(storage.NewMemFS(), Options{Tables: []TableSpec{{Name: "from", RecordSize: testRecSize, BloomMaxBytes: limit}}, RunFormat: format})
		if err != nil {
			t.Fatal(err)
		}
		var recs [][]byte
		for b := uint64(0); b < 4*limit; b += 3 {
			recs = append(recs, rec16(b, 1), rec16(b, 2))
		}
		if err := db.NewEdit().SetCP(1).AddRun(buildRun(t, db, "from", 0, 1, storage.SrcCheckpoint, recs...)).Commit(); err != nil {
			t.Fatal(err)
		}
		run := db.Table("from").Runs(0)[0]
		f := run.bloomFilter()
		if f == nil {
			t.Fatalf("format %d: no filter", format)
		}
		// A raw run's BLF1 is the power of two at or above the cap.
		if want := map[btree.Format]int{btree.FormatRaw: 128, btree.FormatDelta: limit}[format]; f.SizeBytes() != want {
			t.Fatalf("format %d: a filter of %d bytes for %d blocks under a cap of %d, want %d", format, f.SizeBytes(), len(recs)/2, limit, want)
		}
		if f.Added() != uint64(len(recs)/2) {
			t.Fatalf("format %d: the filter holds %d of the run's %d blocks", format, f.Added(), len(recs)/2)
		}
		for b := uint64(0); b < 4*limit; b += 3 {
			if !run.MayContainBlock(b) {
				t.Fatalf("format %d: block %d ruled out", format, b)
			}
		}
		db.Close()
	}
}
