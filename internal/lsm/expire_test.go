package lsm

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"testing"

	"github.com/backlogfs/backlog/internal/btree"
	"github.com/backlogfs/backlog/internal/storage"
)

// spannedSpec is a test table whose records carry their CP in the payload
// field; payload 0 marks an override record.
func spannedSpec(name string) TableSpec {
	return TableSpec{
		Name:       name,
		RecordSize: testRecSize,
		Span: func(rec []byte) (uint64, uint64) {
			v := binary.BigEndian.Uint64(rec[8:])
			return v, v
		},
		IsOverride: func(rec []byte) bool {
			return binary.BigEndian.Uint64(rec[8:]) == 0
		},
	}
}

func openSpannedDB(t *testing.T, fs storage.VFS) *DB {
	t.Helper()
	db, err := Open(fs, Options{
		Tables:     []TableSpec{spannedSpec("combined")},
		Partitions: 1,
		Cache:      btree.NewCacheBytes(4096 * storage.PageSize),
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func onlyRun(t *testing.T, db *DB, table string) *Run {
	t.Helper()
	runs := db.Table(table).runs[0]
	if len(runs) != 1 {
		t.Fatalf("%s: %d runs, want 1", table, len(runs))
	}
	return runs[0]
}

// TestRunCPWindowRoundTrip checks that the window metadata a builder folds
// from the Span callback survives the manifest and a reopen.
func TestRunCPWindowRoundTrip(t *testing.T) {
	fs := storage.NewMemFS()
	db := openSpannedDB(t, fs)
	flushRecords(t, db, "combined", 9, [][]byte{rec16(1, 3), rec16(2, 7), rec16(3, 5)})

	check := func(db *DB, where string) {
		r := onlyRun(t, db, "combined")
		if !r.CPWindowKnown() {
			t.Fatalf("%s: window unknown", where)
		}
		if r.MinCP() != 3 || r.MaxCP() != 7 {
			t.Fatalf("%s: window [%d, %d], want [3, 7]", where, r.MinCP(), r.MaxCP())
		}
		if r.Overrides() != 0 {
			t.Fatalf("%s: overrides = %d, want 0", where, r.Overrides())
		}
		if !r.DroppableBelow(8) || r.DroppableBelow(7) {
			t.Fatalf("%s: DroppableBelow(8)=%v DroppableBelow(7)=%v, want true/false",
				where, r.DroppableBelow(8), r.DroppableBelow(7))
		}
	}
	check(db, "fresh")

	db2, err := Open(fs, Options{
		Tables:     []TableSpec{spannedSpec("combined")},
		Partitions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	check(db2, "reopened")
}

// TestOverridesPoisonDroppability: a run containing even one override
// record must never report itself droppable — dropping it would resurrect
// inheritance the file system explicitly terminated.
func TestOverridesPoisonDroppability(t *testing.T) {
	fs := storage.NewMemFS()
	db := openSpannedDB(t, fs)
	flushRecords(t, db, "combined", 9, [][]byte{rec16(1, 0), rec16(2, 4)})
	r := onlyRun(t, db, "combined")
	if r.Overrides() != 1 {
		t.Fatalf("overrides = %d, want 1", r.Overrides())
	}
	if r.DroppableBelow(^uint64(0)) {
		t.Fatal("run with an override reports droppable")
	}
}

// TestManifestV1Compat rewrites the manifest to version 1 (stripping the
// window fields) and reopens: legacy runs must load with the safe [0, CP]
// bound, report their window unknown, and never be droppable — their
// override count is unknowable.
func TestManifestV1Compat(t *testing.T) {
	fs := storage.NewMemFS()
	db := openSpannedDB(t, fs)
	flushRecords(t, db, "combined", 5, [][]byte{rec16(1, 2), rec16(2, 3)})

	// Downgrade the manifest on disk to version 1.
	f, err := fs.Open(manifestName)
	if err != nil {
		t.Fatal(err)
	}
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	f.Close()
	var m map[string]any
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	m["version"] = 1
	for _, tv := range m["tables"].(map[string]any) {
		for _, part := range tv.(map[string]any)["partitions"].([]any) {
			for _, rv := range part.([]any) {
				rm := rv.(map[string]any)
				delete(rm, "min_cp")
				delete(rm, "max_cp")
				delete(rm, "overrides")
				delete(rm, "cp_unknown")
			}
		}
	}
	down, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	nf, err := fs.Create(manifestName + ".down")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nf.WriteAt(down, 0); err != nil {
		t.Fatal(err)
	}
	if err := nf.Sync(); err != nil {
		t.Fatal(err)
	}
	nf.Close()
	if err := fs.Rename(manifestName+".down", manifestName); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(fs, Options{
		Tables:     []TableSpec{spannedSpec("combined")},
		Partitions: 1,
	})
	if err != nil {
		t.Fatalf("reopening v1 manifest: %v", err)
	}
	r := onlyRun(t, db2, "combined")
	if r.CPWindowKnown() {
		t.Fatal("legacy run claims a known CP window")
	}
	if r.MinCP() != 0 || r.MaxCP() != 5 {
		t.Fatalf("legacy window [%d, %d], want safe bound [0, 5]", r.MinCP(), r.MaxCP())
	}
	if r.DroppableBelow(^uint64(0)) {
		t.Fatal("legacy run reports droppable; its override count is unknowable")
	}
	// Records are still readable.
	if got := collect(t, db2.Table("combined"), 1); len(got) != 1 {
		t.Fatalf("block 1: %d records after v1 reopen, want 1", len(got))
	}

	// A fresh commit rewrites the manifest at the current version, so the
	// upgrade is one-way and idempotent.
	flushRecords(t, db2, "combined", 6, [][]byte{rec16(3, 6)})
	db3, err := Open(fs, Options{
		Tables:     []TableSpec{spannedSpec("combined")},
		Partitions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(db3.Table("combined").runs[0]); got != 2 {
		t.Fatalf("%d runs after upgrade round trip, want 2", got)
	}
}

// TestManifestFutureVersionRejected: a manifest from a newer build must
// refuse to load rather than silently misinterpret it.
func TestManifestFutureVersionRejected(t *testing.T) {
	fs := storage.NewMemFS()
	db := openSpannedDB(t, fs)
	flushRecords(t, db, "combined", 5, [][]byte{rec16(1, 2)})
	f, err := fs.Open(manifestName)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := f.Size()
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	f.Close()
	var m map[string]any
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	m["version"] = manifestVersion + 1
	up, _ := json.Marshal(m)
	nf, _ := fs.Create(manifestName + ".up")
	nf.WriteAt(up, 0)
	nf.Sync()
	nf.Close()
	if err := fs.Rename(manifestName+".up", manifestName); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(fs, Options{
		Tables:     []TableSpec{spannedSpec("combined")},
		Partitions: 1,
	}); err == nil {
		t.Fatal("future-version manifest loaded without error")
	}
}

// TestDropRunsBelow covers the manifest-only drop path: only runs whose
// window clears the horizon go, no record is read, deletion-vector
// entries covered by no surviving run are collected in the same commit,
// and a pinned view defers the file deletion.
func TestDropRunsBelow(t *testing.T) {
	fs := storage.NewMemFS()
	db := openSpannedDB(t, fs)
	flushRecords(t, db, "combined", 3, [][]byte{rec16(1, 2), rec16(2, 3)})   // window [2, 3]
	flushRecords(t, db, "combined", 6, [][]byte{rec16(10, 5), rec16(11, 6)}) // window [5, 6]
	tbl := db.Table("combined")

	// DV entries: one whose block lives only in the droppable run, one in
	// the surviving run.
	tbl.DeleteRecord(rec16(1, 2))
	tbl.DeleteRecord(rec16(10, 5))
	edit := db.NewEdit()
	edit.FlushDV("combined")
	if err := edit.Commit(); err != nil {
		t.Fatal(err)
	}

	// Pin a view across the drop: the dropped run's file must survive
	// until the view is released.
	v := db.AcquireView()
	doomedName := tbl.runs[0][0].Name()

	exists := func(name string) bool {
		names, err := fs.List()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			if n == name {
				return true
			}
		}
		return false
	}

	before := fs.Stats()
	edit = db.NewEdit()
	runs, recs := edit.DropRunsBelow("combined", 5)
	if runs != 1 || recs != 2 {
		t.Fatalf("DropRunsBelow(5) = (%d runs, %d records), want (1, 2)", runs, recs)
	}
	if err := edit.Commit(); err != nil {
		t.Fatal(err)
	}
	delta := fs.Stats().Sub(before)
	if delta.BytesRead != 0 {
		t.Fatalf("drop read %d bytes; expiry must not read run data", delta.BytesRead)
	}
	if edit.CollectedDVEntries() != 1 {
		t.Fatalf("CollectedDVEntries = %d, want 1 (the dropped run's entry)", edit.CollectedDVEntries())
	}
	if !exists(doomedName) {
		t.Fatal("run file removed while a view still pins it")
	}

	// The pinned view still reads the dropped run; fresh state does not.
	var pinned int
	if err := v.CollectBlock("combined", 2, func([]byte) bool { pinned++; return true }); err != nil {
		t.Fatal(err)
	}
	if pinned != 1 {
		t.Fatalf("pinned view sees %d records for block 2, want 1", pinned)
	}
	if got := collect(t, tbl, 2); len(got) != 0 {
		t.Fatalf("live table still returns %d records for dropped block 2", len(got))
	}
	// The kept DV entry still masks the surviving run's record.
	if got := collect(t, tbl, 10); len(got) != 0 {
		t.Fatalf("deletion-vector entry for surviving run lost: %d records", len(got))
	}
	if got := collect(t, tbl, 11); len(got) != 1 {
		t.Fatalf("surviving run unreadable: %d records for block 11", len(got))
	}

	v.Release()
	if exists(doomedName) {
		t.Fatal("dropped run file survived the last view release")
	}

	// Horizon below every window: nothing drops.
	edit = db.NewEdit()
	if runs, _ := edit.DropRunsBelow("combined", 2); runs != 0 {
		t.Fatalf("DropRunsBelow(2) dropped %d runs, want 0", runs)
	}
}
