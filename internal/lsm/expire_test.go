package lsm

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"strings"
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

// commitFile returns the file that carries the store's newest commit.
func commitFile(t testing.TB, fs *storage.MemFS) string {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	_, name, err := (&DB{vfs: fs}).findCommit(names)
	if err != nil || name == "" {
		t.Fatalf("no commit among %v: %v", names, err)
	}
	return name
}

// trailer returns the envelope and the footer of the trailer name carries.
func trailer(t testing.TB, fs *storage.MemFS, name string) (env, footer []byte) {
	t.Helper()
	buf := readFile(t, fs, name)
	footer = buf[len(buf)-trailerFooterLen:]
	return buf[binary.LittleEndian.Uint64(footer[16:]) : len(buf)-trailerFooterLen], footer
}

// manifestBody returns the JSON body of the newest commit's manifest,
// whatever file carries it.
func manifestBody(t testing.TB, fs *storage.MemFS) []byte {
	t.Helper()
	env, _ := trailer(t, fs, commitFile(t, fs))
	return env[manifestEnvLen:]
}

// toLegacy makes the store what a binary before the commit trailer left:
// no file carries a commit — a commit file is removed, a run file rewritten
// without its trailer — and MANIFEST holds manifest.
func toLegacy(t testing.TB, fs *storage.MemFS, manifest []byte) {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if _, err := (&DB{vfs: fs}).readCommit(name); err != nil {
			continue
		}
		if !strings.HasSuffix(name, ".run") {
			if err := fs.Remove(name); err != nil {
				t.Fatal(err)
			}
			continue
		}
		env, footer := trailer(t, fs, name)
		buf := readFile(t, fs, name)
		plant(t, fs, name, buf[:len(buf)-len(env)-len(footer)])
	}
	plant(t, fs, legacyManifest, manifest)
}

// setManifestVersion plants, as the newest commit file, the manifest of
// fs's newest commit with version v in its envelope and its body, or with
// the body's version field removed when v < 0.
func setManifestVersion(t *testing.T, fs *storage.MemFS, v int) {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(manifestBody(t, fs), &m); err != nil {
		t.Fatal(err)
	}
	m["version"] = v
	if v < 0 {
		delete(m, "version")
	}
	buf, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	commit := sealTrailer(buf, btree.Layout{})
	if v >= 0 {
		env := commit[:len(commit)-trailerFooterLen]
		binary.LittleEndian.PutUint32(env[8:], uint32(v))
		binary.LittleEndian.PutUint32(env[16:], manifestCRC(env))
	}
	plant(t, fs, newestCommit, commit)
}

func readFile(t testing.TB, fs *storage.MemFS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return buf
}

// TestManifestV1Compat is the house rule for commits: of the versions a
// commit's envelope can name, this binary reads version 4 alone — the one
// before it, 3, was bare JSON in the legacy MANIFEST, which is refused by
// name (TestManifestV3BytesPinned) — and refuses every other by name, one
// above 4 as newer than this binary (btree.ErrNewerFormat). A body whose
// version field is missing, under a version-4 envelope, is ErrCorrupt. A
// refused Open changes nothing on disk.
func TestManifestV1Compat(t *testing.T) {
	for _, tc := range []struct {
		name    string
		version int    // -1: the body's field removed
		want    string // "" for the one version read
	}{
		{"v0", 0, "carries version 0, which this binary does not read"},
		{"v1", 1, "carries version 1, which this binary does not read"},
		{"v2", 2, "carries version 2, which this binary does not read"},
		{"v3", 3, "carries version 3, which this binary does not read"},
		{"v4", manifestVersion, ""},
		{"v5", 5, "carries version 5: format newer than this binary"},
		{"v8", 8, "carries version 8: format newer than this binary"},
		{"missing", -1, "version 0 in a version-4 envelope"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := storage.NewMemFS()
			db := openSpannedDB(t, fs)
			flushRecords(t, db, "combined", 5, [][]byte{rec16(1, 2), rec16(2, 3)})
			db.Close()
			setManifestVersion(t, fs, tc.version)
			before := snapshotFiles(t, fs)
			db, err := Open(fs, Options{Tables: []TableSpec{spannedSpec("combined")}, Partitions: 1})
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Open of version %d: %v", tc.version, err)
				}
				defer db.Close()
				if got := collect(t, db.Table("combined"), 1); len(got) != 1 {
					t.Fatalf("block 1: %d records, want 1", len(got))
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) || errors.Is(err, ErrCorrupt) != (tc.version < 0) ||
				errors.Is(err, btree.ErrNewerFormat) != (tc.version > manifestVersion) {
				t.Fatalf("Open = %v, want an error naming %q", err, tc.want)
			}
			if !maps.Equal(snapshotFiles(t, fs), before) {
				t.Fatal("a refused Open changed the directory")
			}
		})
	}
}

// TestManifestFutureVersionRejected: a manifest from a newer build must
// refuse to load rather than silently misinterpret it.
func TestManifestFutureVersionRejected(t *testing.T) {
	fs := storage.NewMemFS()
	db := openSpannedDB(t, fs)
	flushRecords(t, db, "combined", 5, [][]byte{rec16(1, 2)})
	setManifestVersion(t, fs, manifestVersion+1)
	if _, err := Open(fs, Options{
		Tables:     []TableSpec{spannedSpec("combined")},
		Partitions: 1,
	}); !errors.Is(err, btree.ErrNewerFormat) {
		t.Fatalf("future-version manifest: %v, want btree.ErrNewerFormat", err)
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
	edit := db.NewEdit().SetCP(7) // advancing the CP persists the dirty vector
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
