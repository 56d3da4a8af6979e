package lsm

import (
	"bytes"
	"encoding/binary"
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

// manifestBody returns the body of the newest commit's manifest, whatever
// file carries it.
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

// sealVersion is a commit file whose envelope names version v and holds
// body.
func sealVersion(v int, body []byte) []byte {
	commit := sealTrailer(body, btree.Layout{})
	env := commit[:len(commit)-trailerFooterLen]
	binary.LittleEndian.PutUint32(env[8:], uint32(v))
	binary.LittleEndian.PutUint32(env[16:], manifestCRC(env))
	return commit
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
// commit's envelope can name, this binary writes version 5 and reads it,
// reads version 4 one back — the v4 goldens of goldenStoreV4, and
// internal/core/testdata/v4commit-store, which a binary of 19dfafc wrote —
// and refuses every other by name: 3 and below as versions it does not
// read (3 was bare JSON in the legacy MANIFEST, which is refused by name
// too: TestManifestV3BytesPinned), 6 and above as newer than this binary
// (btree.ErrNewerFormat). A version-4 body whose version field is missing,
// or whose run ends before the block it starts at, which version 5 cannot
// hold, is ErrCorrupt; so is one whose deletion vector's count is below
// zero or counts records in no file, which the next commit would carry
// into a version-5 body its reader refuses. A store read in either version commits version 5 next,
// and reopens from it the same. A refused Open changes nothing on disk.
func TestManifestV1Compat(t *testing.T) {
	v4 := testdata(t, "commit-headers")
	v4Body := v4[manifestEnvLen : len(v4)-trailerFooterLen]
	combined := []byte(`"combined":{`)
	if bytes.Contains(v4Body, []byte(`"dv_file":"dv.combined`)) {
		t.Fatalf("the v4 golden's Combined table has a deletion vector:\n%s", v4Body)
	}
	for _, tc := range []struct {
		name    string
		version int
		body    []byte // nil: the store's own, version 5
		want    string // "" for a version read
	}{
		{"v0", 0, nil, "carries version 0, which this binary does not read (it reads versions 4 to 5)"},
		{"v1", 1, nil, "carries version 1, which this binary does not read"},
		{"v2", 2, nil, "carries version 2, which this binary does not read"},
		{"v3", 3, nil, "carries version 3, which this binary does not read"},
		{"v4", manifestVersionJSON, v4Body, ""},
		{"v5", manifestVersion, nil, ""},
		{"v6", 6, nil, "carries version 6: format newer than this binary (this binary reads versions 4 to 5)"},
		{"v8", 8, nil, "carries version 8: format newer than this binary"},
		{"missing", manifestVersionJSON, bytes.Replace(v4Body, []byte(`"version":4,`), nil, 1), "version 0 in a version-4 envelope"},
		{"inverted", manifestVersionJSON, bytes.Replace(v4Body, []byte(`"min_block":1,"max_block":3`), []byte(`"min_block":3,"max_block":1`), 1), "spans blocks 3 to 1"},
		{"dv-negative", manifestVersionJSON, bytes.Replace(v4Body, combined, []byte(`"combined":{"dv_count":-1,`), 1), "counts -1 deletion vector records"},
		{"dv-without-file", manifestVersionJSON, bytes.Replace(v4Body, combined, []byte(`"combined":{"dv_count":2,`), 1), `counts 2 deletion vector records in file ""`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := storage.NewMemFS()
			db := goldenStoreV4(t, fs, nil)
			want := storeState(t, db)
			db.Close()
			body := tc.body
			if body == nil {
				body = manifestBody(t, fs)
			}
			plant(t, fs, newestCommit, sealVersion(tc.version, body))
			if tc.want == "" {
				readsThenWrites(t, fs, goldenOptions(nil), tc.version, func(db *DB) string { return storeState(t, db) }, want)
				return
			}
			before := snapshotFiles(t, fs)
			db, err := Open(fs, goldenOptions(nil))
			if err == nil {
				db.Close()
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) || errors.Is(err, ErrCorrupt) != (tc.version == manifestVersionJSON) ||
				errors.Is(err, btree.ErrNewerFormat) != (tc.version > manifestVersion) {
				t.Fatalf("Open = %v, want an error naming %q", err, tc.want)
			}
			if !maps.Equal(snapshotFiles(t, fs), before) {
				t.Fatal("a refused Open changed the directory")
			}
		})
	}
	t.Run("v4commit-store", func(t *testing.T) {
		fs := coreStore(t, "v4commit-store")
		readsThenWrites(t, fs, coreOptions(), manifestVersionJSON, func(db *DB) string { return strings.Join(coreAnswers(t, db), "\n") }, "")
	})
}

// readsThenWrites opens fs, whose newest commit is of version v, twice: the
// first Open reads that commit and commits version 5, which the second
// reads, each giving state — the first's, if want is "" — and neither
// changing a run file.
func readsThenWrites(t *testing.T, fs *storage.MemFS, opts Options, v int, state func(*DB) string, want string) {
	t.Helper()
	runs := func() map[string]string {
		files := snapshotFiles(t, fs)
		maps.DeleteFunc(files, func(name, _ string) bool { return !strings.HasSuffix(name, ".run") })
		return files
	}
	written := runs()
	for _, wantVersion := range []int{v, manifestVersion} {
		db, err := Open(fs, opts)
		if err != nil {
			t.Fatalf("Open of version %d: %v", wantVersion, err)
		}
		env, _ := trailer(t, fs, db.commit)
		if got, _, _ := unseal(env); got != wantVersion || db.m.Version != wantVersion {
			t.Fatalf("the store opened from version %d (%d in memory), want %d", got, db.m.Version, wantVersion)
		}
		got := state(db)
		if want == "" {
			want = got
		}
		if got != want || got == "" {
			t.Fatalf("the store opened from version %d reads\n%s\nwant\n%s", wantVersion, got, want)
		}
		if err := errors.Join(db.CheckHeaders(), db.CheckCommit(), db.NewEdit().Commit()); err != nil {
			t.Fatal(err)
		}
		db.Close()
	}
	if !maps.Equal(runs(), written) {
		t.Fatal("the run files changed")
	}
}

// TestManifestFutureVersionRejected: a manifest from a newer build must
// refuse to load rather than silently misinterpret it.
func TestManifestFutureVersionRejected(t *testing.T) {
	fs := storage.NewMemFS()
	db := openSpannedDB(t, fs)
	flushRecords(t, db, "combined", 5, [][]byte{rec16(1, 2)})
	plant(t, fs, newestCommit, sealVersion(manifestVersion+1, manifestBody(t, fs)))
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
