package lsm

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/backlogfs/backlog/internal/storage"
)

// inMemoryFixture checkpoints three "from" runs, blocks 1 to 3, and
// persists a vector hiding block 2's record at CP 4.
func inMemoryFixture(t *testing.T) (*storage.MemFS, *DB) {
	t.Helper()
	fs := storage.NewMemFS()
	db := openTestDB(t, fs, 1)
	for cp := uint64(1); cp <= 3; cp++ {
		flushRecords(t, db, "from", cp, [][]byte{rec16(cp, cp*10)})
	}
	db.Table("from").DeleteRecord(rec16(2, 20))
	if err := db.NewEdit().SetCP(4).Commit(); err != nil {
		t.Fatal(err)
	}
	return fs, db
}

// mergeEdit merges every "from" run into one level-1 run, as a merge
// does: the hidden record is not carried, and the edit drops the inputs.
func mergeEdit(t *testing.T, db *DB) *Edit {
	t.Helper()
	tbl := db.Table("from")
	var recs [][]byte
	scanTable(t, tbl, func(rec []byte) { recs = append(recs, slices.Clone(rec)) })
	edit := db.NewEdit().SetSource(storage.SrcCompaction).
		AddRun(buildRun(t, db, "from", 1, db.CP(), storage.SrcCompaction, recs...))
	for _, r := range tbl.Runs(0) {
		edit.DropRun("from", r.Name())
	}
	return edit
}

// TestInstallInMemoryRidesTheNextCommit: a prepared edit swaps the live
// runs and collects the vector entry its drops uncover, writing nothing;
// the manifest, the inputs' files and the vector file stay as they were,
// so a crash reopens the pre-merge store. The next commit, an empty edit,
// writes the merged runs and the collected vector, and frees the inputs'
// files. An edit that sets the CP cannot be installed in memory.
func TestInstallInMemoryRidesTheNextCommit(t *testing.T) {
	fs, db := inMemoryFixture(t)
	inputs, manifestBefore := db.Files(), manifestBody(t, fs)

	bad := mergeEdit(t, db).SetCP(5)
	if err := bad.Prepare(); err == nil {
		t.Fatal("an edit that sets the CP was prepared for an install in memory")
	}
	if got := len(listFiles(t, fs)); got != len(inputs) {
		t.Fatalf("the refused edit left its run behind: %v", listFiles(t, fs))
	}

	edit := mergeEdit(t, db)
	if err := edit.Prepare(); err != nil {
		t.Fatal(err)
	}
	edit.Install()()
	tbl := db.Table("from")
	if !db.Ahead() || len(tbl.Runs(0)) != 1 || tbl.DVLen() != 0 || tbl.DVDirty() || edit.CollectedDVEntries() != 1 {
		t.Fatalf("after the install: ahead=%v, %d runs, %d vector entries, dirty=%v, %d collected",
			db.Ahead(), len(tbl.Runs(0)), tbl.DVLen(), tbl.DVDirty(), edit.CollectedDVEntries())
	}
	if got := db.Files(); !reflect.DeepEqual(got, inputs) {
		t.Fatalf("the manifest names %v after an install in memory, before %v", got, inputs)
	}
	if !bytes.Equal(manifestBody(t, fs), manifestBefore) {
		t.Fatal("an install in memory rewrote the manifest")
	}
	onDisk := listFiles(t, fs)
	for _, name := range inputs {
		if !onDisk[name] {
			t.Fatalf("%s left the disk before a manifest that does not name it: %v", name, onDisk)
		}
	}
	for _, blk := range []uint64{1, 3} {
		if got := collect(t, tbl, blk); len(got) != 1 {
			t.Fatalf("block %d after the install: %d records", blk, len(got))
		}
	}

	// The power fails: the manifest's store comes back.
	crashed := storage.NewMemFS()
	for name := range listFiles(t, fs) {
		plant(t, crashed, name, readFile(t, fs, name))
	}
	db2 := openTestDB(t, crashed, 1)
	if got := db2.Files(); !reflect.DeepEqual(got, inputs) || len(db2.Table("from").Runs(0)) != 3 || db2.Table("from").DVLen() != 1 {
		t.Fatalf("the crashed store reopened with %v, %d runs, %d vector entries", got, len(db2.Table("from").Runs(0)), db2.Table("from").DVLen())
	}
	if got := len(listFiles(t, crashed)); got != len(inputs) {
		t.Fatalf("Open left the merge's output behind: %v", listFiles(t, crashed))
	}
	db2.Close()

	// The next commit writes what the install swapped in.
	if err := db.NewEdit().Commit(); err != nil {
		t.Fatal(err)
	}
	files := db.Files() // the commit file and the merged run's
	if db.Ahead() || len(files) != 2 || dvFiles(t, fs) != 0 {
		t.Fatalf("after the commit: ahead=%v, the commit needs %v, %d vector files", db.Ahead(), files, dvFiles(t, fs))
	}
	if onDisk := listFiles(t, fs); len(onDisk) != 2 || !onDisk[files[0]] || !onDisk[files[1]] {
		t.Fatalf("after the commit the directory holds %v", onDisk)
	}
	db.Close()
	db3 := openTestDB(t, fs, 1)
	defer db3.Close()
	if n := len(db3.Table("from").Runs(0)); n != 1 || db3.Table("from").DVLen() != 0 {
		t.Fatalf("reopened with %d runs and %d vector entries", n, db3.Table("from").DVLen())
	}
	for blk, want := range map[uint64]int{1: 1, 2: 0, 3: 1} {
		if got := collect(t, db3.Table("from"), blk); len(got) != want {
			t.Fatalf("block %d reopened with %d records, want %d", blk, len(got), want)
		}
	}
}

// TestUnsyncedCommitInstalls: a commit whose directory sync fails after its
// commit file's sync reports ErrUnsynced and has committed: Commit installs
// it, removes none of the files the previous commit needed, and a reopen
// finds the store the new manifest describes.
func TestUnsyncedCommitInstalls(t *testing.T) {
	fs, db := inMemoryFixture(t)
	inputs := db.Files()
	fs.SetFailurePlan(storage.FailurePlan{Hook: func(c storage.Call) error {
		if c.Op == storage.OpSyncDir {
			return storage.ErrInjected
		}
		return nil
	}})
	if err := mergeEdit(t, db).Commit(); !errors.Is(err, ErrUnsynced) || !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("Commit: got %v, want the injected directory-sync failure", err)
	}
	fs.SetFailurePlan(storage.FailurePlan{})
	files := db.Files()
	if len(files) != 2 || len(db.Table("from").Runs(0)) != 1 {
		t.Fatalf("after the unsynced commit the manifest names %v", files)
	}
	onDisk := listFiles(t, fs)
	for _, name := range append(inputs, files...) {
		if !onDisk[name] {
			t.Fatalf("%s is not on disk after the unsynced commit: %v", name, onDisk)
		}
	}
	db.Close()
	fs.Crash()
	db2 := openTestDB(t, fs, 1)
	defer db2.Close()
	if got := db2.Files(); !reflect.DeepEqual(got, files) {
		t.Fatalf("reopened naming %v, want %v", got, files)
	}
	for blk, want := range map[uint64]int{1: 1, 2: 0, 3: 1} {
		if got := collect(t, db2.Table("from"), blk); len(got) != want {
			t.Fatalf("block %d reopened with %d records, want %d", blk, len(got), want)
		}
	}
}

// TestInstallInMemoryUnderAView: the inputs a view pins when an install in
// memory drops them are held by the manifest's pin, not deferred; the
// commit that drops them from the manifest defers them behind the view,
// whose release removes them.
func TestInstallInMemoryUnderAView(t *testing.T) {
	fs, db := inMemoryFixture(t)
	inputs := db.Table("from").Runs(0)
	v := db.AcquireView()
	edit := mergeEdit(t, db)
	if err := edit.Prepare(); err != nil {
		t.Fatal(err)
	}
	edit.Install()()
	if n := db.DeferredFiles(); n != 0 {
		t.Fatalf("%d files deferred while the manifest names them", n)
	}
	if err := db.NewEdit().Commit(); err != nil {
		t.Fatal(err)
	}
	if n := db.DeferredFiles(); n != len(inputs) {
		t.Fatalf("%d files deferred behind the view, want %d", n, len(inputs))
	}
	if got := viewCollect(t, v, "from", 1); len(got) != 1 {
		t.Fatalf("the view lost its input: %d records", len(got))
	}
	v.Release()
	onDisk := listFiles(t, fs)
	for _, r := range inputs {
		if onDisk[r.Name()] {
			t.Fatalf("%s outlived the view: %v", r.Name(), onDisk)
		}
	}
	if n := db.DeferredFiles(); n != 0 {
		t.Fatalf("%d files still deferred", n)
	}
}

// TestCommitKeepsADirtyVectorsFile: after an install in memory collected
// an entry, a relocation dirties the vector; a commit that does not
// advance the CP writes the merged runs with the vector file the manifest
// names, and the next CP-advancing one persists the live vector.
func TestCommitKeepsADirtyVectorsFile(t *testing.T) {
	fs, db := inMemoryFixture(t)
	dvBefore := db.m.Tables["from"].DVFile
	edit := mergeEdit(t, db)
	if err := edit.Prepare(); err != nil {
		t.Fatal(err)
	}
	edit.Install()()
	tbl := db.Table("from")
	tbl.DeleteRecord(rec16(3, 30))
	if err := db.NewEdit().Commit(); err != nil {
		t.Fatal(err)
	}
	if got := db.m.Tables["from"]; got.DVFile != dvBefore || got.DVCount != 1 || !tbl.DVDirty() {
		t.Fatalf("the commit named vector %s of %d records (dirty=%v), want %s of 1, still dirty", got.DVFile, got.DVCount, tbl.DVDirty(), dvBefore)
	}
	if err := db.NewEdit().SetCP(5).Commit(); err != nil {
		t.Fatal(err)
	}
	if got := db.m.Tables["from"]; got.DVFile == dvBefore || got.DVCount != 1 || tbl.DVDirty() {
		t.Fatalf("the CP-advancing commit named vector %s of %d records (dirty=%v)", got.DVFile, got.DVCount, tbl.DVDirty())
	}
	if listFiles(t, fs)[dvBefore] {
		t.Fatalf("the replaced vector file %s stayed", dvBefore)
	}
	db.Close()
	db2 := openTestDB(t, fs, 1)
	defer db2.Close()
	for blk, want := range map[uint64]int{1: 1, 2: 0, 3: 0} {
		if got := collect(t, db2.Table("from"), blk); len(got) != want {
			t.Fatalf("block %d reopened with %d records, want %d", blk, len(got), want)
		}
	}
}

// TestInstallInMemoryDropsUnreadPages: the pages of the runs an install in
// memory drops leave the cache once only the manifest's pin holds them: at
// the install, or when the view that still reads them is released.
func TestInstallInMemoryDropsUnreadPages(t *testing.T) {
	for _, pinned := range []bool{false, true} {
		_, db := inMemoryFixture(t)
		if db.cache.SizeBytes() == 0 {
			t.Fatal("the checkpoints wrote no page through to the cache")
		}
		var v *View
		if pinned {
			v = db.AcquireView()
		}
		warm := db.cache.SizeBytes()
		edit := mergeEdit(t, db)
		if err := edit.Prepare(); err != nil {
			t.Fatal(err)
		}
		edit.Install()()
		got := db.cache.SizeBytes()
		if !pinned {
			if got != 0 {
				t.Fatalf("%d bytes cached for runs nothing reads", got)
			}
			continue
		}
		if got != warm {
			t.Fatalf("%d bytes cached while a view reads the inputs, %d before", got, warm)
		}
		v.Release()
		if got := db.cache.SizeBytes(); got != 0 {
			t.Fatalf("%d bytes cached for runs nothing reads after the view's release", got)
		}
	}
}

// TestCommitRidesTheNewestEntry: a checkpoint's commit rides its run file
// only when that file is the newest entry the commit makes. One that also
// writes a deletion vector, created after the run file, writes its trailer
// to a commit file made after both, so that a crash keeping a prefix of the
// directory's entries keeps the carrier only with every file it names: the
// run file is synced without a trailer, and every prefix reopens the new
// commit or the one before.
func TestCommitRidesTheNewestEntry(t *testing.T) {
	for kept := range 4 {
		fs := storage.NewMemFS()
		db := openTestDB(t, fs, 1)
		flushRecords(t, db, "from", 1, [][]byte{rec16(1, 10), rec16(2, 20)})
		if !strings.HasPrefix(db.commit, "from.") {
			t.Fatalf("a checkpoint with no vector to write committed in %s, want its run file", db.commit)
		}
		db.Table("from").DeleteRecord(rec16(2, 20))
		// The commit's directory sync fails, so the crash may keep any
		// prefix of its entries: the run file, the vector file, the commit
		// file.
		fs.SetFailurePlan(storage.FailurePlan{Hook: func(c storage.Call) error {
			if c.Op == storage.OpSyncDir {
				return storage.ErrInjected
			}
			return nil
		}})
		ref := buildRun(t, db, "from", 0, 2, storage.SrcCheckpoint, rec16(3, 30))
		if err := db.NewEdit().SetCP(2).AddRun(ref).Commit(); !errors.Is(err, ErrUnsynced) {
			t.Fatalf("Commit = %v, want the injected directory-sync failure", err)
		}
		fs.SetFailurePlan(storage.FailurePlan{})
		if !strings.HasPrefix(db.commit, commitPrefix) || db.m.Tables["from"].DVFile == "" {
			t.Fatalf("a checkpoint that persisted a vector committed in %s, want a commit file", db.commit)
		}
		if _, err := db.readCommit(ref.file.name); !errors.Is(err, errTorn) {
			t.Fatalf("the run file %s carries a commit (%v)", ref.file.name, err)
		}
		db.Close()
		fs.Crash(storage.CrashState{Directory: true, Entries: kept})
		db, err := Open(fs, Options{Tables: []TableSpec{{Name: "from", RecordSize: testRecSize}, {Name: "to", RecordSize: testRecSize}}, Partitions: 1})
		if err != nil {
			t.Fatalf("%d of the commit's 3 entries kept: %v", kept, err)
		}
		if cp := db.CP(); cp != 1 && cp != 2 || (cp == 2) != (kept == 3) {
			t.Fatalf("%d of the commit's 3 entries kept: reopened at CP %d", kept, cp)
		}
		db.Close()
	}
}
