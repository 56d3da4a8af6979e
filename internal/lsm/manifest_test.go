package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/backlogfs/backlog/internal/storage"
)

// goldenSection is the section of testdata/v3-manifest-catalog.json.
const goldenSection = `{"lines":[{"id":0,"live":true,"snapshots":[2,4]}]}`

func goldenOptions(section func() ([]byte, error)) Options {
	return Options{
		Tables:        []TableSpec{{Name: "from", RecordSize: testRecSize}, spannedSpec("combined")},
		Partitions:    2,
		PartitionSpan: 1000,
		Section:       section,
	}
}

// goldenStore drives the commits whose last manifest the goldens pin: runs
// with and without a CP window, with overrides, in two partitions, and a
// persisted deletion vector.
func goldenStore(t testing.TB, fs storage.VFS, section func() ([]byte, error)) *DB {
	t.Helper()
	db, err := Open(fs, goldenOptions(section))
	if err != nil {
		t.Fatal(err)
	}
	flushRecords(t, db, "from", 1, [][]byte{rec16(1, 1), rec16(2, 1), rec16(1500, 1)})
	flushRecords(t, db, "combined", 2, [][]byte{rec16(1, 0), rec16(3, 2)})
	flushRecords(t, db, "combined", 4, [][]byte{rec16(5, 3), rec16(1700, 4)})
	db.Table("from").DeleteRecord(rec16(2, 1))
	if err := db.NewEdit().SetCP(5).Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

func testdata(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// plant makes name hold data, durably.
func plant(t testing.TB, fs *storage.MemFS, name string, data []byte) {
	t.Helper()
	if err := fs.Remove(name); err != nil && !errors.Is(err, storage.ErrNotExist) {
		t.Fatal(err)
	}
	if err := writeSynced(fs, name, data); err != nil {
		t.Fatal(err)
	}
}

// storeState is what a reopen must agree on.
func storeState(t *testing.T, db *DB) string {
	t.Helper()
	var b strings.Builder
	for _, ri := range db.RunInfos() {
		if !ri.CPWindowKnown {
			ri.MinCP, ri.MaxCP = 0, 0 // not stored
		}
		fmt.Fprintf(&b, "%+v\n", ri)
	}
	for _, table := range []string{"from", "combined"} {
		fmt.Fprintf(&b, "%s: %d hidden\n", table, db.Table(table).DVLen())
	}
	fmt.Fprintf(&b, "cp %d section %s", db.CP(), db.Section())
	return b.String()
}

// TestManifestV3BytesPinned: the encoder keeps producing the bytes of the
// two version-3 goldens — without a section the previous format's manifest
// but for the version digit, with one the same plus the section — and a
// store reopened from them agrees with the one that wrote them.
func TestManifestV3BytesPinned(t *testing.T) {
	v2 := testdata(t, "v2-manifest.json")
	for _, tc := range []struct {
		golden  string
		section func() ([]byte, error)
	}{
		{"v3-manifest.json", nil},
		{"v3-manifest-catalog.json", func() ([]byte, error) { return []byte(goldenSection), nil }},
	} {
		fs := storage.NewMemFS()
		db := goldenStore(t, fs, tc.section)
		want := testdata(t, tc.golden)
		if got := readFile(t, fs, manifestName); !bytes.Equal(got, want) {
			t.Fatalf("%s: the encoder wrote\n%s\nthe golden holds\n%s", tc.golden, got, want)
		}
		before := storeState(t, db)
		db.Close()
		db2, err := Open(fs, goldenOptions(tc.section))
		if err != nil {
			t.Fatalf("%s: reopening: %v", tc.golden, err)
		}
		if after := storeState(t, db2); after != before {
			t.Fatalf("%s: reopened store\n%s\nthe one that wrote it\n%s", tc.golden, after, before)
		}
		if tc.section == nil {
			if asV2 := bytes.Replace(want, []byte(`{"version":3,`), []byte(`{"version":2,`), 1); !bytes.Equal(asV2, v2) {
				t.Fatalf("a manifest without a section differs from the previous format's by more than the version:\n%s\n%s", want, v2)
			}
			if db2.Section() != nil {
				t.Fatalf("a store opened without a section has %q", db2.Section())
			}
		} else if string(db2.Section()) != goldenSection {
			t.Fatalf("section after the reopen: %q", db2.Section())
		}
		db2.Close()
	}
}

// TestManifestV2Upgrade opens the manifest the previous encoder wrote for
// the golden store, beside the file that format kept the section in: the
// file is honoured, the first commit writes version 3 with the section and
// the same runs, the file is gone, and a reopen agrees. Without a Section
// callback the file is nobody's and stays.
func TestManifestV2Upgrade(t *testing.T) {
	fs := storage.NewMemFS()
	goldenStore(t, fs, nil).Close()
	plant(t, fs, manifestName, testdata(t, "v2-manifest.json"))
	plant(t, fs, legacySectionName, []byte(goldenSection))
	plant(t, fs, legacySectionTmpName, []byte("torn"))

	db, err := Open(fs, goldenOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	if db.Section() != nil || !listFiles(t, fs)[legacySectionName] {
		t.Fatalf("without a Section callback: section %q, file kept: %v", db.Section(), listFiles(t, fs)[legacySectionName])
	}
	db.Close()

	// The callback is the engine's: it serializes what Open handed it.
	var loaded []byte
	section := func() ([]byte, error) { return loaded, nil }
	db, err = Open(fs, goldenOptions(section))
	if err != nil {
		t.Fatal(err)
	}
	if loaded = db.Section(); string(loaded) != goldenSection {
		t.Fatalf("section at Open: %q, want the old file's", loaded)
	}
	if listFiles(t, fs)[legacySectionTmpName] {
		t.Fatalf("%s survived Open", legacySectionTmpName)
	}
	if !listFiles(t, fs)[legacySectionName] {
		t.Fatalf("%s removed before a manifest held the section", legacySectionName)
	}
	before := storeState(t, db)
	if err := db.NewEdit().Commit(); err != nil {
		t.Fatal(err)
	}
	if got, want := readFile(t, fs, manifestName), testdata(t, "v3-manifest-catalog.json"); !bytes.Equal(got, want) {
		t.Fatalf("first commit over the version-2 store wrote\n%s\nwant the version-3 golden\n%s", got, want)
	}
	if listFiles(t, fs)[legacySectionName] {
		t.Fatalf("%s survived the commit that moved it into the manifest", legacySectionName)
	}
	db.Close()

	// A crash between that commit's rename and the removal leaves the file
	// behind; the manifest's section wins and Open collects the file.
	plant(t, fs, legacySectionName, []byte(`{"lines":[]}`))
	db, err = Open(fs, goldenOptions(section))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if after := storeState(t, db); after != before {
		t.Fatalf("reopened store\n%s\nbefore the upgrade\n%s", after, before)
	}
	if listFiles(t, fs)[legacySectionName] {
		t.Fatalf("%s survived an Open whose manifest holds the section", legacySectionName)
	}
}

// TestSectionCommitsWithTheEdit: the section callback is asked at every
// commit, what it returned last is what a reopen finds, and a commit it
// fails changes nothing and cleans up the runs the edit owned.
func TestSectionCommitsWithTheEdit(t *testing.T) {
	fs := storage.NewMemFS()
	var next string
	var fail error
	asked := 0
	opts := goldenOptions(func() ([]byte, error) {
		asked++
		if fail != nil {
			return nil, fail
		}
		return []byte(next), nil
	})
	db, err := Open(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	next = `{"n":1}`
	flushRecords(t, db, "from", 1, [][]byte{rec16(1, 1)})
	next = `{"n":2}`
	if err := db.NewEdit().Commit(); err != nil {
		t.Fatal(err)
	}
	if asked != 2 || string(db.Section()) != next {
		t.Fatalf("after two commits the callback was asked %d times and the section is %q", asked, db.Section())
	}

	fail = errors.New("no section today")
	b, err := db.NewRunBuilder("from", 0, 0, 2, storage.SrcCheckpoint, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add(rec16(7, 7)); err != nil {
		t.Fatal(err)
	}
	ref, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	names, _ := fs.List()
	manifest := readFile(t, fs, manifestName)
	if err := db.NewEdit().SetCP(2).AddRun(ref).Commit(); !errors.Is(err, fail) {
		t.Fatalf("Commit = %v, want the callback's error", err)
	}
	if after, _ := fs.List(); len(after) != len(names)-1 || listFiles(t, fs)[ref.rm.Name] {
		t.Fatalf("after the failed commit: %v, before it %v less the edit's run", after, names)
	}
	if !bytes.Equal(readFile(t, fs, manifestName), manifest) || db.CP() != 1 || string(db.Section()) != `{"n":2}` {
		t.Fatalf("failed commit moved the store: CP %d, section %q", db.CP(), db.Section())
	}
	db.Close()

	db, err = Open(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if string(db.Section()) != `{"n":2}` {
		t.Fatalf("section after the reopen: %q", db.Section())
	}
}

// FuzzManifest: whatever bytes MANIFEST holds, Open does not panic, and an
// Open that refuses them leaves every file as it was.
func FuzzManifest(f *testing.F) {
	for _, name := range []string{"v2-manifest.json", "v3-manifest.json", "v3-manifest-catalog.json"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(bytes.Replace(b, []byte(`"level":0`), []byte(`"level":-1`), 1))
		f.Add(bytes.Replace(b, []byte(`"combined":{"partitions":[[`), []byte(`"combined":{"partitions":[null,[`), 1))
	}
	f.Add([]byte(`{"version":3,"tables":{"nosuch":{}}}`))
	f.Add([]byte(`{"version":4}`))
	f.Add([]byte(`{"version":3,"catalog":{"lines":`))

	base := storage.NewMemFS()
	goldenStore(f, base, nil).Close()
	names, err := base.List()
	if err != nil {
		f.Fatal(err)
	}
	files := map[string][]byte{}
	for _, n := range names {
		files[n] = readFile(f, base, n)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := storage.NewMemFS()
		for n, b := range files {
			plant(t, fs, n, b)
		}
		plant(t, fs, manifestName, data)
		plant(t, fs, "from.p000.0000000099.run", []byte("an orphan"))
		before, _ := fs.List()
		db, err := Open(fs, goldenOptions(func() ([]byte, error) { return nil, nil }))
		if err == nil {
			db.Close()
			return
		}
		after, _ := fs.List()
		if !reflect.DeepEqual(after, before) {
			t.Fatalf("Open refused the manifest (%v) and changed the directory: %v -> %v", err, before, after)
		}
		for _, n := range before {
			want := files[n]
			switch n {
			case manifestName:
				want = data
			case "from.p000.0000000099.run":
				want = []byte("an orphan")
			}
			if !bytes.Equal(readFile(t, fs, n), want) {
				t.Fatalf("Open refused the manifest (%v) and rewrote %s", err, n)
			}
		}
	})
}
