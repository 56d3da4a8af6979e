package lsm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/backlogfs/backlog/internal/storage"
)

// goldenSection is the section of testdata/v3-manifest-catalog.json and
// testdata/v4-manifest-catalog.
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

// goldenStoreV4 is goldenStore plus what version 4 records: a
// checkpoint's runs of both tables as sections of one file in partition 0,
// and in partition 1 a checkpoint file that holds one run.
func goldenStoreV4(t testing.TB, fs storage.VFS, section func() ([]byte, error)) *DB {
	t.Helper()
	db := goldenStore(t, fs, section)
	flushFile(t, db, 6, []string{"from", "combined"}, map[string][][]byte{
		"from":     {rec16(7, 6), rec16(1200, 6)},
		"combined": {rec16(8, 6)},
	})
	return db
}

// TestManifestV4BytesPinned: the encoder keeps producing the bytes of the
// two version-4 goldens, with and without a section, and a store reopened
// from them agrees with the one that wrote them.
func TestManifestV4BytesPinned(t *testing.T) {
	for _, tc := range []struct {
		golden  string
		section func() ([]byte, error)
	}{
		{"v4-manifest", nil},
		{"v4-manifest-catalog", func() ([]byte, error) { return []byte(goldenSection), nil }},
	} {
		fs := storage.NewMemFS()
		db := goldenStoreV4(t, fs, tc.section)
		want := testdata(t, tc.golden)
		if got := readFile(t, fs, manifestName); !bytes.Equal(got, want) {
			t.Fatalf("%s: the encoder wrote\n%q\nthe golden holds\n%q", tc.golden, got, want)
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
		db2.Close()
	}
}

// TestManifestV3BytesPinned: the two version-3 goldens, the bare JSON the
// previous encoder wrote for goldenStore (never regenerate them), still
// open to the store that wrote them, and its first commit writes version 4
// with the same runs and section, which a reopen agrees with.
func TestManifestV3BytesPinned(t *testing.T) {
	for _, tc := range []struct {
		golden  string
		section func() ([]byte, error)
	}{
		{"v3-manifest.json", nil},
		{"v3-manifest-catalog.json", func() ([]byte, error) { return []byte(goldenSection), nil }},
	} {
		fs := storage.NewMemFS()
		db := goldenStore(t, fs, tc.section)
		want := storeState(t, db)
		db.Close()
		plant(t, fs, manifestName, testdata(t, tc.golden))
		db, err := Open(fs, goldenOptions(tc.section))
		if err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		if got := storeState(t, db); got != want {
			t.Fatalf("%s opens to\n%s\nthe store that wrote it\n%s", tc.golden, got, want)
		}
		if err := db.NewEdit().Commit(); err != nil {
			t.Fatal(err)
		}
		if body := manifestBody(t, fs); !bytes.HasPrefix(readFile(t, fs, manifestName), []byte(manifestMagic)) ||
			!bytes.Equal(bytes.Replace(body, []byte(`{"version":4,`), []byte(`{"version":3,`), 1), testdata(t, tc.golden)) {
			t.Fatalf("%s: the first commit wrote\n%s\nwant the same body at version 4", tc.golden, body)
		}
		db.Close()
		if db, err = Open(fs, goldenOptions(tc.section)); err != nil {
			t.Fatal(err)
		}
		if got := storeState(t, db); got != want {
			t.Fatalf("%s: upgraded store reopens to\n%s\nwant\n%s", tc.golden, got, want)
		}
		db.Close()
	}
}

// TestManifestV2RefusedByName: a version-2 manifest (the previous encoder's
// of goldenStore, beside the CATALOG file that format kept the section in)
// is no longer upgraded here: Open refuses it by its version, says which
// binary upgrades it, and changes nothing on disk.
func TestManifestV2RefusedByName(t *testing.T) {
	fs := storage.NewMemFS()
	goldenStore(t, fs, nil).Close()
	plant(t, fs, manifestName, testdata(t, "v2-manifest.json"))
	plant(t, fs, "CATALOG", []byte(goldenSection))
	before := snapshotFiles(t, fs)
	_, err := Open(fs, goldenOptions(func() ([]byte, error) { return nil, nil }))
	if err == nil || !strings.Contains(err.Error(), "manifest version 2 is no longer read: open the store once with a binary that writes version 3") {
		t.Fatalf("Open = %v, want a refusal naming version 2 and the binary that upgrades it", err)
	}
	if after := snapshotFiles(t, fs); !reflect.DeepEqual(after, before) {
		t.Fatal("a refused Open changed the directory")
	}
}

// snapshotFiles returns every file of fs with its contents.
func snapshotFiles(t testing.TB, fs *storage.MemFS) map[string]string {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, n := range names {
		files[n] = string(readFile(t, fs, n))
	}
	return files
}

// refuses opens fs with manifest planted and wants ErrCorrupt, with nothing
// on disk changed.
func refuses(t *testing.T, fs *storage.MemFS, manifest []byte, what string) {
	t.Helper()
	plant(t, fs, manifestName, manifest)
	refusesOpen(t, fs, goldenOptions(nil), what)
}

// refusesOpen asserts that opening fs with opts is ErrCorrupt and changes
// nothing on disk.
func refusesOpen(t *testing.T, fs *storage.MemFS, opts Options, what string) {
	t.Helper()
	before := snapshotFiles(t, fs)
	db, err := Open(fs, opts)
	if err == nil {
		db.Close()
		t.Fatalf("%s: Open accepted it", what)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%s: Open = %v, want ErrCorrupt", what, err)
	}
	if after := snapshotFiles(t, fs); !reflect.DeepEqual(after, before) {
		t.Fatalf("%s: a refused Open changed the directory", what)
	}
}

// TestManifestEnvelopeCorruption: every single flipped byte and every
// truncation of a version-4 manifest is ErrCorrupt at Open — never another
// topology, never a panic — and a refused Open changes nothing on disk.
func TestManifestEnvelopeCorruption(t *testing.T) {
	fs := storage.NewMemFS()
	goldenStoreV4(t, fs, nil).Close()
	good := readFile(t, fs, manifestName)
	for i := range good {
		for _, mask := range []byte{0x01, 0x80} {
			bad := bytes.Clone(good)
			bad[i] ^= mask
			refuses(t, fs, bad, fmt.Sprintf("byte %d ^ %#x", i, mask))
		}
		refuses(t, fs, good[:i], fmt.Sprintf("cut at %d of %d bytes", i, len(good)))
	}
	refuses(t, fs, append(bytes.Clone(good), 0), "a trailing byte")
}

// hostileSections returns the manifests of goldenStoreV4 with its shared
// file's sections placed where no writer puts them, each checksummed: Open
// must refuse every one as ErrCorrupt.
func hostileSections(t testing.TB, good []byte) map[string][]byte {
	t.Helper()
	m, err := decodeManifest(good)
	if err != nil {
		t.Fatal(err)
	}
	shared := func(m manifest) (from, comb *runManifest) {
		return &m.Tables["from"].Partitions[0][1], &m.Tables["combined"].Partitions[0][2]
	}
	from, comb := shared(m)
	if from.whole() || comb.whole() || from.Name != comb.Name {
		t.Fatalf("goldenStoreV4's checkpoint runs do not share a file: %+v %+v", from, comb)
	}
	out := map[string][]byte{}
	for name, mutate := range map[string]func(from, comb *runManifest){
		"filter past EOF":           func(_, c *runManifest) { c.Filter.Off += 1 << 20 },
		"overlapping ranges":        func(f, c *runManifest) { c.Pages.Off = f.Pages.Off },
		"pages short of a header":   func(_, c *runManifest) { c.Pages.Len = 100 },
		"two runs name one range":   func(f, c *runManifest) { c.Pages, c.Filter = f.Pages, f.Filter },
		"unaligned page offset":     func(_, c *runManifest) { c.Pages.Off++ },
		"whole file that is shared": func(_, c *runManifest) { c.Pages, c.Filter = storage.Extent{}, storage.Extent{} },
		"pages one page off":        func(_, c *runManifest) { c.Pages.Off -= storage.PageSize },
	} {
		var mm manifest
		if err := json.Unmarshal(good[manifestEnvLen:], &mm); err != nil {
			t.Fatal(err)
		}
		mutate(shared(mm))
		b, err := encodeManifest(mm)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = b
	}
	return out
}

// TestManifestHostileSections: a checksummed manifest that places a
// shared file's runs where no writer puts them — a range past the end of
// the file, overlapping ranges, a page range shorter than the header page,
// two runs naming one range, an unaligned page offset, a run claiming the
// whole of a file it shares, pages one page off — is ErrCorrupt at Open.
func TestManifestHostileSections(t *testing.T) {
	fs := storage.NewMemFS()
	goldenStoreV4(t, fs, nil).Close()
	for name, b := range hostileSections(t, readFile(t, fs, manifestName)) {
		refuses(t, fs, b, name)
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
	ref := buildRun(t, db, "from", 0, 2, storage.SrcCheckpoint, rec16(7, 7))
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

// FuzzManifest: whatever bytes MANIFEST holds, Open does not panic, an
// Open that refuses them leaves every file as it was, and bytes that start
// like an envelope but do not decode as one of a version this binary reads
// — flipped, cut short — are ErrCorrupt. The seeds include the manifests of
// TestManifestHostileSections.
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
	goldenStoreV4(f, base, nil).Close()
	v4 := readFile(f, base, manifestName)
	f.Add(v4)
	f.Add(v4[:len(v4)/2])
	flipped := bytes.Clone(v4)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add(sealManifest(manifestVersion+1, v4[manifestEnvLen:]))
	for _, b := range hostileSections(f, v4) {
		f.Add(b)
	}
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
		if _, derr := decodeManifest(data); derr != nil && bytes.HasPrefix(data, []byte(manifestMagic)) &&
			!errors.Is(err, ErrCorrupt) && !strings.Contains(err.Error(), "not supported") {
			t.Fatalf("Open of a damaged envelope = %v, want ErrCorrupt", err)
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

// TestOpenRefusesHostileFiles: a deletion vector cut mid-record, a run
// whose header gives another record size than its table's, and a
// version-3 manifest (bare JSON, no checksum) putting a run below the
// deepest level are each ErrCorrupt at Open, and the refused Open removes
// no file.
func TestOpenRefusesHostileFiles(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plant func(t *testing.T, fs *storage.MemFS) Options
	}{
		{"deletion vector cut mid-record", func(t *testing.T, fs *storage.MemFS) Options {
			names, err := fs.List()
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				if strings.HasPrefix(name, "dv.") {
					plant(t, fs, name, append(readFile(t, fs, name), 0))
				}
			}
			return goldenOptions(nil)
		}},
		{"deletion vector cut by whole records", func(t *testing.T, fs *storage.MemFS) Options {
			// Every record gone, none partial: the manifest's dv_count
			// (1) is what tells the cut from an empty vector, which would
			// un-hide the deleted record.
			names, err := fs.List()
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				if strings.HasPrefix(name, "dv.") {
					plant(t, fs, name, nil)
				}
			}
			return goldenOptions(nil)
		}},
		{"run record size", func(t *testing.T, fs *storage.MemFS) Options {
			opts := goldenOptions(nil)
			opts.Tables[1].RecordSize = 2 * testRecSize
			return opts
		}},
		{"run level", func(t *testing.T, fs *storage.MemFS) Options {
			deep := fmt.Sprintf(`"level":%d`, maxRunLevel+1)
			plant(t, fs, manifestName, bytes.Replace(testdata(t, "v3-manifest.json"), []byte(`"level":0`), []byte(deep), 1))
			return goldenOptions(nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := storage.NewMemFS()
			goldenStore(t, fs, nil).Close()
			refusesOpen(t, fs, tc.plant(t, fs), tc.name)
		})
	}
}

// dvFileOf returns the name of the one deletion-vector file in fs.
func dvFileOf(t testing.TB, fs *storage.MemFS) string {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	var dv []string
	for _, name := range names {
		if strings.HasPrefix(name, "dv.") {
			dv = append(dv, name)
		}
	}
	if len(dv) != 1 {
		t.Fatalf("want one deletion-vector file, the directory holds %v", names)
	}
	return dv[0]
}

// goldenDVStore is goldenStore with three From records hidden, the vector
// persisted at CP 6: the store testdata/v1-dv-from was written for.
func goldenDVStore(t testing.TB, fs *storage.MemFS) *DB {
	t.Helper()
	db := goldenStore(t, fs, nil)
	db.Table("from").DeleteRecord(rec16(1500, 1))
	db.Table("from").DeleteRecord(rec16(1, 1))
	if err := db.NewEdit().SetCP(6).Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestDeletionVectorV1Read: testdata/v1-dv-from holds the bare records the
// writer before the checksummed envelope wrote for goldenDVStore's vector
// (never regenerate it). A store whose manifest names that file opens to
// the state of the one that wrote its own, every hidden record hidden.
func TestDeletionVectorV1Read(t *testing.T) {
	fs := storage.NewMemFS()
	db := goldenDVStore(t, fs)
	want := storeState(t, db)
	db.Close()
	plant(t, fs, dvFileOf(t, fs), testdata(t, "v1-dv-from"))
	db, err := Open(fs, goldenOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := storeState(t, db); got != want {
		t.Fatalf("the version-1 vector opens to\n%s\nthe store that wrote it\n%s", got, want)
	}
	for _, block := range []uint64{1, 2, 1500} {
		if got := collect(t, db.Table("from"), block); len(got) != 0 {
			t.Fatalf("block %d shows %d hidden records", block, len(got))
		}
	}
}

// TestDeletionVectorEnvelope: the writer puts a vector's records, sorted
// as version 1 wrote them bare, inside the manifest's envelope at
// dvVersion, and every single flipped byte and every cut of that file is
// ErrCorrupt at Open, a refused Open changing nothing on disk.
func TestDeletionVectorEnvelope(t *testing.T) {
	fs := storage.NewMemFS()
	goldenDVStore(t, fs).Close()
	name := dvFileOf(t, fs)
	good := readFile(t, fs, name)
	if want := sealManifest(dvVersion, testdata(t, "v1-dv-from")); !bytes.Equal(good, want) {
		t.Fatalf("the writer made\n%q\nwant the version-1 records sealed\n%q", good, want)
	}
	for i := range good {
		for _, mask := range []byte{0x01, 0x80} {
			bad := bytes.Clone(good)
			bad[i] ^= mask
			plant(t, fs, name, bad)
			refusesOpen(t, fs, goldenOptions(nil), fmt.Sprintf("byte %d ^ %#x", i, mask))
		}
		plant(t, fs, name, good[:i])
		refusesOpen(t, fs, goldenOptions(nil), fmt.Sprintf("cut at %d of %d bytes", i, len(good)))
	}
	plant(t, fs, name, good)
	db, err := Open(fs, goldenOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if n := db.Table("from").DVLen(); n != 3 {
		t.Fatalf("the restored vector holds %d records, want 3", n)
	}
}
