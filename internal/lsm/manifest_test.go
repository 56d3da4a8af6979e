package lsm

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/backlogfs/backlog/internal/btree"
	"github.com/backlogfs/backlog/internal/storage"
)

var update = flag.Bool("update", false, "rewrite testdata/commit-headers* from this run")

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
	return goldenHistory(t, fs, goldenOptions(section))
}

// goldenHistory is goldenStore's history in a store opened with opts.
func goldenHistory(t testing.TB, fs storage.VFS, opts Options) *DB {
	t.Helper()
	db, err := Open(fs, opts)
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

func testdata(t testing.TB, name string) []byte {
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
	return withSharedFile(t, goldenStore(t, fs, section))
}

// withSharedFile adds goldenStoreV4's checkpoint of both tables to db.
func withSharedFile(t testing.TB, db *DB) *DB {
	t.Helper()
	flushFile(t, db, 6, []string{"from", "combined"}, map[string][][]byte{
		"from":     {rec16(7, 6), rec16(1200, 6)},
		"combined": {rec16(8, 6)},
	})
	return db
}

// deltaOptions is goldenOptions for a store that writes format-6 runs.
func deltaOptions() Options {
	opts := goldenOptions(nil)
	opts.RunFormat = btree.FormatDelta
	return opts
}

// goldenStoreV6 is goldenStoreV4's history in format-6 runs: the shared
// file's Combined section, its second, has no header, and its entry carries
// the only copy of its header; no section's root is padded.
func goldenStoreV6(t testing.TB, fs storage.VFS) *DB {
	t.Helper()
	db := withSharedFile(t, goldenHistory(t, fs, deltaOptions()))
	comb := db.Table("combined").Runs(0)[2]
	if h := comb.qreader.Header(); h.FirstPage != 1 || comb.pageExt.Off == 0 || h.RootLen >= storage.PageSize || comb.pageExt.Off%storage.PageSize == 0 {
		t.Fatalf("the shared file's second section has header %+v at %+v: want it to start with its first leaf, unaligned, and end at its root's length", h, comb.pageExt)
	}
	return db
}

// TestManifestV4BytesPinned: the encoder keeps producing the bytes of the
// two version-4 trailer goldens — goldenStoreV4's last commit, with and
// without a section, every run's header carried: the manifest's envelope
// and the footer after it — and a store reopened from its run files agrees
// with the one that wrote them. -update rewrites these goldens; the
// commit-trailer ones, whose runs carry no header, were written by the
// encoder before it and are never regenerated (TestReopenReadsNoRunPage
// wants them refused).
func TestManifestV4BytesPinned(t *testing.T) {
	for _, tc := range []struct {
		golden  string
		section func() ([]byte, error)
	}{
		{"commit-headers", nil},
		{"commit-headers-catalog", func() ([]byte, error) { return []byte(goldenSection), nil }},
	} {
		fs := storage.NewMemFS()
		db := goldenStoreV4(t, fs, tc.section)
		env, footer := trailer(t, fs, commitFile(t, fs))
		got := append(bytes.Clone(env), footer...)
		if *update {
			if err := os.WriteFile(filepath.Join("testdata", tc.golden), got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if want := testdata(t, tc.golden); !bytes.Equal(got, want) {
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
		if err := db2.CheckHeaders(); err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		db2.Close()
	}
}

// TestManifestV3BytesPinned: the two version-3 goldens, the bare JSON the
// previous encoder wrote for goldenStore (never regenerate them), are
// refused by name, with the binary that upgrades them, as the store's
// legacy MANIFEST, and the refused Open changes nothing on disk.
func TestManifestV3BytesPinned(t *testing.T) {
	for _, golden := range []string{"v3-manifest.json", "v3-manifest-catalog.json"} {
		fs := storage.NewMemFS()
		goldenStore(t, fs, nil).Close()
		refuses(t, fs, testdata(t, golden), "the manifest in MANIFEST, version 3,")
	}
}

// TestManifestV2RefusedByName: a version-2 manifest (the previous encoder's
// of goldenStore, beside the CATALOG file that format kept the section in)
// is refused by its version, with the binary that upgrades it, and the
// refused Open changes nothing on disk.
func TestManifestV2RefusedByName(t *testing.T) {
	fs := storage.NewMemFS()
	goldenStore(t, fs, nil).Close()
	plant(t, fs, "CATALOG", []byte(goldenSection))
	refuses(t, fs, testdata(t, "v2-manifest.json"), "the manifest in MANIFEST, version 2,")
}

// TestStrayManifestBesideACommitIsRemoved: a legacy MANIFEST and
// MANIFEST.tmp beside a whole trailer commit — what an upgrade that crashed
// after its first commit, before removing them, leaves — are not read: the
// store opens from the trailer, and Open removes both.
func TestStrayManifestBesideACommitIsRemoved(t *testing.T) {
	fs := storage.NewMemFS()
	db := goldenStore(t, fs, nil)
	want := storeState(t, db)
	db.Close()
	plant(t, fs, legacyManifest, testdata(t, "v4-manifest"))
	plant(t, fs, legacyManifestTmp, testdata(t, "v3-manifest.json"))
	db, err := Open(fs, goldenOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := storeState(t, db); got != want {
		t.Fatalf("the store opens to\n%s\nwant\n%s", got, want)
	}
	if files := listFiles(t, fs); files[legacyManifest] || files[legacyManifestTmp] {
		t.Fatalf("Open left the legacy manifest beside the commit: %v", files)
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

// refuses opens fs with manifest planted as the legacy manifest and wants
// it refused by name (retiredOpen), naming what.
func refuses(t *testing.T, fs *storage.MemFS, manifest []byte, what string) {
	t.Helper()
	toLegacy(t, fs, manifest)
	retiredOpen(t, fs, goldenOptions(nil), what)
}

// retiredOpen asserts that opening fs with opts is refused, not as
// ErrCorrupt, by an error that names what and the binary that upgrades
// it, and that the refusal changes nothing on disk.
func retiredOpen(t *testing.T, fs *storage.MemFS, opts Options, what string) {
	t.Helper()
	before := snapshotFiles(t, fs)
	db, err := Open(fs, opts)
	if err == nil {
		db.Close()
		t.Fatalf("%s: Open accepted it", what)
	}
	if errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), what) || !strings.Contains(err.Error(), " is no longer read: open the store once with a binary of commit 8d5575c") {
		t.Fatalf("Open = %v, want %s refused by name, with its upgrader", err, what)
	}
	if after := snapshotFiles(t, fs); !reflect.DeepEqual(after, before) {
		t.Fatalf("%s: a refused Open changed the directory", what)
	}
}

// newestCommit is a name for a commit file newer than every file of the
// golden stores.
const newestCommit = "commit.0000000099"

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

// TestManifestEnvelopeCorruption: a store whose commit is one of the two
// version-4 legacy manifests the writer before the commit trailer made
// (never regenerate them) is refused by name, with the binary that
// upgrades it, and so is every single flipped byte and every truncation of
// one — never another topology, never a panic — the refused Open changing
// nothing on disk.
func TestManifestEnvelopeCorruption(t *testing.T) {
	fs := storage.NewMemFS()
	goldenStoreV4(t, fs, nil).Close()
	for _, golden := range []string{"v4-manifest-catalog", "v4-manifest"} {
		refuses(t, fs, testdata(t, golden), "the manifest in MANIFEST, version 4,")
	}
	good := testdata(t, "v4-manifest")
	for i := range good {
		for _, mask := range []byte{0x01, 0x80} {
			bad := bytes.Clone(good)
			bad[i] ^= mask
			refuses(t, fs, bad, "the manifest in MANIFEST")
		}
		refuses(t, fs, good[:i], "the manifest in MANIFEST")
	}
	refuses(t, fs, append(bytes.Clone(good), 0), "the manifest in MANIFEST")
}

// TestTornCommitGivesWay: a commit file with any single byte flipped or cut
// short, and a checkpoint file carrying a commit whose page or filter
// bytes, or trailer, fail their checksums — in format 6 its short header
// or a root cut to its length too — carry no whole commit: Open takes the
// commit before it and collects the damaged file. A trailer that checks
// but names a version this binary does not read is refused.
func TestTornCommitGivesWay(t *testing.T) {
	base := storage.NewMemFS()
	db := goldenStoreV4(t, base, func() ([]byte, error) { return []byte(`{"n":1}`), nil })
	carrier := commitFile(t, base)
	db.Close()
	opts := goldenOptions(func() ([]byte, error) { return []byte(`{"n":2}`), nil })
	db, err := Open(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.NewEdit().Commit(); err != nil {
		t.Fatal(err)
	}
	newest := commitFile(t, base)
	db.Close()
	files := snapshotFiles(t, base)
	open := func(what string, damaged string, data []byte) *DB {
		t.Helper()
		fs := storage.NewMemFS()
		for n, b := range files {
			plant(t, fs, n, []byte(b))
		}
		plant(t, fs, damaged, data)
		db, err := Open(fs, goldenOptions(nil))
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if listFiles(t, fs)[damaged] {
			t.Fatalf("%s: Open left %s behind", what, damaged)
		}
		return db
	}
	opts = goldenOptions(nil) // the section Open finds is the commit's
	good := []byte(files[newest])
	for i := range good {
		bad := bytes.Clone(good)
		bad[i] ^= 0x40
		for what, data := range map[string][]byte{fmt.Sprintf("byte %d flipped", i): bad, fmt.Sprintf("cut at %d", i): good[:i]} {
			db := open(what, newest, data)
			if string(db.Section()) != `{"n":1}` || db.commit != carrier {
				t.Fatalf("%s: Open took %s, section %s; want %s's", what, db.commit, db.Section(), carrier)
			}
			db.Close()
		}
	}

	// A crash in the commit that goldenStoreV4's checkpoint at CP 6 makes,
	// after its trailer's write: a torn page, a torn filter and a torn
	// trailer each leave the commit before it, CP 5's.
	pre := storage.NewMemFS()
	db = goldenStore(t, pre, nil)
	files = snapshotFiles(t, pre)
	flushFile(t, db, 6, []string{"from", "combined"}, map[string][][]byte{"from": {rec16(7, 6), rec16(1200, 6)}, "combined": {rec16(8, 6)}})
	carrier = commitFile(t, pre)
	for n, b := range snapshotFiles(t, pre) {
		if _, ok := files[n]; !ok {
			files[n] = b
		}
	}
	db.Close()
	run := []byte(files[carrier])
	env, footer := trailer(t, pre, carrier)
	l := binary.LittleEndian
	for what, off := range map[string]int{
		"a page":      storage.PageSize + 100,
		"the filters": int(l.Uint64(footer[8:])) + 1,
		"the trailer": len(run) - len(footer) - len(env)/2,
	} {
		bad := bytes.Clone(run)
		bad[off] ^= 0x40
		db := open(what, carrier, bad)
		if db.CP() != 5 || db.commit == carrier {
			t.Fatalf("torn %s: Open took %s at CP %d; want the commit at CP 5", what, db.commit, db.CP())
		}
		db.Close()
	}

	// The same crash in a store of format-6 runs, whose carrier pads
	// nothing: its first section's short header torn, or either section's
	// root, each cut to its length.
	pre = storage.NewMemFS()
	db = goldenHistory(t, pre, deltaOptions())
	files = snapshotFiles(t, pre)
	flushFile(t, db, 6, []string{"from", "combined"}, map[string][][]byte{"from": {rec16(7, 6)}, "combined": {rec16(8, 6)}})
	carrier = commitFile(t, pre)
	for n, b := range snapshotFiles(t, pre) {
		if _, ok := files[n]; !ok {
			files[n] = b
		}
	}
	var secs []runManifest
	var m manifest
	if err := json.Unmarshal(manifestBody(t, pre), &m); err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"from", "combined"} {
		for _, rm := range m.Tables[table].Partitions[0] {
			if rm.Name == carrier {
				secs = append(secs, rm)
			}
		}
	}
	db.Close()
	if len(secs) != 2 || secs[1].Pages.Off != secs[0].Pages.Len || secs[0].Header.RootPage != 1 || secs[1].Header.RootPage != 1 {
		t.Fatalf("the format-6 carrier's sections %+v: want two one-leaf sections", secs)
	}
	header := secs[0].Pages.Len - int64(secs[0].Header.RootLen)
	run = []byte(files[carrier])
	for what, off := range map[string]int64{
		"the short header":           header / 2,
		"the first root":             header + 2,
		"the first root's checksum":  secs[0].Pages.Len - 1,
		"the second root":            secs[1].Pages.Off + 2,
		"the second root's checksum": secs[1].Pages.Off + secs[1].Pages.Len - 1,
	} {
		bad := bytes.Clone(run)
		bad[off] ^= 0x40
		db := open(what, carrier, bad)
		if db.CP() != 5 || db.commit == carrier {
			t.Fatalf("torn %s of a format-6 carrier: Open took %s at CP %d; want the commit at CP 5", what, db.commit, db.CP())
		}
		db.Close()
	}

	fs := storage.NewMemFS()
	for n, b := range files {
		plant(t, fs, n, []byte(b))
	}
	future := sealTrailer([]byte(`{"version":5}`), btree.Layout{})
	env = future[:len(future)-trailerFooterLen]
	binary.LittleEndian.PutUint32(env[8:], manifestVersion+1)
	binary.LittleEndian.PutUint32(env[16:], manifestCRC(env))
	plant(t, fs, newestCommit, future)
	if _, err := Open(fs, opts); !errors.Is(err, btree.ErrNewerFormat) || !strings.Contains(err.Error(), "carries version 5:") {
		t.Fatalf("Open of a version-5 trailer = %v, want it refused by its version", err)
	}
}

// hostileSections returns the manifest of goldenStoreV4, its envelope
// good, with its shared file's sections placed where no writer puts them,
// each checksummed: Open must refuse every one as ErrCorrupt.
func hostileSections(t testing.TB, good []byte) map[string][]byte {
	t.Helper()
	var m manifest
	if err := json.Unmarshal(good[manifestEnvLen:], &m); err != nil {
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
		b, err := json.Marshal(&mm)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = sealManifest(manifestVersion, b)
	}
	return out
}

// hostileV6Sections returns goldenStoreV6's manifest, body, with its shared
// file's format-6 sections — From first, Combined after it, both unaligned
// and each ending at its root's length — placed where no writer puts them,
// each checksummed: Open must refuse every one as ErrCorrupt.
func hostileV6Sections(t testing.TB, body []byte) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for name, mutate := range map[string]func(from, comb *runManifest){
		"a gap between the sections' pages":           func(_, c *runManifest) { c.Pages.Off, c.Pages.Len = c.Pages.Off+1, c.Pages.Len-1 },
		"overlapping sections":                        func(_, c *runManifest) { c.Pages.Off, c.Pages.Len = c.Pages.Off-1, c.Pages.Len+1 },
		"a root shorter than its count and CRC":       func(_, c *runManifest) { c.Pages.Len = int64(c.Header.RootPage-1)*storage.PageSize + 5 },
		"a first root shorter than its count and CRC": func(f, _ *runManifest) { f.Pages.Len -= int64(f.Header.RootLen) - 6 },
		"a root longer than 4 KiB": func(_, c *runManifest) {
			c.Pages.Len = int64(c.Header.RootPage-1)*storage.PageSize + storage.PageSize + 1
		},
	} {
		var m manifest
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		from, comb := &m.Tables["from"].Partitions[0][1], &m.Tables["combined"].Partitions[0][2]
		if from.Name != comb.Name || from.Pages.Off != 0 || comb.Pages.Off != from.Pages.Len || comb.Header.Format != btree.FormatDelta {
			t.Fatalf("goldenStoreV6's manifest does not hold the sections its rows edit: %+v %+v", from, comb)
		}
		mutate(from, comb)
		b, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = sealManifest(manifestVersion, b)
	}
	return out
}

// TestManifestHostileSections: a checksummed manifest that places a
// shared file's runs where no writer puts them — a range past the end of
// the file, overlapping ranges, a page range shorter than the header page,
// two runs naming one range, an unaligned page offset, a run claiming the
// whole of a file it shares, pages one page off — is ErrCorrupt at Open as
// the newest commit's trailer. So is one that
// places format-6 sections, which need not be aligned, so that they leave
// a gap in their pages but not in their filters, overlap, or give a root
// too short for its count and CRC or longer than a page (hostileV6Sections).
func TestManifestHostileSections(t *testing.T) {
	fs := storage.NewMemFS()
	goldenStoreV4(t, fs, nil).Close()
	env, _ := trailer(t, fs, commitFile(t, fs))
	v6 := storage.NewMemFS()
	goldenStoreV6(t, v6).Close()
	for _, c := range []struct {
		fs      *storage.MemFS
		hostile map[string][]byte
	}{{fs, hostileSections(t, env)}, {v6, hostileV6Sections(t, manifestBody(t, v6))}} {
		for name, b := range c.hostile {
			plant(t, c.fs, newestCommit, sealTrailer(b[manifestEnvLen:], btree.Layout{}))
			refusesOpen(t, c.fs, goldenOptions(nil), name+" (trailer)")
			if err := c.fs.Remove(newestCommit); err != nil {
				t.Fatal(err)
			}
		}
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
	manifest := manifestBody(t, fs)
	if err := db.NewEdit().SetCP(2).AddRun(ref).Commit(); !errors.Is(err, fail) {
		t.Fatalf("Commit = %v, want the callback's error", err)
	}
	if after, _ := fs.List(); len(after) != len(names)-1 || listFiles(t, fs)[ref.rm.Name] {
		t.Fatalf("after the failed commit: %v, before it %v less the edit's run", after, names)
	}
	if !bytes.Equal(manifestBody(t, fs), manifest) || db.CP() != 1 || string(db.Section()) != `{"n":2}` {
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

// FuzzManifest: whatever bytes the legacy MANIFEST (asCommit false) or the
// newest commit file (asCommit true) holds, Open does not panic, and an
// Open that refuses them leaves every file as it was. A store whose commit
// is the legacy manifest is refused by name, whatever it holds; beside a
// trailer commit it is a leftover of an upgrade, which Open removes. A
// commit file that does not check gives way to the commit before it. The
// seeds include the headerless commit-trailer golden, the manifests of
// TestManifestHostileSections, one whose runs carry their
// headers and those of TestManifestHostileHeaders, one of a format newer
// than this binary among them; with delta set the files beside the planted
// one are goldenStoreV6's, format-6 runs whose shared file's second
// section has no header and whose roots are cut to their length, and the
// seeds include its manifest and the layouts hostileDeltaLayouts and
// hostileV6Sections tell wrong.
func FuzzManifest(f *testing.F) {
	for _, name := range []string{"v2-manifest.json", "v3-manifest.json", "v3-manifest-catalog.json"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, false, false)
		f.Add(b[:len(b)/2], false, false)
		f.Add(bytes.Replace(b, []byte(`"level":0`), []byte(`"level":-1`), 1), false, false)
		f.Add(bytes.Replace(b, []byte(`"combined":{"partitions":[[`), []byte(`"combined":{"partitions":[null,[`), 1), false, false)
	}
	f.Add([]byte(`{"version":3,"tables":{"nosuch":{}}}`), false, false)
	f.Add([]byte(`{"version":4}`), false, false)
	f.Add([]byte(`{"version":3,"catalog":{"lines":`), false, false)

	base := storage.NewMemFS()
	goldenStoreV4(f, base, nil).Close()
	v4 := testdata(f, "v4-manifest")
	toLegacy(f, base, v4)
	seeds := [][]byte{v4, v4[:len(v4)/2], sealManifest(manifestVersion+1, v4[manifestEnvLen:])}
	flipped := bytes.Clone(v4)
	flipped[len(flipped)/2] ^= 0x10
	seeds = append(seeds, flipped)
	for _, b := range hostileSections(f, v4) {
		seeds = append(seeds, b)
	}
	for _, b := range seeds {
		f.Add(b, false, false)
		f.Add(append(bytes.Clone(b), sealTrailer(nil, btree.Layout{})[manifestEnvLen:]...), true, false)
		if len(b) > manifestEnvLen {
			f.Add(sealTrailer(b[manifestEnvLen:], btree.Layout{}), true, false)
		}
	}
	stores := map[[2]bool]map[string][]byte{}
	commits := storage.NewMemFS()
	goldenStoreV4(f, commits, nil).Close()
	// Runs that carry their headers, as the writer's commits hold them, and
	// headers no writer makes (TestManifestHostileHeaders).
	carried := manifestBody(f, commits)
	f.Add(sealManifest(manifestVersion, carried), false, false)
	f.Add(sealTrailer(carried, btree.Layout{}), true, false)
	headerless := testdata(f, "commit-trailer")
	f.Add(headerless[:len(headerless)-trailerFooterLen], false, false)
	f.Add(sealTrailer(headerless[manifestEnvLen:len(headerless)-trailerFooterLen], btree.Layout{}), true, false)
	for _, b := range append(slices.Collect(maps.Values(hostileHeaders(f, carried))), newerHeader(f, carried)) {
		f.Add(b, false, false)
		f.Add(sealTrailer(b[manifestEnvLen:], btree.Layout{}), true, false)
	}
	// Format-6 runs, and the layouts TestManifestHostileHeaders and
	// TestManifestHostileSections tell wrong.
	v6 := storage.NewMemFS()
	goldenStoreV6(f, v6).Close()
	v6Body := manifestBody(f, v6)
	f.Add(sealManifest(manifestVersion, v6Body), false, true)
	f.Add(sealTrailer(v6Body, btree.Layout{}), true, true)
	hostile := hostileDeltaLayouts(f, v6Body)
	maps.Copy(hostile, hostileV6Sections(f, v6Body))
	for _, b := range hostile {
		f.Add(b, false, true)
		f.Add(sealTrailer(b[manifestEnvLen:], btree.Layout{}), true, true)
	}
	for key, fs := range map[[2]bool]*storage.MemFS{{false, false}: base, {true, false}: commits, {false, true}: v6, {true, true}: v6} {
		names, err := fs.List()
		if err != nil {
			f.Fatal(err)
		}
		stores[key] = map[string][]byte{}
		for _, n := range names {
			stores[key][n] = readFile(f, fs, n)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, asCommit, delta bool) {
		fs := storage.NewMemFS()
		files := stores[[2]bool{asCommit, delta}]
		for n, b := range files {
			plant(t, fs, n, b)
		}
		planted := legacyManifest
		if asCommit {
			planted = newestCommit
		}
		plant(t, fs, planted, data)
		plant(t, fs, "from.p000.0000000099.run", []byte("an orphan"))
		before, _ := fs.List()
		db, err := Open(fs, goldenOptions(func() ([]byte, error) { return nil, nil }))
		if err == nil {
			db.Close()
			return
		}
		if !asCommit && !delta && (errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "is no longer read")) {
			t.Fatalf("Open of a store whose commit is the legacy manifest = %v, want it refused by name", err)
		}
		after, _ := fs.List()
		if !reflect.DeepEqual(after, before) {
			t.Fatalf("Open refused the manifest (%v) and changed the directory: %v -> %v", err, before, after)
		}
		for _, n := range before {
			want := files[n]
			switch n {
			case planted:
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
// whose header gives another record size than its table's, and a commit
// putting a run below the deepest level are each ErrCorrupt at Open, and
// the refused Open removes no file.
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
			reseal(t, fs, func(m *manifest) { m.Tables["combined"].Partitions[0][0].Level = maxRunLevel + 1 })
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

// TestDeletionVectorV1Read is the house rule for deletion vectors: of the
// versions a vector's envelope can name, this binary reads version 2 alone,
// and refuses every other by name, one above 2 as newer than this binary
// (btree.ErrNewerFormat). testdata/v1-dv-from holds the bare records the
// writer before the envelope wrote for goldenDVStore's vector (never
// regenerate it): a store whose manifest names it is refused by name as
// version 1, with the binary that upgrades it. A refused Open changes
// nothing on disk.
func TestDeletionVectorV1Read(t *testing.T) {
	fs := storage.NewMemFS()
	goldenDVStore(t, fs).Close()
	name := dvFileOf(t, fs)
	good := readFile(t, fs, name)
	plant(t, fs, name, testdata(t, "v1-dv-from"))
	retiredOpen(t, fs, goldenOptions(nil), "the deletion vector "+name+", version 1,")
	for v := range 9 {
		plant(t, fs, name, sealManifest(v, good[manifestEnvLen:]))
		before := snapshotFiles(t, fs)
		db, err := Open(fs, goldenOptions(nil))
		if v == dvVersion {
			if err != nil || db.Table("from").DVLen() != 3 {
				t.Fatalf("version %d: %v, want its 3 records read", v, err)
			}
			db.Close()
			continue
		}
		if err == nil || errors.Is(err, ErrCorrupt) || errors.Is(err, btree.ErrNewerFormat) != (v > dvVersion) ||
			!strings.Contains(err.Error(), fmt.Sprintf("the deletion vector %s is version %d", name, v)) {
			t.Fatalf("version %d: Open = %v, want it refused by its version", v, err)
		}
		if !maps.Equal(snapshotFiles(t, fs), before) {
			t.Fatalf("version %d: a refused Open changed the directory", v)
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
