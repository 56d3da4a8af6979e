package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/backlogfs/backlog/internal/btree"
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

// decodeBody decodes a version-5 body the writer made.
func decodeBody(t testing.TB, body []byte) manifest {
	t.Helper()
	m, err := decodeManifest(body)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sealBody is m as a version-5 envelope.
func sealBody(m manifest) []byte {
	return sealManifest(manifestVersion, appendManifest(nil, &m))
}

// v5Goldens are the version-5 trailer goldens (never regenerate them), each
// with the store whose last commit it is.
var v5Goldens = []struct {
	golden string
	store  func(t testing.TB, fs storage.VFS) *DB
	opts   Options
}{
	{"v5-commit", func(t testing.TB, fs storage.VFS) *DB { return goldenStoreV4(t, fs, nil) }, goldenOptions(nil)},
	{"v5-commit-catalog", func(t testing.TB, fs storage.VFS) *DB {
		return goldenStoreV4(t, fs, func() ([]byte, error) { return []byte(goldenSection), nil })
	}, goldenOptions(func() ([]byte, error) { return []byte(goldenSection), nil })},
	{"v5-commit-delta", goldenStoreV6, deltaOptions()},
}

// TestManifestV5BytesPinned: the encoder keeps producing the bytes of the
// version-5 trailer goldens — the last commit of goldenStoreV4, with and
// without a section, and of goldenStoreV6: the manifest's envelope and the
// footer after it. Each body decodes to the manifest the store holds, and
// the store reopened from its run files agrees with the one that wrote
// them.
func TestManifestV5BytesPinned(t *testing.T) {
	for _, tc := range v5Goldens {
		fs := storage.NewMemFS()
		db := tc.store(t, fs)
		env, footer := trailer(t, fs, commitFile(t, fs))
		if got, want := append(bytes.Clone(env), footer...), testdata(t, tc.golden); !bytes.Equal(got, want) {
			t.Fatalf("%s: the encoder wrote\n%q\nthe golden holds\n%q", tc.golden, got, want)
		}
		if m := decodeBody(t, env[manifestEnvLen:]); !reflect.DeepEqual(m, db.m) {
			t.Fatalf("%s: the body decodes to\n%+v\nthe store holds\n%+v", tc.golden, m, db.m)
		}
		before := storeState(t, db)
		db.Close()
		db2, err := Open(fs, tc.opts)
		if err != nil {
			t.Fatalf("%s: reopening: %v", tc.golden, err)
		}
		if after := storeState(t, db2); after != before {
			t.Fatalf("%s: reopened store\n%s\nthe one that wrote it\n%s", tc.golden, after, before)
		}
		if err := errors.Join(db2.CheckHeaders(), db2.CheckCommit()); err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		db2.Close()
	}
}

// TestManifestV4BytesPinned: the two version-4 trailer goldens, the JSON
// the encoder before version 5 wrote for goldenStoreV4's last commit, with
// and without a section (never regenerate them), are read one version
// back: in place of the version-5 trailer of the run file that carries the
// store's commit, the store opens as the one that wrote the runs, and its
// next commit is version 5, which a reopen reads the same. The tests'
// version-4 encoder, jsonBody, writes each golden from what it decodes to.
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
		want := storeState(t, db)
		db.Close()
		v4 := testdata(t, tc.golden)
		v, body, err := unseal(v4[:len(v4)-trailerFooterLen])
		if err != nil || v != manifestVersionJSON {
			t.Fatalf("%s: version %d (%v), want a version-4 golden", tc.golden, v, err)
		}
		if m, err := decodeCommit(tc.golden, v, body); err != nil || !bytes.Equal(jsonBody(t, m), body) {
			t.Fatalf("%s: the tests' version-4 encoder (jsonBody) does not write the golden it decodes (%v)", tc.golden, err)
		}
		// The golden is the trailer of the run file that carries the commit.
		carrier := commitFile(t, fs)
		env, footer := trailer(t, fs, carrier)
		run := readFile(t, fs, carrier)
		plant(t, fs, carrier, append(bytes.Clone(run[:len(run)-len(env)-len(footer)]), v4...))
		for _, wantVersion := range []int{manifestVersionJSON, manifestVersion} {
			db, err := Open(fs, goldenOptions(tc.section))
			if err != nil {
				t.Fatalf("%s: opening version %d: %v", tc.golden, wantVersion, err)
			}
			env, _ := trailer(t, fs, db.commit)
			if v, _, _ := unseal(env); v != wantVersion || db.m.Version != wantVersion {
				t.Fatalf("%s: the store opened from version %d (%d in memory), want %d", tc.golden, v, db.m.Version, wantVersion)
			}
			if got := storeState(t, db); got != want {
				t.Fatalf("%s: the store opens to\n%s\nthe one that wrote it\n%s", tc.golden, got, want)
			}
			if err := errors.Join(db.CheckHeaders(), db.CheckCommit(), db.NewEdit().Commit()); err != nil {
				t.Fatalf("%s: %v", tc.golden, err)
			}
			db.Close()
		}
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
// is refused by its version, with both binaries that upgrade it in turn,
// and the refused Open changes nothing on disk.
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
// it refused by name (retiredOpen), naming what and both hops of its
// upgrade: a store that old may hold runs of format 2, which the binary
// that upgrades the rest refuses in turn.
func refuses(t *testing.T, fs *storage.MemFS, manifest []byte, what string) {
	t.Helper()
	toLegacy(t, fs, manifest)
	retiredOpen(t, fs, goldenOptions(nil), what, "open the store once with a binary of commit 0ea923b if its runs are of format 2, then once with a binary of commit 8d5575c")
}

// upgrader is the upgrade a refusal of anything but a legacy manifest
// names.
const upgrader = "open the store once with a binary of commit 8d5575c"

// retiredOpen asserts that opening fs with opts is refused, not as
// ErrCorrupt, by an error that names what and then the upgrade, and that
// the refusal changes nothing on disk.
func retiredOpen(t *testing.T, fs *storage.MemFS, opts Options, what, upgrade string) {
	t.Helper()
	before := snapshotFiles(t, fs)
	db, err := Open(fs, opts)
	if err == nil {
		db.Close()
		t.Fatalf("%s: Open accepted it", what)
	}
	if errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), what) || !strings.Contains(err.Error(), " is no longer read: "+upgrade) {
		t.Fatalf("Open = %v, want %s refused by name, with its upgrade: %s", err, what, upgrade)
	}
	if after := snapshotFiles(t, fs); !reflect.DeepEqual(after, before) {
		t.Fatalf("%s: a refused Open changed the directory", what)
	}
}

// newestCommit is a name for a commit file newer than every file of the
// golden stores.
const newestCommit = "commit.0000000099"

// refusesOpen asserts that opening fs with opts is ErrCorrupt and changes
// nothing on disk, and returns the error.
func refusesOpen(t *testing.T, fs *storage.MemFS, opts Options, what string) error {
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
	return err
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
	m := decodeBody(t, manifestBody(t, pre))
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
	plant(t, fs, newestCommit, sealVersion(manifestVersion+1, []byte{6}))
	if _, err := Open(fs, opts); !errors.Is(err, btree.ErrNewerFormat) || !strings.Contains(err.Error(), "carries version 6:") {
		t.Fatalf("Open of a version-6 trailer = %v, want it refused by its version", err)
	}
}

// hostileSections returns the manifest of goldenStoreV4, its envelope
// good, with its shared file's sections placed where no writer puts them,
// each checksummed: Open must refuse every one as ErrCorrupt.
func hostileSections(t testing.TB, good []byte) map[string][]byte {
	t.Helper()
	shared := func(m manifest) (from, comb *runManifest) {
		return &m.Tables["from"].Partitions[0][1], &m.Tables["combined"].Partitions[0][2]
	}
	from, comb := shared(decodeBody(t, good[manifestEnvLen:]))
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
		m := decodeBody(t, good[manifestEnvLen:])
		mutate(shared(m))
		out[name] = sealBody(m)
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
		m := decodeBody(t, body)
		from, comb := &m.Tables["from"].Partitions[0][1], &m.Tables["combined"].Partitions[0][2]
		if from.Name != comb.Name || from.Pages.Off != 0 || comb.Pages.Off != from.Pages.Len || comb.Header.Format != btree.FormatDelta {
			t.Fatalf("goldenStoreV6's manifest does not hold the sections its rows edit: %+v %+v", from, comb)
		}
		mutate(from, comb)
		out[name] = sealBody(m)
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

// hostileBodies returns goldenStoreV4's version-5 body with the bytes of
// one field made what no writer writes, each sealed: a count or a length
// past the bytes left, a number past its field's width or cut short, an
// entry that names no file or flags no writer sets, a run that shares its
// file placed at nothing, a deletion vector counted in no file, and bytes
// after the section. Open must refuse
// every one as ErrCorrupt.
func hostileBodies(t testing.TB, body []byte) map[string][]byte {
	t.Helper()
	m := decodeBody(t, body)
	if len(m.Catalog) != 0 || body[len(body)-1] != 0 || body[len(body)-2] != 1 || m.Tables["from"].DVCount != 1 {
		t.Fatalf("goldenStoreV4's body does not end in a vector of one record and no section: %x", body[len(body)-2:])
	}
	_, cp := binary.Uvarint(body)
	_, next := binary.Uvarint(body[cp:])
	files := cp + next // the file table's count
	tables := files + 1
	for range body[files] { // names shorter than 128 bytes
		tables += 1 + int(body[tables])
	}
	first := m.Tables["combined"].Partitions[0][0]
	entry := runEntry(t, body, first)
	at := bytes.Index(body, entry)
	shared := runEntry(t, body, m.Tables["combined"].Partitions[0][2])
	placed := bytes.Replace(shared, wireNumbers(8192, 8192, 16472, 88), wireNumbers(0, 0, 0, 0), 1)
	if bytes.Equal(placed, shared) {
		t.Fatalf("the shared run's entry %x is not placed at 8192+8192, 16472+88", shared)
	}
	splice := func(off, n int, with []byte) []byte {
		return append(append(bytes.Clone(body[:off]), with...), body[off+n:]...)
	}
	flags := bytes.Clone(entry)
	flags[flagsAt(entry)] |= 0x80
	// A span that takes the run's last block past 64 bits, in the entry of
	// a run that does not start at block 0.
	spanned := m.Tables["from"].Partitions[0][1]
	if spanned.MinBlock == 0 {
		t.Fatalf("the run %+v starts at block 0", spanned)
	}
	spanEntry := runEntry(t, body, spanned)
	spanAt := 0
	for range 4 {
		_, n := binary.Uvarint(spanEntry[spanAt:])
		spanAt += n
	}
	_, spanLen := binary.Uvarint(spanEntry[spanAt:])
	span := append(append(bytes.Clone(spanEntry[:spanAt]), wireNumbers(math.MaxUint64-spanned.MinBlock+1)...), spanEntry[spanAt+spanLen:]...)
	uncounted := decodeBody(t, body)
	tm := uncounted.Tables["combined"]
	if tm.DVFile != "" {
		t.Fatalf("goldenStoreV4's Combined table has a deletion vector: %+v", tm)
	}
	tm.DVCount = 1
	uncounted.Tables["combined"] = tm
	out := map[string][]byte{"a vector counted in no file": sealBody(uncounted)}
	for name, b := range map[string][]byte{
		"a file count past the body":     splice(files, 1, wireNumbers(1<<40)),
		"a file name past the body":      splice(files+1, 1, wireNumbers(1<<40)),
		"a table count past the body":    splice(tables, 1, wireNumbers(1<<40)),
		"a run count past the body":      splice(at-1, 1, wireNumbers(1<<40)),
		"the section past the body":      splice(len(body)-1, 1, wireNumbers(1<<20)),
		"a vector count past its width":  splice(len(body)-2, 1, wireNumbers(1<<63)),
		"a level past its width":         splice(at+1, 1, wireNumbers(1<<40)),
		"a block span past 64 bits":      bytes.Replace(body, spanEntry, span, 1),
		"a run in a file past the table": splice(at, 1, wireNumbers(99)),
		"flags no writer sets":           bytes.Replace(body, entry, flags, 1),
		"a shared run placed at nothing": bytes.Replace(body, shared, placed, 1),
		"a number cut short":             append(bytes.Clone(body[:len(body)-1]), 0x80),
		"bytes after the section":        append(bytes.Clone(body), 0),
	} {
		out[name] = sealManifest(manifestVersion, b)
	}
	return out
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeAllocBound bounds what decoding a body of n bytes may allocate:
// what a run's entry decodes to is some 13 times its fewest bytes, a
// table's some 25 times, so no count past what the bytes left can hold
// gets past it.
func decodeAllocBound(n int) uint64 { return 64*uint64(n) + 16<<10 }

// TestManifestHostileBodies: a checksummed version-5 commit whose body is
// what no writer writes (hostileBodies) is ErrCorrupt at Open, as the
// newest commit's trailer, and the refused Open changes nothing on disk.
// Decoding it allocates no more than its length allows (decodeAllocBound),
// whatever its counts say.
func TestManifestHostileBodies(t *testing.T) {
	fs := storage.NewMemFS()
	goldenStoreV4(t, fs, nil).Close()
	for name, b := range hostileBodies(t, manifestBody(t, fs)) {
		body := b[manifestEnvLen:]
		var err error
		if n := allocated(func() { _, err = decodeManifest(body) }); err == nil || n > decodeAllocBound(len(body)) {
			t.Fatalf("%s: decoding %d bytes allocated %d and returned %v", name, len(body), n, err)
		}
		plant(t, fs, newestCommit, sealTrailer(body, btree.Layout{}))
		refusesOpen(t, fs, goldenOptions(nil), name)
		if err := fs.Remove(newestCommit); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzManifest: whatever bytes the legacy MANIFEST (asCommit false) or the
// newest commit file (asCommit true) holds, Open does not panic, and an
// Open that refuses them leaves every file as it was. A store whose commit
// is the legacy manifest is refused by name, whatever it holds; beside a
// trailer commit it is a leftover of an upgrade, which Open removes. A
// commit file that does not check gives way to the commit before it. The
// version-5 decoder also takes the bytes after where an envelope's header
// ends, checksum or none: it must not panic, and must allocate no more
// than their length allows (decodeAllocBound). The seeds include the
// version-5 goldens, the version-4 ones and the headerless commit-trailer
// golden, the manifests of TestManifestHostileSections and
// TestManifestHostileBodies, and those of TestManifestHostileHeaders, one
// of a format newer than this binary among them; with delta set the files
// beside the planted one are goldenStoreV6's, format-6 runs whose shared
// file's second section has no header and whose roots are cut to their
// length, and the seeds include its version-5 golden and the layouts
// hostileDeltaLayouts and hostileV6Sections tell wrong.
func FuzzManifest(f *testing.F) {
	for _, name := range []string{"v2-manifest.json", "v3-manifest.json", "v3-manifest-catalog.json"} {
		b := testdata(f, name)
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
	v5 := testdata(f, "v5-commit")
	v5Env := v5[:len(v5)-trailerFooterLen]
	toLegacy(f, base, testdata(f, "v4-manifest"))
	seeds := [][]byte{testdata(f, "v4-manifest"), v5Env, v5Env[:len(v5Env)/2], sealManifest(manifestVersion+1, v5Env[manifestEnvLen:])}
	flipped := bytes.Clone(v5Env)
	flipped[len(flipped)/2] ^= 0x10
	seeds = append(seeds, flipped)
	for _, hostile := range []map[string][]byte{hostileSections(f, v5Env), hostileBodies(f, v5Env[manifestEnvLen:])} {
		for _, b := range hostile {
			seeds = append(seeds, b)
		}
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
	// The goldens of both versions read, and headers no writer makes
	// (TestManifestHostileHeaders).
	for _, golden := range []string{"v5-commit", "v5-commit-catalog", "commit-headers", "commit-headers-catalog", "commit-trailer"} {
		b := testdata(f, golden)
		f.Add(b, true, false)
		f.Add(b[:len(b)-trailerFooterLen], false, false)
	}
	carried := manifestBody(f, commits)
	for _, b := range append(slices.Collect(maps.Values(hostileHeaders(f, carried))), newerHeader(f, carried)) {
		f.Add(b, false, false)
		f.Add(sealTrailer(b[manifestEnvLen:], btree.Layout{}), true, false)
	}
	v4 := testdata(f, "commit-headers")
	for _, row := range hostileJSONHeaders(f, v4[manifestEnvLen:len(v4)-trailerFooterLen]) {
		f.Add(row.commit, true, false)
	}
	// Format-6 runs, and the layouts TestManifestHostileHeaders and
	// TestManifestHostileSections tell wrong.
	v6 := storage.NewMemFS()
	goldenStoreV6(f, v6).Close()
	v6Golden := testdata(f, "v5-commit-delta")
	f.Add(v6Golden[:len(v6Golden)-trailerFooterLen], false, true)
	f.Add(v6Golden, true, true)
	v6Body := manifestBody(f, v6)
	hostile := hostileDeltaLayouts(f, v6Body)
	maps.Copy(hostile, hostileV6Sections(f, v6Body))
	for _, b := range hostile {
		f.Add(b, false, true)
		f.Add(sealTrailer(b[manifestEnvLen:], btree.Layout{}), true, true)
	}
	for key, fs := range map[[2]bool]*storage.MemFS{{false, false}: base, {true, false}: commits, {false, true}: v6, {true, true}: v6} {
		stores[key] = snapshotBytes(f, fs)
	}
	f.Fuzz(func(t *testing.T, data []byte, asCommit, delta bool) {
		body := data[min(len(data), manifestEnvLen):]
		if asCommit {
			body = body[:max(0, len(body)-trailerFooterLen)]
		}
		var m manifest
		var err error
		if n := allocated(func() { m, err = decodeManifest(body) }); n > decodeAllocBound(len(body)) {
			t.Fatalf("decoding %d bytes allocated %d", len(body), n)
		}
		if err == nil {
			// What a body decodes to survives its encoding, which may be
			// shorter: a number written long, a flagged field equal to what
			// its absence says, a file no run names.
			if m2, err := decodeManifest(appendManifest(nil, &m)); err != nil || !reflect.DeepEqual(m2, m) {
				t.Fatalf("%x decodes to %+v, which does not survive its encoding: %v", body, m, err)
			}
		}

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

// snapshotBytes returns every file of fs with its contents.
func snapshotBytes(t testing.TB, fs *storage.MemFS) map[string][]byte {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, n := range names {
		files[n] = readFile(t, fs, n)
	}
	return files
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
	retiredOpen(t, fs, goldenOptions(nil), "the deletion vector "+name+", version 1,", upgrader)
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
