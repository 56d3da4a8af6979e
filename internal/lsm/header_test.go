package lsm

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/backlogfs/backlog/internal/btree"
	"github.com/backlogfs/backlog/internal/obs"
	"github.com/backlogfs/backlog/internal/storage"
)

// carriedHeader matches the header a run's entry carries, with the comma
// before it.
var carriedHeader = regexp.MustCompile(`,"header":\[[0-9,]*\]`)

// withoutHeaders returns a manifest body with the carried headers taken
// out, after checking that each of its runs carried one.
func withoutHeaders(t testing.TB, body []byte, runs int) []byte {
	t.Helper()
	if n := len(carriedHeader.FindAll(body, -1)); n != runs || bytes.Count(body, []byte(`"name":`)) != runs {
		t.Fatalf("%d of the body's runs carry a header, want all %d:\n%s", n, runs, body)
	}
	return carriedHeader.ReplaceAll(body, nil)
}

// committed decodes the manifest of fs's newest commit, whatever version
// its envelope names.
func committed(t testing.TB, fs *storage.MemFS) manifest {
	t.Helper()
	name := commitFile(t, fs)
	env, _ := trailer(t, fs, name)
	v, body, err := unseal(env)
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeCommit(name, v, body)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// reseal plants, as the newest commit file, the manifest of fs's newest
// commit as mutate leaves it, in version 5.
func reseal(t testing.TB, fs *storage.MemFS, mutate func(m *manifest)) {
	t.Helper()
	resealAs(t, fs, manifestVersion, mutate)
}

// resealAs is reseal in version v: 5, or 4 as jsonBody writes it.
func resealAs(t testing.TB, fs *storage.MemFS, v int, mutate func(m *manifest)) {
	t.Helper()
	m := committed(t, fs)
	mutate(&m)
	body := appendManifest(nil, &m)
	if v == manifestVersionJSON {
		body = jsonBody(t, m)
	}
	plant(t, fs, newestCommit, sealVersion(v, body))
}

// jsonBody is m as a version-4 body, as a binary of 19dfafc, the last
// writer of version 4, wrote it: each run a runManifestJSON, whose MinCP,
// MaxCP and Overrides a run of unknown CPs leaves out.
// TestManifestV4BytesPinned holds it to the v4 goldens.
func jsonBody(t testing.TB, m manifest) []byte {
	t.Helper()
	type table struct {
		Partitions [][]runManifestJSON `json:"partitions"`
		DVFile     string              `json:"dv_file,omitempty"`
		DVCount    int                 `json:"dv_count,omitempty"`
	}
	tables := map[string]table{}
	for name, tm := range m.Tables {
		partitions := make([][]runManifestJSON, len(tm.Partitions))
		for p, runs := range tm.Partitions {
			partitions[p] = make([]runManifestJSON, 0, len(runs))
			for _, rm := range runs {
				partitions[p] = append(partitions[p], jsonRun(rm))
			}
		}
		tables[name] = table{partitions, tm.DVFile, tm.DVCount}
	}
	b, err := json.Marshal(struct {
		Version int              `json:"version"`
		CP      uint64           `json:"cp"`
		NextID  uint64           `json:"next_id"`
		Tables  map[string]table `json:"tables"`
		Catalog json.RawMessage  `json:"catalog,omitempty"`
	}{manifestVersionJSON, m.CP, m.NextID, tables, m.Catalog})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// jsonRun is rm's entry in a version-4 body (jsonBody).
func jsonRun(rm runManifest) runManifestJSON {
	w := runManifestJSON{
		Name: rm.Name, Level: rm.Level, Records: rm.Records,
		MinBlock: rm.MinBlock, MaxBlock: rm.MaxBlock, CP: rm.CP, CPUnknown: rm.CPUnknown,
	}
	if !rm.whole() {
		w.At = []int64{rm.Pages.Off, rm.Pages.Len, rm.Filter.Off, rm.Filter.Len}
	}
	h := rm.Header
	w.Header = []uint64{uint64(h.Format), uint64(h.RecordSize), h.LeafStart, h.LeafPages, uint64(h.Levels), h.RootPage, uint64(h.FilterCRC)}
	if rm.whole() {
		w.Header = append(w.Header, h.FilterOff, h.FilterLen)
	}
	if h.FirstPage != rm.firstPage(h.Format) {
		w.FirstPage = &h.FirstPage
	}
	if !rm.CPUnknown {
		if rm.MinCP != rm.CP {
			w.MinCP = &rm.MinCP
		}
		if rm.MaxCP != rm.CP {
			w.MaxCP = &rm.MaxCP
		}
		w.Overrides = rm.Overrides
	}
	return w
}

// openCounted opens fs through the attributed view the engine opens its
// store through and returns the DB, the bytes Open read from each file, and
// the bytes the accountant credited to recovery.
func openCounted(t *testing.T, fs *storage.MemFS, opts Options) (db *DB, read map[string]int, recovery uint64) {
	t.Helper()
	var mu sync.Mutex
	read = map[string]int{}
	fs.SetFailurePlan(storage.FailurePlan{Hook: func(c storage.Call) error {
		if c.Op == storage.OpRead {
			mu.Lock()
			read[c.Name] += c.Len
			mu.Unlock()
		}
		return nil
	}})
	defer fs.SetFailurePlan(storage.FailurePlan{})
	ios := obs.NewIOStats()
	db, err := Open(storage.Attributed(fs, ios).Tagged(storage.SrcUnknown), opts)
	if err != nil {
		t.Fatal(err)
	}
	recovery, _ = ios.SourceBytes(storage.SrcRecovery)
	return db, read, recovery
}

// fileSize returns the size of name in fs.
func fileSize(t testing.TB, fs *storage.MemFS, name string) int {
	t.Helper()
	return len(readFile(t, fs, name))
}

// TestReopenReadsNoRunPage: Open builds each run's reader from the header
// its commit carries, reading the commit file and the deletion vector it
// names and no byte of any run file, every byte it reads credited to
// recovery. The commit-trailer goldens are goldenStoreV4's last manifest as
// the encoder before carried headers wrote it (never regenerate them):
// resealed into a commit file, the store is refused by name, with the
// binary that upgrades it, and nothing on disk changes.
func TestReopenReadsNoRunPage(t *testing.T) {
	for _, tc := range []struct {
		golden  string
		section func() ([]byte, error)
	}{
		{"commit-trailer", nil},
		{"commit-trailer-catalog", func() ([]byte, error) { return []byte(goldenSection), nil }},
	} {
		fs := storage.NewMemFS()
		db := goldenStoreV4(t, fs, tc.section)
		want, commit := storeState(t, db), db.commit
		db.Close()
		dv := dvFileOf(t, fs)
		db, read, recovery := openCounted(t, fs, goldenOptions(tc.section))
		if got := storeState(t, db); got != want {
			t.Fatalf("%s: the store reopens to\n%s\nwant\n%s", tc.golden, got, want)
		}
		wantRead := map[string]int{commit: fileSize(t, fs, commit), dv: fileSize(t, fs, dv)}
		if !maps.Equal(read, wantRead) || recovery != uint64(sum(read)) {
			t.Fatalf("%s: Open read %v (%d B credited to recovery), want the commit and the vector alone: %v", tc.golden, read, recovery, wantRead)
		}
		if err := db.CheckHeaders(); err != nil {
			t.Fatalf("%s, reopened: %v", tc.golden, err)
		}
		db.Close()

		golden := testdata(t, tc.golden)
		body := golden[manifestEnvLen : len(golden)-trailerFooterLen]
		if carriedHeader.Match(body) {
			t.Fatalf("%s: the golden carries headers", tc.golden)
		}
		plant(t, fs, newestCommit, sealVersion(manifestVersionJSON, body))
		retiredOpen(t, fs, goldenOptions(tc.section), newestCommit+", a version-4 commit whose", upgrader)
	}
}

func sum(m map[string]int) (n int) {
	for _, v := range m {
		n += v
	}
	return n
}

// hostileHeaders returns goldenStoreV4's manifest, body, with one carried
// header field that sizes a read set where no writer puts it, each
// checksummed: Open must refuse every one as ErrCorrupt. The rows edit the
// shared file's second section, the Combined run of partition 0, but for
// the filter's place, which only a run that is its whole file carries, and
// the wire rows, which edit the bytes of the first run that is its whole
// file, a raw run whose header ends in a filter CRC of 0 and its filter at
// 8192+88 (appendRun).
func hostileHeaders(t testing.TB, body []byte) map[string][]byte {
	t.Helper()
	edit := func(mutate func(m *manifest)) []byte {
		m := decodeBody(t, body)
		mutate(&m)
		return sealBody(m)
	}
	section := func(m *manifest) *btree.Header { return m.Tables["combined"].Partitions[0][2].Header }
	whole := func(m *manifest) *btree.Header { return m.Tables["from"].Partitions[0][0].Header }
	out := map[string][]byte{}
	for name, mutate := range map[string]func(m *manifest){
		"leaf pages past the grid":    func(m *manifest) { section(m).LeafPages = 1 << 20 },
		"first leaf past the grid":    func(m *manifest) { section(m).LeafStart = 1 << 40 },
		"root page past the grid":     func(m *manifest) { section(m).RootPage = 1 << 30 },
		"root at the header page":     func(m *manifest) { section(m).RootPage = 0 },
		"levels above 16":             func(m *manifest) { section(m).Levels = 17 },
		"levels over a single leaf":   func(m *manifest) { section(m).Levels = 1 },
		"a record size not the table": func(m *manifest) { section(m).RecordSize = 2 * testRecSize },
		"filter offset past the file": func(m *manifest) { whole(m).FilterOff = 1 << 40 },
		"filter length past the file": func(m *manifest) { whole(m).FilterLen = 1 << 40 },
	} {
		out[name] = edit(mutate)
	}
	header := wireNumbers(1, 16, 1, 1, 0, 1)
	filter := wireNumbers(8192, 88)
	whole0 := append(append(bytes.Clone(header), 0, 0, 0, 0), filter...)
	if bytes.Count(body, whole0) == 0 {
		t.Fatalf("no run of the body ends in the header %x", whole0)
	}
	for name, wire := range map[string][]byte{
		"a whole file's header short of its filter": append(bytes.Clone(header), 0, 0, 0, 0),
		"a format past 32 bits":                     append(append(wireNumbers(1<<32+1, 16, 1, 1, 0, 1), 0, 0, 0, 0), filter...),
		"a record size past 32 bits":                append(append(wireNumbers(1, 1<<32+16, 1, 1, 0, 1), 0, 0, 0, 0), filter...),
		"levels past 32 bits":                       append(append(wireNumbers(1, 16, 1, 1, 1<<32, 1), 0, 0, 0, 0), filter...),
	} {
		out[name] = sealManifest(manifestVersion, bytes.Replace(body, whole0, wire, 1))
	}
	return out
}

// wireNumbers is vs as uvarints, as a version-5 body holds them.
func wireNumbers(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// hostileJSON is a version-4 commit file no writer made, and what Open's
// ErrCorrupt names.
type hostileJSON struct {
	commit []byte
	want   string
}

// hostileJSONHeaders returns goldenStoreV4's version-4 golden, body, with
// one run entry edited where no version-4 writer put it, each sealed as a
// version-4 commit: version 4's decoder (runManifest.UnmarshalJSON) checks
// what version 5's layout rules out. The header rows edit the first run
// that is its whole file, the others the shared file's second section.
func hostileJSONHeaders(t testing.TB, body []byte) map[string]hostileJSON {
	t.Helper()
	const whole, at, shared = `,"header":[1,16,1,1,0,1,0,8192,88]`, `"at":[8192,8192,16472,88]`, `,"header":[1,16,1,1,0,1,0]`
	out := map[string]hostileJSON{}
	for name, row := range map[string]struct{ old, new, want string }{
		"a whole file's header short of its filter": {whole, shared, "a header of 7 numbers, not 9"},
		"a format past 32 bits":                     {whole, `,"header":[4294967297,16,1,1,0,1,0,8192,88]`, "header field 0 = 4294967297, past 32 bits"},
		"a filter CRC past 32 bits":                 {whole, `,"header":[1,16,1,1,0,1,4294967296,8192,88]`, "header field 6 = 4294967296, past 32 bits"},
		"a place of three numbers":                  {at, `"at":[8192,8192,16472]`, "placed by 3 numbers, not 4"},
		"a first page and no header":                {at + shared, at + `,"first_page":1`, "starts at page 1 and carries no header"},
		"a first page said by a format-6 run":       {at + shared, at + `,"header":[6,16,1,1,0,1,0],"first_page":1`, "is of format 6, whose place alone says"},
	} {
		edited := bytes.Replace(body, []byte(row.old), []byte(row.new), 1)
		if bytes.Equal(edited, body) {
			t.Fatalf("%s: the version-4 golden holds no %s", name, row.old)
		}
		out[name] = hostileJSON{sealVersion(manifestVersionJSON, edited), row.want}
	}
	return out
}

// newerHeader returns goldenStoreV4's manifest, body, with the shared
// file's second section carrying a header of a format newer than this
// binary, checksummed: Open must refuse it as that, not as ErrCorrupt.
func newerHeader(t testing.TB, body []byte) []byte {
	t.Helper()
	m := decodeBody(t, body)
	m.Tables["combined"].Partitions[0][2].Header.Format = btree.FormatDelta + 3
	return sealBody(m)
}

// hostileDeltaLayouts returns goldenStoreV6's manifest, body, with the
// layout of a format-6 file told wrong, each checksummed: Open must refuse
// every one as ErrCorrupt. The rows edit the shared file's two sections —
// the From run, first, which keeps its header, and the Combined run, which
// starts with its first leaf — and the From run of partition 0, which is
// its whole file. A format-6 run may not say its first page at all: its
// place says it.
func hostileDeltaLayouts(t testing.TB, body []byte) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for name, mutate := range map[string]func(first, later, whole *runManifest){
		"a later section claiming the header it lacks":  func(_, l, _ *runManifest) { l.Header.FirstPage = 0 },
		"a first section denying the header it has":     func(f, _, _ *runManifest) { f.Header.FirstPage = 1 },
		"a whole file denying the header it has":        func(_, _, w *runManifest) { w.Header.FirstPage = 1 },
		"a section starting at page 2":                  func(_, l, _ *runManifest) { l.Header.FirstPage = 2 },
		"a later section's grid past its entry's pages": func(_, l, _ *runManifest) { l.Header.LeafPages, l.Header.RootPage, l.Header.Levels = 2, 3, 1 },
		"a later section's root past its entry's pages": func(_, l, _ *runManifest) { l.Header.RootPage++ },
	} {
		m := decodeBody(t, body)
		first, later, whole := &m.Tables["from"].Partitions[0][1], &m.Tables["combined"].Partitions[0][2], &m.Tables["from"].Partitions[0][0]
		if first.Name != later.Name || first.Pages.Off != 0 || later.Header.FirstPage != 1 || !whole.whole() {
			t.Fatalf("goldenStoreV6's manifest does not hold the layout its rows edit: %+v %+v %+v", first, later, whole)
		}
		mutate(first, later, whole)
		out[name] = sealBody(m)
	}
	// The wire row: a later section's entry saying outright the first page
	// its place implies, which the encoder never writes.
	m := decodeBody(t, body)
	later := m.Tables["combined"].Partitions[0][2]
	entry := runEntry(t, body, later)
	said := bytes.Clone(entry)
	said[flagsAt(entry)] |= runFirstPage
	out["a first page said outright"] = sealManifest(manifestVersion, bytes.Replace(body, entry, append(said, 1), 1))
	return out
}

// runEntry returns rm's entry in body, which must hold it once.
func runEntry(t testing.TB, body []byte, rm runManifest) []byte {
	t.Helper()
	for file := range uint64(len(body)) {
		if entry := appendRun(nil, rm, file); bytes.Count(body, entry) == 1 {
			return entry
		}
	}
	t.Fatalf("the body does not hold the entry of %+v once", rm)
	return nil
}

// flagsAt returns where in a run's entry its flags byte is: after six
// numbers.
func flagsAt(entry []byte) int {
	at := 0
	for range 6 {
		_, n := binary.Uvarint(entry[at:])
		at += n
	}
	return at
}

// TestManifestHostileHeaders: a checksummed commit whose run carries a
// header that no writer makes — leaves or root past the run's page grid,
// more than 16 levels or levels over a single leaf, a record size that is
// not its table's, a filter past the end of the file, a header of the
// wrong length or with a field past 32 bits — is ErrCorrupt at Open, as
// the newest commit's trailer, and the refused Open removes no file; so is
// a version-4 body that version 4's decoder refuses (hostileJSONHeaders),
// with what it names. So is
// one that tells a format-6 file's layout wrong: a header that claims a
// header its section lacks or denies one it has, or a grid that overruns
// the entry's pages. A header of a format newer than this binary is refused
// as that (btree.ErrNewerFormat), not as ErrCorrupt: a newer binary wrote
// the store, which is not damaged; and a run that carries no header as what
// an older binary wrote, with the binary that upgrades it.
func TestManifestHostileHeaders(t *testing.T) {
	fs := storage.NewMemFS()
	goldenStoreV4(t, fs, nil).Close()
	hostile := hostileHeaders(t, manifestBody(t, fs))
	newer := newerHeader(t, manifestBody(t, fs))
	plant(t, fs, newestCommit, sealTrailer(newer[manifestEnvLen:], btree.Layout{}))
	before := snapshotFiles(t, fs)
	if _, err := Open(fs, goldenOptions(nil)); !errors.Is(err, btree.ErrNewerFormat) || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "version 9") {
		t.Fatalf("Open of a run in format 9: %v, want it refused as newer than this binary", err)
	}
	if !maps.Equal(snapshotFiles(t, fs), before) {
		t.Fatal("a refused Open changed the directory")
	}
	if err := fs.Remove(newestCommit); err != nil {
		t.Fatal(err)
	}
	// Every version-5 entry carries a header; a version-4 one may not. The
	// v4 golden of this store, one header cut.
	v4 := testdata(t, "commit-headers")
	v4Body := v4[manifestEnvLen : len(v4)-trailerFooterLen]
	first := carriedHeader.Find(v4Body)
	if before := v4Body[:bytes.Index(v4Body, first)]; !bytes.Contains(before, []byte(`"combined"`)) || bytes.Contains(before, []byte(`"from"`)) {
		t.Fatalf("the v4 golden does not list a Combined run first:\n%s", v4Body)
	}
	plant(t, fs, newestCommit, sealVersion(manifestVersionJSON, bytes.Replace(v4Body, first, nil, 1)))
	retiredOpen(t, fs, goldenOptions(nil), newestCommit+", a version-4 commit whose combined run in", upgrader)
	if err := fs.Remove(newestCommit); err != nil {
		t.Fatal(err)
	}
	for name, row := range hostileJSONHeaders(t, v4Body) {
		plant(t, fs, newestCommit, row.commit)
		if err := refusesOpen(t, fs, goldenOptions(nil), name+" (version 4)"); !strings.Contains(err.Error(), row.want) {
			t.Fatalf("%s (version 4): Open = %v, want it to name %q", name, err, row.want)
		}
		if err := fs.Remove(newestCommit); err != nil {
			t.Fatal(err)
		}
	}
	v6 := storage.NewMemFS()
	goldenStoreV6(t, v6).Close()
	for _, c := range []struct {
		fs      *storage.MemFS
		hostile map[string][]byte
	}{{fs, hostile}, {v6, hostileDeltaLayouts(t, manifestBody(t, v6))}} {
		for name, b := range c.hostile {
			plant(t, c.fs, newestCommit, sealTrailer(b[manifestEnvLen:], btree.Layout{}))
			refusesOpen(t, c.fs, goldenOptions(nil), name+" (trailer)")
			if err := c.fs.Remove(newestCommit); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCheckHeadersFindsAStaleRoot: a commit whose carried header names a
// page of the run other than its root — one a leaf's number, inside the
// run's grid, so Open cannot tell — opens, and CheckHeaders, which holds
// every carried header against its file's, reports it. A format-6 section
// after its file's first has no header in the file to hold its header
// against: its entry's pages end at its root, so Open refuses a stale root
// there, and CheckHeaders reports a committed header that differs from the
// one the run's reader holds, which it holds against the file and the
// run's ranges instead.
func TestCheckHeadersFindsAStaleRoot(t *testing.T) {
	fs := storage.NewMemFS()
	db := openTestDB(t, fs, 1)
	var recs [][]byte
	for b := uint64(0); b < 2000; b++ {
		recs = append(recs, rec16(b, 1))
	}
	flushRecords(t, db, "from", 1, recs)
	if err := db.CheckHeaders(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	reseal(t, fs, func(m *manifest) {
		h := m.Tables["from"].Partitions[0][0].Header
		if h.Levels == 0 {
			t.Fatalf("a one-leaf run: %+v", *h)
		}
		h.RootPage--
	})
	db = openTestDB(t, fs, 1)
	defer db.Close()
	if err := db.CheckHeaders(); err == nil || !strings.Contains(err.Error(), "RootPage") {
		t.Fatalf("CheckHeaders over a stale root page: %v", err)
	}

	// The header-less kind: the To section of a checkpoint file.
	fs = storage.NewMemFS()
	opts := Options{Tables: []TableSpec{{Name: "from", RecordSize: testRecSize}, {Name: "to", RecordSize: testRecSize}}, RunFormat: btree.FormatDelta}
	db5, err := Open(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	flushFile(t, db5, 1, []string{"from", "to"}, map[string][][]byte{"from": recs[:1], "to": spreadRecords(0, 2000)})
	if h := db5.Table("to").Runs(0)[0].qreader.Header(); h.FirstPage != 1 || h.Levels == 0 {
		t.Fatalf("the To section's header %+v: want several leaves and no header page", h)
	}
	if err := db5.CheckHeaders(); err != nil {
		t.Fatal(err)
	}
	db5.m.Tables["to"].Partitions[0][0].Header.RootPage--
	if err := db5.CheckHeaders(); err == nil || !strings.Contains(err.Error(), "RootPage") {
		t.Fatalf("CheckHeaders over a committed stale root page: %v", err)
	}
	db5.m.Tables["to"].Partitions[0][0].Header.RootPage++
	db5.Close()
	reseal(t, fs, func(m *manifest) { m.Tables["to"].Partitions[0][0].Header.RootPage-- })
	refusesOpen(t, fs, opts, "a stale root in a section without its header page")
}

// coreStore loads internal/core/testdata/<name>, a store an earlier
// binary wrote through the engine, into a MemFS.
func coreStore(t *testing.T, name string) *storage.MemFS {
	t.Helper()
	fs := storage.NewMemFS()
	dir := filepath.Join("..", "core", "testdata", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		plant(t, fs, e.Name(), b)
	}
	return fs
}

// coreOptions opens a coreStore: the engine's tables, one partition.
func coreOptions() Options {
	return Options{Tables: []TableSpec{{Name: "from", RecordSize: 48}, {Name: "to", RecordSize: 48}, {Name: "combined", RecordSize: 56}}}
}

// coreAnswers is every record a coreStore holds for the blocks below 160,
// table by table.
func coreAnswers(t *testing.T, db *DB) (out []string) {
	t.Helper()
	for _, table := range []string{"from", "to", "combined"} {
		for b := uint64(0); b < 160; b++ {
			for _, r := range collect(t, db.Table(table), b) {
				out = append(out, table+string(r))
			}
		}
	}
	return out
}

// TestFirstSectionWithoutItsPageOpens: a format-5 file whose first section
// does not hold its header page either — the merge file of
// internal/core/testdata/v5runs-store, which a format-5 binary wrote, less
// its page 0, its entries moved to match and the first one saying its
// first page is 1, in a commit of either version read — opens from the
// commit alone and answers as the store it was cut from, as format-5
// readers always allowed. (A format-6 run may not say its first page: its
// place says it.) The store's own commit is version 4, which jsonBody
// writes as its writer did.
func TestFirstSectionWithoutItsPageOpens(t *testing.T) {
	for _, v := range []int{manifestVersionJSON, manifestVersion} {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			fs := coreStore(t, "v5runs-store")
			opts := coreOptions()
			answers := func(db *DB) []string { return coreAnswers(t, db) }
			if body := manifestBody(t, fs); !bytes.Equal(jsonBody(t, committed(t, fs)), body) {
				t.Fatalf("the store's commit is not what jsonBody writes:\n%s", body)
			}
			db, err := Open(fs, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := answers(db)
			const name = "merge.p000.0000000005.run"
			if r := db.Table("from").Runs(0)[0]; r.Name() != name || r.Format() != 5 || r.pageExt.Off != 0 {
				t.Fatalf("the fixture's first From run is %s, format %d at %+v: want the first section of %s, format 5", r.Name(), r.Format(), r.pageExt, name)
			}
			db.Close()
			plant(t, fs, name, readFile(t, fs, name)[storage.PageSize:])
			resealAs(t, fs, v, func(m *manifest) {
				for _, tm := range m.Tables {
					for i := range tm.Partitions[0] {
						rm := &tm.Partitions[0][i]
						if rm.Name != name {
							continue
						}
						rm.Filter.Off -= storage.PageSize
						if rm.Pages.Off == 0 {
							rm.Pages.Len -= storage.PageSize
							rm.Header.FirstPage = 1
						} else {
							rm.Pages.Off -= storage.PageSize
						}
					}
				}
			})
			if body := manifestBody(t, fs); v == manifestVersionJSON && bytes.Count(body, []byte(`"first_page":1`)) != 1 {
				t.Fatalf("the moved manifest says first_page other than once:\n%s", body)
			}
			said := 0
			for _, tm := range committed(t, fs).Tables {
				for _, rm := range tm.Partitions[0] {
					if h := rm.Header; h.FirstPage != rm.firstPage(h.Format) {
						said++
					}
				}
			}
			if said != 1 {
				t.Fatalf("the moved manifest says %d runs' first pages, want one", said)
			}
			db, err = Open(fs, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if env, _ := trailer(t, fs, db.commit); db.commit != newestCommit || binary.LittleEndian.Uint32(env[8:]) != uint32(v) {
				t.Fatalf("the store opened from %s, not the moved version-%d commit", db.commit, v)
			}
			if got := answers(db); !slices.Equal(got, want) || len(want) < 160 {
				t.Fatalf("the store without the page answers %d records, the store it was cut from %d", len(got), len(want))
			}
			if err := db.CheckHeaders(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
