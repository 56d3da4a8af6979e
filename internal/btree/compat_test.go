package btree

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/backlogfs/backlog/internal/bloom"
	"github.com/backlogfs/backlog/internal/storage"
)

// The golden runs under testdata/ hold goldenRecords(6) ("from", 48-byte
// records) and goldenRecords(7) ("combined", 56-byte records) followed by
// goldenFilter's bytes. The v2-*, v3-*, v4-* and v5-* files were written by
// the format-2, -3, -4 and -5 encoders, which no longer exist in the
// package — never regenerate them; a v2, v3 or v4 file is what a retired
// format looks like, which Open refuses by name (refusedGolden). The v6-*
// files pin the bytes the current encoder must keep producing: both runs
// as the sections of one file, and the headers a manifest carries for them.
//
// The records are shaped like the engine's tables — about three
// references per block, small correlated trailing columns — and cover what
// a decoder can get wrong: several leaf pages (so a per-page restart and
// an internal page with more than one entry), to == Infinity next to small
// CPs (a column 64 bits wide on a page), and every 97th record a 2^62 jump
// in the offset column, a ten-byte varint out and another back.
func goldenRecords(cols int) [][]byte {
	const n = 1500
	recs := make([][]byte, n)
	be := binary.BigEndian
	for i := range recs {
		u := uint64(i)
		r := make([]byte, cols*8)
		be.PutUint64(r[0:], u/3)         // block
		be.PutUint64(r[8:], 100+(u%3)*7) // inode
		be.PutUint64(r[16:], u*8%4096)   // offset
		be.PutUint64(r[24:], (u%3)/2)    // line
		be.PutUint64(r[32:], 1)          // length
		be.PutUint64(r[40:], 1+u%5)      // from
		if u%97 == 50 {
			be.PutUint64(r[16:], 1<<62+u)
		}
		if cols == 7 {
			to := uint64(math.MaxUint64) // Infinity: still live
			if u%4 != 0 {
				to = 2 + u%5 + u%3
			}
			be.PutUint64(r[48:], to)
		}
		recs[i] = r
	}
	return recs
}

// goldenFilter is the BLF1 filter the goldens were written with: one key
// per distinct block, in the power of two the paper's rule reaches for
// them (the filter a raw run carries).
func goldenFilter(recs [][]byte) []byte {
	var keys []uint64
	for i, r := range recs {
		if i == 0 || !bytes.Equal(r[:8], recs[i-1][:8]) {
			keys = append(keys, binary.BigEndian.Uint64(r))
		}
	}
	fl := bloom.NewPow2(bloom.Pow2Bytes(len(keys), len(recs), 0), bloom.DefaultHashes)
	for _, k := range keys {
		fl.Add(k)
	}
	return fl.Marshal()
}

var goldenRuns = []struct {
	name string
	cols int
}{{"from", 6}, {"combined", 7}}

// goldenSHA256 pins the previous formats' files byte for byte.
var goldenSHA256 = map[string]string{
	"v2-from.run":     "9ba4cb94d490b8375e063b092bd57df17364e86c027f761a00a0843f95dffade",
	"v2-combined.run": "dededf9310492f962c7dd204a073974d061d02487dde9f6c9b7dc1902f6af1ae",
	"v3-from.run":     "41f257c57fdfaf3ecbc65b8754195cf55c462ed8e064c4825d618634bbd51ecc",
	"v3-combined.run": "e1198b72927554e7236c05408609d7fb8e736074177754d1b031a363ab077526",
	"v4-from.run":     "15ca8c6090da1028841f9fd37577fca69432c9899cdbe3d36dd66751fa0c8638",
	"v4-combined.run": "24c0d8a9d0c758148466344374a59a075ddfdf2553f8f5861a58dea08efd2250",

	"v5-from-combined.run":          "dfc312ed198a8bd492b5c88d52d4502494c18c20440cb769578e27cdaf02d88c",
	"v5-from-combined.headers.json": "912597a012c7d18836ea3b90011c56ebe00992672b46cd544b7744d121e2fb72",
}

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// plantFile returns a MemFS file holding b.
func plantFile(t testing.TB, b []byte) storage.File {
	t.Helper()
	f, err := storage.NewMemFS().Create("run")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(b, 0); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestGoldenV2Unchanged(t *testing.T) {
	for name, want := range goldenSHA256 {
		sum := sha256.Sum256(readGolden(t, name))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("testdata/%s has SHA-256 %s, want %s: the file is the previous binary's output and must never be regenerated", name, got, want)
		}
	}
}

// checkGoldenRun opens b as a run and checks it (checkGoldenReader).
func checkGoldenRun(t *testing.T, b []byte, format Format, recs [][]byte) {
	t.Helper()
	f := plantFile(t, b)
	checkGoldenReader(t, func(cache *Cache) (*Reader, error) { return Open(f, cache) }, format, recs)
}

// checkGoldenReader opens a run with open, with and without a cache, and
// checks a full scan, a seek at, just before and just after every record,
// and the trailing filter against the records that generated it.
func checkGoldenReader(t *testing.T, open func(*Cache) (*Reader, error), format Format, recs [][]byte) {
	t.Helper()
	for _, cache := range []*Cache{nil, NewCacheBytes(1 << 20)} {
		r, err := open(cache)
		if err != nil {
			t.Fatal(err)
		}
		if r.Format() != format || r.RecordCount() != uint64(len(recs)) {
			t.Fatalf("format %v with %d records, want %v with %d", r.Format(), r.RecordCount(), format, len(recs))
		}
		if r.h.LeafPages < 2 || r.h.Levels == 0 {
			t.Fatalf("%d leaf pages under %d internal levels: the golden run must exercise a page restart and an index descent", r.h.LeafPages, r.h.Levels)
		}
		readers := []*Reader{r}
		if cache != nil {
			// Without a cache a NoFill reader is the reader itself.
			readers = append(readers, r.NoFill())
		}
		for _, rd := range readers {
			it, err := rd.First()
			if err != nil {
				t.Fatal(err)
			}
			got := iterAll(t, it)
			if len(got) != len(recs) {
				t.Fatalf("scanned %d records, want %d", len(got), len(recs))
			}
			for i := range recs {
				if !bytes.Equal(got[i], recs[i]) {
					t.Fatalf("record %d = %x, want %x", i, got[i], recs[i])
				}
			}
			for i, rec := range recs {
				for _, key := range [][]byte{neighbour(rec, false), rec, neighbour(rec, true)} {
					want := sort.Search(len(recs), func(j int) bool { return bytes.Compare(recs[j], key) >= 0 })
					it, err := rd.SeekGE(key)
					if err != nil {
						t.Fatalf("SeekGE around record %d: %v", i, err)
					}
					got, ok, err := it.Next()
					if err != nil {
						t.Fatal(err)
					}
					if want == len(recs) {
						if ok {
							t.Fatalf("SeekGE past record %d found %x", i, got)
						}
					} else if !ok || !bytes.Equal(got, recs[want]) {
						t.Fatalf("SeekGE around record %d: got %x ok=%v, want record %d", i, got, ok, want)
					}
				}
			}
		}
		filter, err := r.BloomBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(filter, goldenFilter(recs)) {
			t.Fatal("trailing filter bytes differ from the generating filter")
		}
	}
}

// TestReadsV2Golden: the runs the format-2 encoder wrote
// (testdata/v2-*.run) are refused by name (refusedGolden).
func TestReadsV2Golden(t *testing.T) { refusedGolden(t, 2) }

// TestFormat3BytesPinned: the runs the format-3 encoder wrote
// (testdata/v3-*.run), pinned by their SHA-256, are refused by name
// (refusedGolden): no decoder of their leaves is left.
func TestFormat3BytesPinned(t *testing.T) { refusedGolden(t, 3) }

// TestFormat4BytesPinned: the runs the format-4 encoder wrote
// (testdata/v4-*.run), pinned by their SHA-256, are refused by name
// (refusedGolden). Their leaves and index pages stay pinned through the v5
// golden, whose pages the current encoder still writes
// (TestFormat5BytesPinned).
func TestFormat4BytesPinned(t *testing.T) { refusedGolden(t, 4) }

// refusedGolden wants each golden run of format v, a retired one, refused
// by name from its header page and from a header a manifest carried, with
// the binary that rewrites it, and the golden's bytes as they were written.
func refusedGolden(t *testing.T, v Format) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			name := fmt.Sprintf("v%d-%s.run", v, g.name)
			golden := readGolden(t, name)
			if sum := sha256.Sum256(golden); hex.EncodeToString(sum[:]) != goldenSHA256[name] {
				t.Fatalf("testdata/%s is not the bytes its encoder wrote", name)
			}
			h, err := decodeHeader(golden)
			if err != nil {
				t.Fatal(err)
			}
			refusedByName(t, plantFile(t, golden), h, fmt.Sprintf(
				"run format %d is no longer read: open the store once with a binary of commit %s, run Checkpoint and MaintainNow, and close it, as internal/core/testdata/upgrade does",
				v, map[Format]string{2: "0ea923b", 3: "8d5575c", 4: "8d5575c"}[v]))
		})
	}
}

// checkUnpadded holds a run of the current format, the section at off of
// file got that h describes, against the same records written by an
// encoder of an earlier delta format whose pages are all 4 KB, the section
// at oldOff of file old that oh describes: every page but the root is the
// old one bit for bit, the root is the old one cut to its count and
// payload then resealed, and the headers agree but for the version, the
// grid, the first page and the root's length.
func checkUnpadded(t *testing.T, old []byte, oldOff int64, oh Header, got []byte, off int64, h Header) {
	t.Helper()
	same := func(h Header) Header {
		h.Format, h.FilterOff, h.FirstPage, h.RootLen = 0, 0, 0, 0
		return h
	}
	if same(h) != same(oh) {
		t.Fatalf("header %+v, the padded format's %+v", h, oh)
	}
	page := func(b []byte, off int64, h Header, p uint64) []byte {
		e := h.PageExtent(p)
		return b[off+e.Off:][:e.Len]
	}
	for p := uint64(1); p < h.RootPage; p++ {
		if !bytes.Equal(page(got, off, h, p), page(old, oldOff, oh, p)) {
			t.Fatalf("page %d differs from the padded format's", p)
		}
	}
	root, want := page(got, off, h, h.RootPage), page(old, oldOff, oh, h.RootPage)
	n := len(root) - pageCRCLen
	if len(root) >= storage.PageSize || !frameOK(root) || !bytes.Equal(root[:n], want[:n]) || slices.ContainsFunc(want[n:storage.PageSize-pageCRCLen], func(b byte) bool { return b != 0 }) {
		t.Fatalf("a root of %d bytes: want the padded format's %d-byte page cut where its padding starts", len(root), len(want))
	}
}

// carriedSection is what a manifest holds of a section of a shared file:
// its two ranges and its header.
type carriedSection struct {
	Pages, Filter storage.Extent
	Header        Header
}

// sectionsFile writes the golden records of goldenRuns, each with its
// filter, as the sections of one file in that order, and returns the
// file's bytes and each section's ranges and header.
func sectionsFile(t testing.TB) ([]byte, []carriedSection) {
	t.Helper()
	f, err := storage.NewMemFS().Create("file")
	if err != nil {
		t.Fatal(err)
	}
	fw := NewFileWriter(f, len(goldenRuns))
	var ws []*Writer
	for slot, g := range goldenRuns {
		w, err := fw.Section(slot, g.cols*8, FormatDelta)
		if err != nil {
			t.Fatal(err)
		}
		recs := goldenRecords(g.cols)
		for _, r := range recs {
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Finish(goldenFilter(recs)); err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	if err := fw.Finish(); err != nil {
		t.Fatal(err)
	}
	var secs []carriedSection
	for _, w := range ws {
		pages, filter := w.Extents()
		secs = append(secs, carriedSection{Pages: pages, Filter: filter, Header: w.Open(f, nil).Header()})
	}
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, size)
	if _, err := f.ReadAt(b, 0); err != nil {
		t.Fatal(err)
	}
	return b, secs
}

// goldenSections returns testdata/<name>.run and the sections its
// .headers.json carries.
func goldenSections(t *testing.T, name string) ([]byte, []carriedSection) {
	t.Helper()
	var secs []carriedSection
	if err := json.Unmarshal(readGolden(t, name+".headers.json"), &secs); err != nil {
		t.Fatal(err)
	}
	return readGolden(t, name+".run"), secs
}

// checkSections reads each of the golden file's sections, From and
// Combined, from the header a manifest carries for it — the first through
// a grid of every byte before the filters, as its header claims — and
// wants a carried header that claims the header its section lacks, or
// denies the one it has, refused as ErrCorrupt.
func checkSections(t *testing.T, file []byte, secs []carriedSection, format Format) {
	t.Helper()
	f := plantFile(t, file)
	from, comb := secs[0], secs[1]
	grid := storage.Extent{Len: from.Filter.Off} // the first section claims every page
	for _, c := range []struct {
		sec  carriedSection
		view storage.File
		recs [][]byte
	}{
		{from, storage.Extents(f, grid, from.Filter), goldenRecords(goldenRuns[0].cols)},
		{comb, storage.Extents(f, comb.Pages, comb.Filter), goldenRecords(goldenRuns[1].cols)},
	} {
		checkGoldenReader(t, func(cache *Cache) (*Reader, error) { return OpenHeader(c.view, c.sec.Header, cache) }, format, c.recs)
		lie := c.sec.Header
		lie.FirstPage = 1 - lie.FirstPage
		if _, err := OpenHeader(c.view, lie, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("a carried header with FirstPage %d over a section with %d: %v, want ErrCorrupt", lie.FirstPage, c.sec.Header.FirstPage, err)
		}
	}
}

// TestFormat5BytesPinned: testdata/v5-from-combined.run and the headers a
// manifest carried for its sections, .headers.json, were written by the
// format-5 encoder, which no longer exists — never regenerate them. The
// file holds one header page, the first section's, which claims every page
// before the filters, so the file opened whole reads as the From run; the
// Combined section starts with its first leaf and reads from its carried
// header alone, as does the From section of the file less its page 0. The
// current encoder, given the same records, writes both sections' pages but
// for their roots' padding.
func TestFormat5BytesPinned(t *testing.T) {
	golden, secs := goldenSections(t, "v5-from-combined")
	from, comb := secs[0], secs[1]
	filters := int64(from.Header.FilterLen + comb.Header.FilterLen)
	if int64(len(golden)) != storage.PageSize*int64(1+from.Header.RootPage+comb.Header.RootPage)+filters {
		t.Fatalf("a %d-byte file for runs of %d and %d pages through their roots: want one header page", len(golden), from.Header.RootPage, comb.Header.RootPage)
	}
	if from.Header.Format != formatDeltaV5 || from.Header.FirstPage != 0 || comb.Header.FirstPage != 1 || comb.Pages.Off != from.Pages.Len || comb.Pages.Len != int64(comb.Header.RootPage)*storage.PageSize {
		t.Fatalf("sections %+v: want the From run's header page alone in the file", secs)
	}
	fromRecs := goldenRecords(goldenRuns[0].cols)
	checkGoldenRun(t, golden, formatDeltaV5, fromRecs)
	checkSections(t, golden, secs, formatDeltaV5)
	bare := plantFile(t, golden[storage.PageSize:])
	h := from.Header
	h.FirstPage, h.FilterOff = 1, uint64(h.RootPage)*storage.PageSize
	view := storage.Extents(bare, storage.Extent{Len: int64(h.FilterOff)}, storage.Extent{Off: from.Filter.Off - storage.PageSize, Len: from.Filter.Len})
	checkGoldenReader(t, func(cache *Cache) (*Reader, error) { return OpenHeader(view, h, cache) }, formatDeltaV5, fromRecs)

	got, now := sectionsFile(t)
	for i := range secs {
		checkUnpadded(t, golden, secs[i].Pages.Off, secs[i].Header, got, now[i].Pages.Off, now[i].Header)
	}
}

// TestFormat6BytesPinned: the current encoder, given the golden records of
// both runs as the sections of one file, must keep producing
// testdata/v6-from-combined.run bit for bit, and the headers and ranges a
// manifest carries for them, testdata/v6-from-combined.headers.json. The
// file pads nothing: its bytes are the From run's short header, each run's
// pages through the one before its root at 4 KB, each root at its length,
// and the filters. The file opened whole reads as the From run; each
// section reads from its carried header; a carried root length the
// section's range does not end at is ErrCorrupt. A deliberate format
// change bumps the version and adds new golden files; it does not edit
// these.
func TestFormat6BytesPinned(t *testing.T) {
	got, secs := sectionsFile(t)
	golden := readGolden(t, "v6-from-combined.run")
	if !bytes.Equal(got, golden) {
		t.Fatalf("the encoder's %d bytes differ from the %d of testdata/v6-from-combined.run", len(got), len(golden))
	}
	carried, err := json.MarshalIndent(secs, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	if want := readGolden(t, "v6-from-combined.headers.json"); !bytes.Equal(append(carried, '\n'), want) {
		t.Fatalf("the encoder's carried sections\n%s\ndiffer from testdata/v6-from-combined.headers.json\n%s", carried, want)
	}
	from, comb := secs[0], secs[1]
	own := func(h Header) int64 { return int64(h.RootPage-1)*storage.PageSize + int64(h.RootLen) }
	if int64(len(golden)) != shortHeaderLen+own(from.Header)+own(comb.Header)+int64(from.Header.FilterLen+comb.Header.FilterLen) {
		t.Fatalf("a %d-byte file for runs of %d and %d pages through roots of %d and %d bytes: want nothing padded",
			len(golden), from.Header.RootPage, comb.Header.RootPage, from.Header.RootLen, comb.Header.RootLen)
	}
	if from.Header.FirstPage != 0 || from.Pages != (storage.Extent{Len: shortHeaderLen + own(from.Header)}) ||
		comb.Header.FirstPage != 1 || comb.Pages != (storage.Extent{Off: from.Pages.Len, Len: own(comb.Header)}) {
		t.Fatalf("sections %+v: want the From run's short header alone in the file, each section's pages through its root", secs)
	}
	checkGoldenRun(t, golden, FormatDelta, goldenRecords(goldenRuns[0].cols))
	checkSections(t, golden, secs, FormatDelta)
	view := storage.Extents(plantFile(t, golden), comb.Pages, comb.Filter)
	for _, d := range []int{-1, 1} {
		lie := comb.Header
		lie.RootLen += uint64(d)
		if _, err := OpenHeader(view, lie, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("a carried root length %d over a section whose root is %d bytes: %v, want ErrCorrupt", lie.RootLen, comb.Header.RootLen, err)
		}
	}
}

// rewriteHeader applies edit to the run's header — a header page, or
// format 6's short header — and reseals it.
func rewriteHeader(t testing.TB, f storage.File, edit func(header []byte)) {
	t.Helper()
	header := make([]byte, storage.PageSize)
	if _, err := f.ReadAt(header, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if Format(binary.LittleEndian.Uint32(header[8:])) == FormatDelta {
		header = header[:shortHeaderLen]
	}
	edit(header)
	n := len(header) - pageCRCLen
	binary.LittleEndian.PutUint32(header[n:], crc32.Checksum(header[:n], castagnoli))
	if _, err := f.WriteAt(header, 0); err != nil {
		t.Fatal(err)
	}
}

// headerKeys parses the smallest and largest records the writer put in
// f's header page, which no reader keeps.
func headerKeys(t testing.TB, f storage.File) (minKey, maxKey []byte) {
	t.Helper()
	page := make([]byte, storage.PageSize)
	if _, err := f.ReadAt(page, 0); err != nil {
		t.Fatal(err)
	}
	rs := int(binary.LittleEndian.Uint32(page[12:]))
	return page[headerFixedLen : headerFixedLen+rs], page[headerFixedLen+rs : headerFixedLen+2*rs]
}

// TestFormatContract is the house rule for runs: of the versions a header
// can name, this binary reads the current one, 6, the one before it, 5, and
// raw v1, and writes only 6 and v1. It refuses every other version by name,
// not as damage, and one above 6 as newer than this binary
// (ErrNewerFormat), whether a header page or a short header says so (Open)
// or a manifest carried the header (OpenHeader).
func TestFormatContract(t *testing.T) {
	f, err := storage.NewMemFS().Create("run")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Format{0, 1, 2, 3, 4, 5, 6, 7, 8, 1 << 31} {
		if _, err := NewWriterFormat(f, 48, v); (err == nil) != (v == FormatRaw || v == FormatDelta) {
			t.Fatalf("NewWriterFormat(format %d): %v", v, err)
		}
		// A version from 6 on has a short header, which the v6 golden holds;
		// every one before it a header page, which the v5 golden holds.
		golden := readGolden(t, "v5-from-combined.run")
		if v >= FormatDelta {
			golden = readGolden(t, "v6-from-combined.run")
		}
		carried, err := decodeHeader(golden)
		if err != nil {
			t.Fatal(err)
		}
		carried.Format = v
		run := plantFile(t, golden)
		rewriteHeader(t, run, func(header []byte) { binary.LittleEndian.PutUint32(header[8:], uint32(v)) })
		switch {
		case v == FormatRaw || v.delta():
			if err := errors.Join(openErr(run), openHeaderErr(run, carried)); err != nil {
				t.Fatalf("version %d: %v, want it read", v, err)
			}
		case v > FormatDelta:
			refusedByName(t, run, carried, fmt.Sprintf("run format newer than this binary: version %d", v))
			for _, err := range []error{openErr(run), openHeaderErr(run, carried)} {
				if !errors.Is(err, ErrNewerFormat) {
					t.Fatalf("version %d: %v, want ErrNewerFormat", v, err)
				}
			}
		default:
			refusedByName(t, run, carried, fmt.Sprintf("run format %d ", v))
			if err := openErr(run); errors.Is(err, ErrNewerFormat) {
				t.Fatalf("version %d: %v, want it refused as older than this binary", v, err)
			}
		}
	}
}

func openErr(f storage.File) error {
	_, err := Open(f, nil)
	return err
}

func openHeaderErr(f storage.File, h Header) error {
	_, err := OpenHeader(f, h, nil)
	return err
}

// refusedByName wants the run in f refused, not as corruption but with an
// error that says want, both from its header (Open) and from h carried by
// a manifest (OpenHeader).
func refusedByName(t *testing.T, f storage.File, h Header, want string) {
	t.Helper()
	for name, err := range map[string]error{"Open": openErr(f), "OpenHeader": openHeaderErr(f, h)} {
		if err == nil || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: %v, want %q", name, err, want)
		}
	}
}

// TestHeaderGeometryChecked: every field that sizes a read or positions a
// page is held against the file's size at Open, and a delta run's record
// size against the eight columns its one-byte bitmap can flag — whether the
// page holds the header or a manifest carries it (OpenHeader).
func TestHeaderGeometryChecked(t *testing.T) {
	le := binary.LittleEndian
	for name, edit := range map[string]func(page []byte){
		"filter length past the file":   func(p []byte) { le.PutUint64(p[64:], 1<<40) },
		"filter offset past the file":   func(p []byte) { le.PutUint64(p[56:], 1<<40) },
		"filter offset off the grid":    func(p []byte) { le.PutUint64(p[56:], le.Uint64(p[56:])-1) },
		"leaf pages past the grid":      func(p []byte) { le.PutUint64(p[32:], 1<<20) },
		"leaf pages overflowing":        func(p []byte) { le.PutUint64(p[24:], math.MaxUint64) },
		"no leaf pages":                 func(p []byte) { le.PutUint64(p[32:], 0) },
		"root past the grid":            func(p []byte) { le.PutUint64(p[48:], 1<<30) },
		"root at the header":            func(p []byte) { le.PutUint64(p[48:], 0) },
		"absurd level count":            func(p []byte) { le.PutUint32(p[40:], 1<<31) },
		"levels over a single leaf":     func(p []byte) { le.PutUint64(p[32:], 1) },
		"no levels over several leaves": func(p []byte) { le.PutUint32(p[40:], 0) },
		"delta records of nine columns": func(p []byte) { le.PutUint32(p[12:], 72) },
	} {
		t.Run(name, func(t *testing.T) {
			run := plantFile(t, readGolden(t, "v5-from-combined.run"))
			rewriteHeader(t, run, edit)
			if _, err := Open(run, nil); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open: %v, want ErrCorrupt", err)
			}
			// The same fields carried by a manifest meet the same check.
			page := make([]byte, storage.PageSize)
			if _, err := run.ReadAt(page, 0); err != nil {
				t.Fatal(err)
			}
			h, err := decodeHeader(page)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := OpenHeader(run, h, nil); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("OpenHeader: %v, want ErrCorrupt", err)
			}
		})
	}
}

// FuzzRunHeader plants an arbitrary header, resealed so the checksum
// passes, over a real run's pages: a header page over a format-5 file, or
// with short set a format-6 short header over a file that holds one small
// run and is shorter than 4 KB, as a durable checkpoint's file is. Open,
// the filter read, a scan and a seek must not panic, and nothing may be
// sized beyond the file.
func FuzzRunHeader(f *testing.F) {
	golden := readGolden(f, "v5-from-combined.run")
	f.Add(golden[:storage.PageSize], false)
	f.Add(readGolden(f, "v2-combined.run")[:storage.PageSize], false)
	f.Add(make([]byte, storage.PageSize), false)
	descent := append([]byte(nil), golden[:storage.PageSize]...)
	binary.LittleEndian.PutUint64(descent[48:], 1) // the root is a leaf
	f.Add(descent, false)
	for _, off := range []int{12, 24, 32, 40, 48, 56, 64} {
		h := append([]byte(nil), golden[:storage.PageSize]...)
		h[off+3] ^= 0x7F
		f.Add(h, false)
		h = append([]byte(nil), golden[:storage.PageSize]...)
		h[off]++
		f.Add(h, false)
	}
	small := smallRun(f)
	f.Add(small[:shortHeaderLen], true)
	f.Add(readGolden(f, "v6-from-combined.run")[:shortHeaderLen], true) // a grid past the file
	f.Add(golden[:shortHeaderLen], true)                                // a header page's fields: format 5
	for _, off := range []int{8, 12, 24, 32, 40, 48, 56, 64, 72} {
		h := append([]byte(nil), small[:shortHeaderLen]...)
		h[off+1] ^= 0x7F
		f.Add(h, true)
		h = append([]byte(nil), small[:shortHeaderLen]...)
		h[off]--
		f.Add(h, true)
	}
	f.Fuzz(func(t *testing.T, header []byte, short bool) {
		file := golden
		if short {
			file = small
		}
		run := plantFile(t, file)
		rewriteHeader(t, run, func(page []byte) {
			n := copy(page, header)
			clear(page[n:])
			copy(page, magic)
		})
		r, err := Open(run, nil)
		if err != nil {
			return
		}
		if r.SizeBytes() > int64(len(file)) || r.h.RootPage > uint64(len(file)/storage.PageSize)+1 {
			t.Fatalf("opened a %d-byte file as a run of %d bytes whose root is page %d", len(file), r.SizeBytes(), r.h.RootPage)
		}
		if b, err := r.BloomBytes(); err == nil && len(b) > len(file) {
			t.Fatalf("filter of %d bytes from a %d-byte file", len(b), len(file))
		}
		for _, rd := range []*Reader{r, r.NoFill()} {
			_, _ = drain(rd)
			if it, err := rd.SeekGE(make([]byte, r.RecordSize())); err == nil {
				_, _, _ = it.Next()
			}
		}
	})
}

// smallRun returns a file that holds one format-6 run of a few records and
// its filter, in fewer bytes than a page.
func smallRun(t testing.TB) []byte {
	t.Helper()
	recs := goldenRecords(6)[:40]
	f, err := storage.NewMemFS().Create("run")
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriterFormat(f, 48, FormatDelta)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(goldenFilter(recs)); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, w.SizeBytes())
	if _, err := f.ReadAt(b, 0); err != nil {
		t.Fatal(err)
	}
	if len(b) >= storage.PageSize {
		t.Fatalf("a one-leaf run of %d records in %d bytes: want a file shorter than a page", len(recs), len(b))
	}
	return b
}

// TestOpenHeaderReadsNothing: a run opened from the Header its reader
// reports reads no byte to open and then reads what Open's reader reads,
// over the current format's golden and the read-only one's.
func TestOpenHeaderReadsNothing(t *testing.T) {
	for _, name := range []string{"v6-from-combined.run", "v5-from-combined.run"} {
		fs := storage.NewMemFS()
		f, err := fs.Create("run")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(readGolden(t, name), 0); err != nil {
			t.Fatal(err)
		}
		r, err := Open(f, nil)
		if err != nil {
			t.Fatal(err)
		}
		before := fs.Stats()
		carried, err := OpenHeader(f, r.Header(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := fs.Stats().Sub(before); d.PageReads != 0 {
			t.Fatalf("%s: OpenHeader read %d pages, want none", name, d.PageReads)
		}
		want, err := drain(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := drain(carried)
		if err != nil || !reflect.DeepEqual(got, want) || carried.Header() != r.Header() {
			t.Fatalf("%s: the carried header's reader reads %d records (%v), the page's %d", name, len(got), err, len(want))
		}
	}
}

// TestBloomChecksum: the filter bytes of a current-format run are covered
// by a checksum in the header, verified when they are read — not at Open,
// which reads the header and nothing else.
func TestBloomChecksum(t *testing.T) {
	golden := readGolden(t, "v6-from-combined.run")
	h, err := decodeHeader(golden)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), golden...)
	flipped[h.FilterOff+h.FilterLen-9] ^= 0x10
	fs := storage.NewMemFS()
	f, err := fs.Create("run")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(flipped, 0); err != nil {
		t.Fatal(err)
	}
	before := fs.Stats()
	r, err := Open(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := fs.Stats().Sub(before); d.PageReads != 1 {
		t.Fatalf("Open read %d pages, want the header alone", d.PageReads)
	}
	if _, err := r.BloomBytes(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("BloomBytes over a flipped bit: %v, want ErrCorrupt", err)
	}
}

// TestWriterCoalescesPages: a run larger than the write buffer reaches the
// file in writes of up to writeBufPages pages — the first one short of the
// page it kept for the header — the filter riding with the last of them and
// the header following alone; a run that fits the buffer is one write,
// header first. MemFS, which meters by pages spanned, counts what it counted
// when every page was its own write.
func TestWriterCoalescesPages(t *testing.T) {
	fs := storage.NewMemFS()
	writes := map[string]int{} // write calls per file
	fs.SetFailurePlan(storage.FailurePlan{Hook: func(c storage.Call) error {
		if c.Op == storage.OpWrite {
			writes[c.Name]++
		}
		return nil
	}})
	f, err := fs.Create("run")
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriterFormat(f, 48, FormatRaw)
	if err != nil {
		t.Fatal(err)
	}
	recs := sortedRecords48(20000)
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	filter := goldenFilter(recs)
	if err := w.Finish(filter); err != nil {
		t.Fatal(err)
	}
	r, err := Open(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := int(r.h.RootPage)
	if data < 3*writeBufPages {
		t.Fatalf("run of %d pages is too small to fill the write buffer", data)
	}
	if want := 1 + (data-(writeBufPages-1)+writeBufPages-1)/writeBufPages + 1; writes["run"] != want {
		t.Fatalf("%d write calls for %d pages, a filter and a header, want %d", writes["run"], data, want)
	}
	filterPages := (len(filter) + storage.PageSize - 1) / storage.PageSize
	if st := fs.Stats(); st.PageWrites != int64(data+filterPages+1) || st.BytesWritten != r.SizeBytes() {
		t.Fatalf("MemFS metered %d page writes and %d bytes for a %d-byte run of %d pages", st.PageWrites, st.BytesWritten, r.SizeBytes(), data+1)
	}
	it, err := r.First()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(iterAll(t, it)); n != len(recs) {
		t.Fatalf("read back %d records, wrote %d", n, len(recs))
	}
	if b, err := r.BloomBytes(); err != nil || !bytes.Equal(b, filter) {
		t.Fatalf("filter read back differs (%v)", err)
	}

	// A run that fits the buffer, filter included, is one write from offset
	// zero, and the same bytes a header-last build of it would have been.
	small := sortedRecords48(2000)
	smallFilter := goldenFilter(small)
	built := map[string][]byte{}
	for _, name := range []string{"small", "small-header-last"} {
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWriterFormat(f, 48, FormatDelta)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range small {
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		want := 1
		if name == "small-header-last" {
			// What a run does that has already flushed a buffer.
			if err := w.flushPages(); err != nil {
				t.Fatal(err)
			}
			want = 3
		}
		if err := w.Finish(smallFilter); err != nil {
			t.Fatal(err)
		}
		if writes[name] != want {
			t.Fatalf("%s: %d write calls, want %d", name, writes[name], want)
		}
		built[name] = make([]byte, w.SizeBytes())
		if _, err := f.ReadAt(built[name], 0); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := built["small"], built["small-header-last"]; len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("a one-write run (%d bytes) differs from its header-last build (%d bytes)", len(a), len(b))
	}

	// A filter too large for the buffer is written on its own.
	f2, err := fs.Create("run2")
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{0xA5}, writeBufPages*storage.PageSize)
	w, err = NewWriterFormat(f2, 8, FormatDelta)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec8(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(big); err != nil {
		t.Fatal(err)
	}
	r, err = Open(f2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := r.BloomBytes(); err != nil || !bytes.Equal(b, big) {
		t.Fatalf("oversized filter read back differs (%v)", err)
	}
}

// TestNoFillDecodesOnce: a leaf a NoFill scan misses is checked once, in
// one pass at its miss, in the current format and the read-only one, and
// the scan reads every leaf once.
func TestNoFillDecodesOnce(t *testing.T) {
	for _, file := range []string{"v6-from-combined.run", "v5-from-combined.run"} {
		r, err := Open(plantFile(t, readGolden(t, file)), NewCacheBytes(1<<20))
		if err != nil {
			t.Fatal(err)
		}
		passes := 0
		r.SetDecodeObserver(func(time.Duration) { passes++ })
		recs, err := drain(r.NoFill())
		if err != nil || len(recs) != len(goldenRecords(6)) {
			t.Fatalf("%s: scanned %d records (%v)", file, len(recs), err)
		}
		if uint64(passes) != r.h.LeafPages {
			t.Fatalf("%s: NoFill scan ran %d passes over %d leaves", file, passes, r.h.LeafPages)
		}
	}
}
