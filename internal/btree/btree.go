// Package btree implements the on-disk read-store (RS) run format used by
// Backlog's LSM/Stepped-Merge store (paper Section 5.1).
//
// A run is an immutable, densely packed B-tree over fixed-size records,
// ordered by bytes.Compare on the full record encoding. Runs are built
// strictly bottom-up, exactly as the paper describes: records are packed
// into leaf pages in sorted order; while the leaf level is written, the
// first key of each leaf page is accumulated to form the I1 (internal
// level 1) pages, then I2, and so on until a level fits in a single page —
// the root. Building therefore requires no disk reads.
//
// Run layout (all little-endian, 4 KB pages, each page ends with a CRC32):
//
//	page 0:            header (magic, geometry, min/max key, bloom location)
//	pages 1..L:        leaf pages
//	pages L+1..:       internal levels, bottom-up; root page last
//	trailing bytes:    serialized Bloom filter (outside the page grid)
//
// A run may be one section of a file that holds several (FileWriter): the
// page grids of all of them first, back to back, then their filters, so a
// run's filter may follow other runs' pages. Page numbers and the header's
// bloom location are the run's own; a reader opens a section through a
// view that maps that layout onto its two ranges of the file
// (storage.Extents). A file that holds one run is the layout above. In
// format v5 only the first section present in a file keeps its header
// page; every later one starts with its first leaf, numbered 1 as ever,
// and its header lives only in the manifest entry that names it:
//
//	[first section: page 0 (header), 1..R1] [second: pages 1..R2] ...
//	[filters, in section order] [commit trailer, if the file carries one]
//
// A reader of such a section maps page p to (p-1)·4 KB into its range
// (Header.FirstPage). The concession is the first section's page: nothing
// in the engine reads it — every reader is built from the header its
// commit carries — but it claims every page before the filters as its
// grid, so a tool that opens the file whole (Open) reads its first run.
// Raw (v1) sections and those of earlier delta formats all keep page 0.
//
// A run larger than the builder's write buffer gets its header last, so that
// a torn build never yields a readable but incomplete run; a file whose runs
// all fit their buffers is a single write, headers included. Either way
// nothing refers to the file until it has been synced.
//
// Three leaf encodings are read, identified by the header's version field
// (see Format): v1 stores fixed-stride records verbatim; v4 and v5
// bit-pack each leaf page — a bit width and a base per column, block
// anchors, then every record at the same number of bits — with the page's
// variable record count in the page header, and differ only in the file
// layout above. v1 and v5 are written. v3, an earlier delta encoding (a
// varint per changed column behind a presence bitmap), is read and never
// written: a reader transcodes such a leaf into the packed form when it
// misses it, so one seek path and one iterate path serve every delta run.
// Internal index pages are raw in each. Older versions are refused by
// name, v2 with the binary that rewrites it (commit 0ea923b or earlier).
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sync"

	"github.com/backlogfs/backlog/internal/storage"
)

// MaxRecordSize bounds the fixed record size so two full keys fit in the
// header page.
const MaxRecordSize = 256

const (
	magic = "BKRUN1\x00\x00"

	pageCountLen = 2 // u16 record/entry count at page start
	pageCRCLen   = 4 // CRC32C at page end
	pagePayload  = storage.PageSize - pageCountLen - pageCRCLen

	headerFixedLen = 72 // bytes of fixed header fields before min/max keys

	// maxLevels bounds the internal levels a header may claim: a page
	// holds at least 15 index entries, so 16 levels index more pages than
	// a u64 counts.
	maxLevels = 16

	// writeBufPages bounds the consecutive pages a Writer collects before
	// handing them to the file in one write (256 KiB).
	writeBufPages = 64
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a failed checksum or malformed structure.
var ErrCorrupt = errors.New("btree: corrupt run")

// Header is what a reader needs of a run's header page: its leaf encoding
// and record size, where its leaves, root and filter lie, and the filter's
// checksum. The page also holds the run's smallest and largest records,
// which no reader needs. Open reads a Header from the page; OpenHeader
// opens a run from one carried elsewhere (a manifest), reading nothing.
// Offsets and page numbers are the run's own (see the package doc).
type Header struct {
	Format     Format
	RecordSize int
	Records    uint64
	LeafStart  uint64 // first leaf page
	LeafPages  uint64
	Levels     uint32 // internal levels above the leaves; 0 for one leaf
	FilterCRC  uint32 // CRC-32C of the filter bytes; delta formats only
	RootPage   uint64
	FilterOff  uint64 // the end of the page grid the file holds
	FilterLen  uint64
	// FirstPage is the first page of the run the file holds: 0, its header
	// page, or 1 for a v5 section that starts with its first leaf, whose
	// header only a manifest carries. Page p lies (p-FirstPage)·4 KB into
	// the run's range. A header read from a page has FirstPage 0.
	FirstPage uint64
}

// Writer builds a run. Records must be appended in strictly ascending
// order. The zero value is not usable; construct with NewWriter, or with
// FileWriter.Section for a run that shares its file.
type Writer struct {
	fw      *FileWriter
	slot    int
	own     bool // the file's one run: Finish finishes the file too
	recSize int
	format  Format

	leafBuf   []byte // current leaf page: raw records, in either format
	leafCount int    // records in leafBuf
	perLeaf   int    // max records per raw leaf page (unused for delta)
	nextPage  uint64 // next page number to write (leaves start at 1)

	// Delta-format state: the shape of the records in leafBuf, which says
	// whether the next one fits the page packed, and the page packed.
	shape   leafShape
	packBuf []byte

	// wbuf holds the framed pages not yet handed to the file, which belong
	// at run offset wbufOff: pages are written in page-number order, so a
	// run reaches the file in a few large sequential writes. A section that
	// does not know its place in the file yet keeps them all. The first
	// buffer starts with a blank page 0, which FileWriter.Write fills in
	// when the whole run is still here (wbufOff is 0) and the section keeps
	// its header page, and which flushPages skips.
	wbuf    []byte
	wbufOff int64

	// h is the header Finish built, for Open; sealed is set, under fw.mu,
	// once it is. bloom is the filter Finish was given, until the file
	// writes it, and pageOff and filterOff are where the file put the run.
	// first is the run's first page in the file (Header.FirstPage), decided
	// with pageOff.
	h                  Header
	sealed             bool
	bloom              []byte
	pageOff, filterOff int64
	first              uint64

	// id is the cache identity of the run's pages, which the Reader Open
	// returns inherits. While cache is set, each page w frames is offered
	// to it under id (see WriteThrough).
	id    uint64
	cache *Cache

	i1      []indexEntry // separator keys for the leaf level
	prevKey []byte
	count   uint64
	minKey  []byte

	finished  bool
	sizeBytes int64
}

type indexEntry struct {
	key   []byte
	child uint64
}

// NewWriter returns a Writer that builds a raw (v1) run of recordSize-byte
// records into f.
func NewWriter(f storage.File, recordSize int) (*Writer, error) {
	return NewWriterFormat(f, recordSize, FormatRaw)
}

// NewWriterFormat returns a Writer that builds a run in the given leaf
// format, FormatRaw or FormatDelta, as the one run of f: its Finish writes
// and syncs the file. FormatDelta requires recordSize to be a multiple of 8
// and at most MaxDeltaRecordSize.
func NewWriterFormat(f storage.File, recordSize int, format Format) (*Writer, error) {
	w, err := NewFileWriter(f, 1).Section(0, recordSize, format)
	if err != nil {
		return nil, err
	}
	w.own = true
	return w, nil
}

// FileWriter writes the runs of one file, each a section built by its own
// Writer, concurrently with the others or interleaved on one goroutine. The
// file holds the page grids of its sections first, back to back in slot
// order and without padding, then their Bloom filters in the same order.
// The first section's header claims every page before the filters as its
// grid, so that the file opened whole (Open) reads as its first run; its own
// pages end at its root page. A later FormatDelta section leaves its header
// page out of the file and starts with its first leaf (Header.FirstPage
// 1), its header carried by the caller; a later raw section keeps its page
// and a header that is what a run of its own would have. Where a section's
// pages start, and so whether it is the first, is known once every lower
// slot is settled — its Writer finished, or known to stay empty (Skip).
// Page numbers do not depend on it: a section numbers its pages from 1
// and holds page 0 blank until then. Nothing waits for that: a section
// that outgrows its write buffer before then keeps framing pages into it
// and hands them to the file at the first buffer boundary after its place
// is known, or leaves them to Finish.
// Finish writes what the sections still buffer, in one write when nothing
// has gone out yet, and syncs once; Place and Write are its two halves, for
// a caller that appends a trailer it can build only once the file's layout
// is known.
type FileWriter struct {
	f storage.File

	mu    sync.Mutex
	secs  []*Writer // by slot; nil where no section was started
	empty []bool    // by slot: known to hold no run

	placed []*Writer // the sections Place laid out, in file order
}

// NewFileWriter returns a FileWriter for up to slots runs in f.
func NewFileWriter(f storage.File, slots int) *FileWriter {
	return &FileWriter{f: f, secs: make([]*Writer, slots), empty: make([]bool, slots)}
}

// Skip records that slot, which has no section, will get none, so the
// sections of higher slots need not wait for it to know their place.
func (fw *FileWriter) Skip(slot int) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	fw.empty[slot] = true
}

// Section returns the Writer of the run in slot, which is placed after the
// runs of every lower slot. Its Finish seals the run; the file's Finish
// writes it.
func (fw *FileWriter) Section(slot, recordSize int, format Format) (*Writer, error) {
	if recordSize <= 0 || recordSize > MaxRecordSize {
		return nil, fmt.Errorf("btree: invalid record size %d", recordSize)
	}
	w := &Writer{
		fw:       fw,
		slot:     slot,
		recSize:  recordSize,
		format:   format,
		leafBuf:  make([]byte, 0, pagePayload),
		perLeaf:  pagePayload / recordSize,
		nextPage: 1,
		wbuf:     make([]byte, storage.PageSize, 2*storage.PageSize),
		id:       readerIDs.Add(1),
	}
	switch format {
	case FormatRaw:
	case FormatDelta:
		if recordSize%8 != 0 || recordSize > MaxDeltaRecordSize {
			return nil, fmt.Errorf("btree: delta format needs a record size that is a multiple of 8 up to %d, got %d", MaxDeltaRecordSize, recordSize)
		}
	case formatDeltaV3, formatDeltaV4:
		return nil, fmt.Errorf("btree: run format %d is read-only", format)
	default:
		return nil, fmt.Errorf("btree: unknown run format %d", format)
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.secs[slot] != nil || fw.empty[slot] {
		return nil, fmt.Errorf("btree: slot %d already has a run or was skipped", slot)
	}
	fw.secs[slot] = w
	return w, nil
}

// base returns the file offset of slot's pages — the page grids of the
// sections of every lower slot come first — or false while a lower slot is
// not settled yet.
func (fw *FileWriter) base(slot int) (int64, bool) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	var off int64
	for s, w := range fw.secs[:slot] {
		switch {
		case w == nil && fw.empty[s]:
		case w == nil || !w.sealed:
			return 0, false
		default:
			h := w.h
			h.FirstPage = w.firstPage(off)
			off += h.ownBytes()
		}
	}
	return off, true
}

// firstPage returns the first page of w's run that the file holds when the
// run's pages start at base: page 0, its header, for the file's first
// section and for a format that keeps one in every section, else page 1.
func (w *Writer) firstPage(base int64) uint64 {
	if base > 0 && w.format == FormatDelta {
		return 1
	}
	return 0
}

// Layout is where a FileWriter put its file's parts: the page grids of its
// sections run from offset 0 to Pages, their filters from there to End,
// and FilterCRC is the CRC-32C of the filters' bytes. A trailer goes at
// End (FileWriter.Write), and CheckFile verifies what lies before it.
type Layout struct {
	Pages, End int64
	FilterCRC  uint32
}

// Finish writes the file once every section's Writer has finished, and
// syncs it: Place, then Write with no trailer.
func (fw *FileWriter) Finish() error {
	if _, err := fw.Place(); err != nil {
		return err
	}
	return fw.Write(nil, storage.SrcUnknown)
}

// Place lays the file out once every section's Writer has finished: each
// section's pages where its slot puts them, then the filters. It writes
// nothing; after it, every section's Extents are valid.
func (fw *FileWriter) Place() (Layout, error) {
	var secs []*Writer
	for s, w := range fw.secs {
		if w == nil {
			continue
		}
		if !w.sealed {
			return Layout{}, fmt.Errorf("btree: file finished before its slot %d", s)
		}
		secs = append(secs, w)
	}
	if len(secs) == 0 {
		return Layout{}, errors.New("btree: file finished with no run")
	}
	var off int64
	for _, w := range secs {
		w.first = w.firstPage(off)
		w.h.FirstPage = w.first
		w.h.FilterOff = uint64(w.h.ownBytes())
		w.pageOff, off = off, off+int64(w.h.FilterOff)
		w.sizeBytes = int64(w.h.FilterOff + w.h.FilterLen)
	}
	// The first run's header claims every page before the filters, where
	// its own filter comes first: the file read as one run is its first.
	secs[0].h.FilterOff = uint64(off)
	l := Layout{Pages: off}
	for _, w := range secs {
		w.filterOff, off = off, off+int64(len(w.bloom))
		l.FilterCRC = crc32.Update(l.FilterCRC, castagnoli, w.bloom)
	}
	l.End = off
	fw.placed = secs
	return l, nil
}

// Write writes the file Place laid out — the buffered bytes in as few
// writes as they are contiguous, one when no section has outgrown its
// buffer, trailer included, then the headers of the sections that did — and
// syncs it once. A non-empty trailer goes right after the filters, in the
// filters' write, its bytes attributed to src (storage.WriteAtSplit). The
// caller closes the file.
func (fw *FileWriter) Write(trailer []byte, src storage.Source) error {
	secs := fw.placed
	var out []byte // what goes to the file next, at outOff
	var outOff int64
	tail := 0 // how many of out's last bytes are the trailer's
	flush := func() error {
		if len(out) == 0 {
			return nil
		}
		if _, err := storage.WriteAtSplit(fw.f, out, outOff, tail, src); err != nil {
			return fmt.Errorf("btree: writing %d bytes at %d: %w", len(out), outOff, err)
		}
		out = nil
		return nil
	}
	put := func(off int64, b []byte) error {
		if len(b) == 0 {
			return nil
		}
		if len(out) > 0 && outOff+int64(len(out)) != off {
			if err := flush(); err != nil {
				return err
			}
		}
		if len(out) == 0 {
			out, outOff = b, off // the buffers are not used again
		} else {
			out = append(out, b...)
		}
		return nil
	}
	for _, w := range secs {
		off, buf := w.wbufOff, w.wbuf
		if off == 0 { // the whole run, its page 0 blank in front
			if w.first == 0 {
				w.putHeader(buf[:storage.PageSize])
			} else {
				off, buf = storage.PageSize, buf[storage.PageSize:]
			}
		}
		if err := put(w.fileOff(off), buf); err != nil {
			return err
		}
	}
	for _, w := range secs {
		if err := put(w.filterOff, w.bloom); err != nil {
			return err
		}
	}
	last := secs[len(secs)-1]
	if err := put(last.filterOff+int64(len(last.bloom)), trailer); err != nil {
		return err
	}
	tail = len(trailer)
	if err := flush(); err != nil {
		return err
	}
	for _, w := range secs {
		if w.wbufOff > 0 && w.first == 0 {
			var page [storage.PageSize]byte
			w.putHeader(page[:])
			if _, err := fw.f.WriteAt(page[:], w.pageOff); err != nil {
				return fmt.Errorf("btree: writing header: %w", err)
			}
		}
		w.wbuf, w.bloom = nil, nil
	}
	return fw.f.Sync()
}

// CheckFile verifies the part of a file that l describes: every page of
// its grids passes its checksum, and its filters' bytes theirs. A file
// whose pages reached the disk in any order but not all of them fails it.
func CheckFile(f storage.File, l Layout) error {
	if l.Pages < 0 || l.Pages%storage.PageSize != 0 || l.End < l.Pages {
		return fmt.Errorf("%w: a layout of %d page bytes and %d in all", ErrCorrupt, l.Pages, l.End)
	}
	read := func(b []byte, off int64) error {
		n, err := f.ReadAt(b, off)
		if n == len(b) {
			return nil
		}
		if err == nil || errors.Is(err, io.EOF) {
			return fmt.Errorf("%w: the file ends before %d", ErrCorrupt, off+int64(len(b)))
		}
		return fmt.Errorf("btree: reading %d bytes at %d: %w", len(b), off, err)
	}
	buf := make([]byte, writeBufPages*storage.PageSize)
	for off := int64(0); off < l.Pages; off += int64(len(buf)) {
		chunk := buf[:min(int64(len(buf)), l.Pages-off)]
		if err := read(chunk, off); err != nil {
			return err
		}
		for p := 0; p < len(chunk); p += storage.PageSize {
			page := chunk[p : p+storage.PageSize]
			if binary.LittleEndian.Uint32(page[storage.PageSize-pageCRCLen:]) != crc32.Checksum(page[:storage.PageSize-pageCRCLen], castagnoli) {
				return fmt.Errorf("%w: page at %d fails its checksum", ErrCorrupt, off+int64(p))
			}
		}
	}
	filters := make([]byte, l.End-l.Pages)
	if err := read(filters, l.Pages); err != nil {
		return err
	}
	if crc32.Checksum(filters, castagnoli) != l.FilterCRC {
		return fmt.Errorf("%w: filters at %d fail their checksum", ErrCorrupt, l.Pages)
	}
	return nil
}

// Extents returns where the file put the run: its pages, header page
// included if the file holds it (Header.FirstPage), and its filter. Valid
// after the file's Place.
func (w *Writer) Extents() (pages, filter storage.Extent) {
	return storage.Extent{Off: w.pageOff, Len: w.h.ownBytes()},
		storage.Extent{Off: w.filterOff, Len: int64(w.h.FilterLen)}
}

// fileOff returns the file offset of run offset off, once the run's place
// is known.
func (w *Writer) fileOff(off int64) int64 {
	return w.pageOff + off - int64(w.first)*storage.PageSize
}

// WriteThrough makes w hand every page it frames — leaves and internal
// pages, a delta leaf packed and its header parsed — to cache under w's
// identity (CacheID), so that the Reader Open returns finds them there as a
// cold Reader would have built them from the file. A page is cached only if
// it fits the room the cache has free: writing through evicts nothing. Once
// a page does not fit, w offers no more; the cache gains room only when
// pages leave it. Call it before the first Append; a nil cache caches
// nothing.
func (w *Writer) WriteThrough(cache *Cache) { w.cache = cache }

// CacheID returns the identity w's pages are cached under, which the
// Reader Open returns inherits: a caller discarding the run drops it from
// the cache (Cache.Drop).
func (w *Writer) CacheID() uint64 { return w.id }

// Append adds a record. Records must be strictly ascending under
// bytes.Compare; duplicates are rejected.
func (w *Writer) Append(rec []byte) error {
	if w.finished {
		return errors.New("btree: Append after Finish")
	}
	if len(rec) != w.recSize {
		return fmt.Errorf("btree: record size %d, want %d", len(rec), w.recSize)
	}
	if w.prevKey != nil && bytes.Compare(rec, w.prevKey) <= 0 {
		return fmt.Errorf("btree: records out of order (%x after %x)", rec, w.prevKey)
	}
	if w.count == 0 {
		w.minKey = append([]byte(nil), rec...)
	}
	if w.format == FormatDelta {
		// The record joins the page if the page still fits packed with it.
		if w.leafCount > 0 && (w.leafCount == maxLeafRecords || w.shape.sizeWith(rec) > pagePayload) {
			if err := w.flushLeaf(); err != nil {
				return err
			}
		}
		w.shape.add(rec)
	}
	if w.leafCount == 0 {
		// First record of a leaf page becomes its I1 separator key.
		w.i1 = append(w.i1, indexEntry{key: append([]byte(nil), rec...), child: w.nextPage})
	}
	w.leafBuf = append(w.leafBuf, rec...)
	w.leafCount++
	w.prevKey = append(w.prevKey[:0], rec...)
	w.count++
	if w.format == FormatRaw && w.leafCount == w.perLeaf {
		return w.flushLeaf()
	}
	return nil
}

func (w *Writer) flushLeaf() error {
	if w.leafCount == 0 {
		return nil
	}
	payload := w.leafBuf
	if w.format == FormatDelta {
		w.packBuf = w.shape.pack(w.packBuf[:0], w.leafBuf, w.recSize)
		payload = w.packBuf
	}
	if err := w.writePage(uint16(w.leafCount), payload, w.format == FormatDelta); err != nil {
		return err
	}
	w.leafBuf = w.leafBuf[:0]
	w.leafCount = 0
	w.shape = leafShape{}
	return nil
}

// perIndexPage returns how many index entries fit in one internal page.
func (w *Writer) perIndexPage() int {
	return pagePayload / (w.recSize + 8)
}

// Finish completes the run: the last leaf, the internal levels and the
// header, which records the optional serialized Bloom filter. A run that is
// its file's only one (NewWriter) is then written and synced; a section
// (FileWriter.Section) is written by the file's Finish. After Finish the
// Writer must not be used.
func (w *Writer) Finish(bloomBytes []byte) error {
	if w.finished {
		return errors.New("btree: double Finish")
	}
	w.finished = true
	if w.count == 0 {
		return errors.New("btree: empty run")
	}
	if err := w.flushLeaf(); err != nil {
		return err
	}
	leafPages := w.nextPage - 1

	// Build internal levels bottom-up; a level that fits in one page is
	// the root. A single-leaf run has no internal levels at all.
	perPage := w.perIndexPage()
	var levels uint32
	rootPage := uint64(1)
	if leafPages > 1 {
		entries := w.i1
		buf := make([]byte, 0, pagePayload)
		for {
			levels++
			needNext := len(entries) > perPage
			var nextEntries []indexEntry
			buf = buf[:0]
			n := 0
			for i, e := range entries {
				if n == 0 && needNext {
					nextEntries = append(nextEntries, indexEntry{key: e.key, child: w.nextPage})
				}
				buf = append(buf, e.key...)
				var child [8]byte
				binary.LittleEndian.PutUint64(child[:], e.child)
				buf = append(buf, child[:]...)
				n++
				if n == perPage || i == len(entries)-1 {
					rootPage = w.nextPage
					if err := w.writePage(uint16(n), buf, false); err != nil {
						return err
					}
					buf = buf[:0]
					n = 0
				}
			}
			if !needNext {
				break
			}
			entries = nextEntries
		}
	}

	bloomOff := w.nextPage * storage.PageSize
	h := Header{
		Format:     w.format,
		RecordSize: w.recSize,
		Records:    w.count,
		LeafStart:  1,
		LeafPages:  leafPages,
		Levels:     levels,
		RootPage:   rootPage,
		FilterOff:  bloomOff,
		FilterLen:  uint64(len(bloomBytes)),
	}
	if w.format == FormatDelta {
		// Raw headers stay as v1 always wrote them: the field zero.
		h.FilterCRC = crc32.Checksum(bloomBytes, castagnoli)
	}
	w.bloom, w.i1 = bloomBytes, nil
	w.fw.mu.Lock()
	w.h, w.sealed = h, true
	w.fw.mu.Unlock()
	if !w.own {
		return nil
	}
	return w.fw.Finish()
}

// Count returns the number of records appended so far.
func (w *Writer) Count() uint64 { return w.count }

// SizeBytes returns the finished run's physical size (header page if the
// file holds it, data and index pages, and Bloom filter). Valid once the
// file is placed: after Finish for a run that is its file, after the
// FileWriter's Place for a section.
func (w *Writer) SizeBytes() int64 { return w.sizeBytes }

// writePage frames one page — count, payload, zero padding, CRC-32C — as
// page w.nextPage at the end of the write buffer, flushing the buffer
// first at each multiple of its size, and writes it through to the cache
// (see WriteThrough). packed marks a delta leaf, whose payload has the
// slack leafShape.pack leaves.
func (w *Writer) writePage(count uint16, payload []byte, packed bool) error {
	if len(payload) > pagePayload {
		return fmt.Errorf("btree: page payload %d exceeds %d", len(payload), pagePayload)
	}
	if len(w.wbuf) > 0 && len(w.wbuf)%(writeBufPages*storage.PageSize) == 0 {
		if err := w.flushPages(); err != nil {
			return err
		}
	}
	start := len(w.wbuf)
	w.wbuf = slices.Grow(w.wbuf, storage.PageSize)[:start+storage.PageSize]
	framed := w.wbuf[start:]
	binary.LittleEndian.PutUint16(framed, count)
	clear(framed[pageCountLen+copy(framed[pageCountLen:], payload) : storage.PageSize-pageCRCLen])
	crc := crc32.Checksum(framed[:storage.PageSize-pageCRCLen], castagnoli)
	binary.LittleEndian.PutUint32(framed[storage.PageSize-pageCRCLen:], crc)
	if w.cache != nil {
		// The payload is what a Reader keeps of the page: every writer
		// fills a page with exactly its count entries or records, and a
		// packed leaf keeps its slack and its parsed header.
		slack := 0
		if packed {
			slack = 8 // see getBits
		}
		p := &page{payload: make([]byte, len(payload), len(payload)+slack), count: int(count)}
		copy(p.payload, payload)
		if packed {
			var err error
			if p.leaf, _, err = parseLeaf(p.payload, p.count, w.recSize); err != nil {
				return fmt.Errorf("btree: page %d as written: %w", w.nextPage, err)
			}
		}
		if !w.cache.putIfRoom(w.id, w.nextPage, p) {
			w.cache = nil
		}
	}
	w.nextPage++
	return nil
}

// flushPages hands the buffered bytes to the file in one write, less the
// blank page 0 at the front of the first buffer: the header of a run that
// comes through here goes last, if its section keeps one. A section whose
// place in the file is not known yet (FileWriter.base) keeps its buffer
// and grows it.
func (w *Writer) flushPages() error {
	buf := w.wbuf
	if w.wbufOff == 0 {
		base, ok := w.fw.base(w.slot)
		if !ok {
			return nil
		}
		w.pageOff, w.first = base, w.firstPage(base)
		buf, w.wbufOff = buf[storage.PageSize:], storage.PageSize
	}
	if len(buf) > 0 {
		if _, err := w.fw.f.WriteAt(buf, w.fileOff(w.wbufOff)); err != nil {
			return fmt.Errorf("btree: writing %d bytes at page %d: %w", len(buf), w.wbufOff/storage.PageSize, err)
		}
	}
	w.wbufOff += int64(len(buf))
	w.wbuf = w.wbuf[:0]
	return nil
}

// putHeader fills page, a zeroed PageSize buffer, with the header page of
// the run w finished: its Header, then its smallest and largest records.
func (w *Writer) putHeader(page []byte) {
	h := w.h
	copy(page[:8], magic)
	le := binary.LittleEndian
	le.PutUint32(page[8:], uint32(h.Format))
	le.PutUint32(page[12:], uint32(h.RecordSize))
	le.PutUint64(page[16:], h.Records)
	le.PutUint64(page[24:], h.LeafStart)
	le.PutUint64(page[32:], h.LeafPages)
	le.PutUint32(page[40:], h.Levels)
	le.PutUint32(page[44:], h.FilterCRC)
	le.PutUint64(page[48:], h.RootPage)
	le.PutUint64(page[56:], h.FilterOff)
	le.PutUint64(page[64:], h.FilterLen)
	copy(page[headerFixedLen:], w.minKey)
	copy(page[headerFixedLen+h.RecordSize:], w.prevKey)
	crc := crc32.Checksum(page[:storage.PageSize-pageCRCLen], castagnoli)
	le.PutUint32(page[storage.PageSize-pageCRCLen:], crc)
}

// ownBytes returns the bytes of the run's own pages in its file: the
// header page unless the file starts the run at page 1 (FirstPage), then
// every page through the root, which a writer writes last. The first run
// of a file that holds several claims more (FileWriter.Place).
func (h Header) ownBytes() int64 {
	return int64(h.RootPage+1-h.FirstPage) * storage.PageSize
}

// readHeader reads and checks the header page of the run in f.
func readHeader(f storage.File) (Header, error) {
	var page [storage.PageSize]byte
	if _, err := f.ReadAt(page[:], 0); err != nil {
		return Header{}, fmt.Errorf("btree: reading header: %w", err)
	}
	h, err := decodeHeader(page[:])
	if err != nil {
		return Header{}, err
	}
	if err := h.check(f); err != nil {
		return Header{}, err
	}
	return h, nil
}

// decodeHeader returns the Header a header page holds, once its checksum
// and magic check; its fields are check's to judge.
func decodeHeader(page []byte) (Header, error) {
	le := binary.LittleEndian
	crc := crc32.Checksum(page[:storage.PageSize-pageCRCLen], castagnoli)
	if le.Uint32(page[storage.PageSize-pageCRCLen:]) != crc {
		return Header{}, fmt.Errorf("%w: header checksum", ErrCorrupt)
	}
	if string(page[:8]) != magic {
		return Header{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	return Header{
		Format:     Format(le.Uint32(page[8:])),
		RecordSize: int(le.Uint32(page[12:])),
		Records:    le.Uint64(page[16:]),
		LeafStart:  le.Uint64(page[24:]),
		LeafPages:  le.Uint64(page[32:]),
		Levels:     le.Uint32(page[40:]),
		FilterCRC:  le.Uint32(page[44:]),
		RootPage:   le.Uint64(page[48:]),
		FilterOff:  le.Uint64(page[56:]),
		FilterLen:  le.Uint64(page[64:]),
	}, nil
}

// check holds h against the run file f, whether its page or a manifest
// carried it: a readable format, a record size that format can hold, and a
// geometry that describes f — nothing a Reader does may size a read or an
// allocation from a field that was not checked against the file's size. A
// run the file starts at page 1 must be of format 5, which alone leaves a
// section's header page out.
func (h Header) check(f storage.File) error {
	switch {
	case h.Format == 2:
		return errors.New("btree: run format 2 is no longer read: open the store once with a binary that reads it (commit 0ea923b or earlier), run Checkpoint and MaintainNow, and close it, as internal/core/testdata/upgrade does")
	case h.Format != FormatRaw && !h.Format.delta():
		return fmt.Errorf("btree: unsupported version %d", uint32(h.Format))
	}
	if h.RecordSize <= 0 || h.RecordSize > MaxRecordSize {
		return fmt.Errorf("%w: record size %d", ErrCorrupt, h.RecordSize)
	}
	if h.Format.delta() && (h.RecordSize%8 != 0 || h.RecordSize > MaxDeltaRecordSize) {
		return fmt.Errorf("%w: delta run with record size %d", ErrCorrupt, h.RecordSize)
	}
	if h.FirstPage > 1 || h.FirstPage == 1 && h.Format != FormatDelta {
		return fmt.Errorf("%w: a format-%d run whose file starts at its page %d", ErrCorrupt, uint32(h.Format), h.FirstPage)
	}
	size, err := f.Size()
	if err != nil {
		return fmt.Errorf("btree: sizing run: %w", err)
	}
	// The grid is the pages the file holds, FirstPage first; end is one
	// past its last page number.
	grid := h.FilterOff / storage.PageSize
	end := grid + h.FirstPage
	switch {
	case h.FilterOff%storage.PageSize != 0 || h.FilterOff > uint64(size) || h.FilterLen > uint64(size)-h.FilterOff:
		return fmt.Errorf("%w: filter at %d+%d in a %d-byte file", ErrCorrupt, h.FilterOff, h.FilterLen, size)
	case h.LeafStart == 0 || h.LeafPages == 0 || h.LeafPages >= end || h.LeafStart > end-h.LeafPages:
		return fmt.Errorf("%w: leaf pages %d+%d in a %d-page grid from page %d", ErrCorrupt, h.LeafStart, h.LeafPages, grid, h.FirstPage)
	case h.RootPage == 0 || h.RootPage >= end || h.Levels > maxLevels || (h.Levels == 0) != (h.LeafPages == 1):
		return fmt.Errorf("%w: root page %d over %d levels and %d leaves in a %d-page grid from page %d", ErrCorrupt, h.RootPage, h.Levels, h.LeafPages, grid, h.FirstPage)
	case h.FirstPage == 1 && grid != h.RootPage:
		// Only a file's first section claims other runs' pages, for a
		// tool that opens the file whole through its page 0.
		return fmt.Errorf("%w: a run without its header page holds %d pages, not its %d through the root", ErrCorrupt, grid, h.RootPage)
	}
	return nil
}
