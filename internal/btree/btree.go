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
// Run layout of format v1 (all little-endian, 4 KB pages, each page ends
// with a CRC32):
//
//	page 0:            header (magic, geometry, min/max key, bloom location)
//	pages 1..L:        leaf pages
//	pages L+1..:       internal levels, bottom-up; root page last
//	trailing bytes:    serialized Bloom filter (outside the page grid)
//
// A run may be one section of a file that holds several (FileWriter): the
// pages of all of them first, back to back, then their filters, so a run's
// filter may follow other runs' pages. Page numbers and the header's bloom
// location are the run's own; a reader opens a section through a view that
// maps that layout onto its two ranges of the file (storage.Extents). A
// file that holds one run is the layout above.
//
// Format v6, the one written, pads no page a section ends with. Only the
// first section present in a file keeps a header, at offset 0 and at its
// used length: its fixed fields (no min/max key), its root's length, then
// the CRC — 80 bytes. Every later section starts with its first leaf,
// numbered 1 as ever, and its header lives only in the manifest entry that
// names it. Every page with a successor is 4 KB; a section's last page, its
// root (for a one-leaf run, its only leaf), ends at its CRC:
//
//	[first: header (80 B), pages 1..R1-1 (4 KB each), root R1 (≤ 4 KB)]
//	[second: pages 1..R2-1, root R2] ...
//	[filters, in section order] [commit trailer, if the file carries one]
//
// So page p lies h + (p-1)·4 KB into its section's range, h being 80 for a
// section that holds its header (Header.FirstPage 0) and 0 for one that
// starts at page 1: page numbers, and so cache keys, are what every format
// makes them. The first section's header claims every byte before the
// filters as its grid, so that a tool that opens the file whole (Open)
// reads its first run and that run's filter; since its grid then does not
// say where its own pages end, the header says where its root does
// (Header.RootLen). The engine opens no run from that header: every reader
// is built from the header its commit carries, whose root length follows
// from the entry's ranges. Format v5, read and no longer written, is v6
// with its pages padded: a 4 KB header page (min/max keys included) in
// front of the first section, and every root 4 KB. Raw (v1) sections keep
// page 0 in every section.
//
// A run larger than the builder's write buffer gets its header last, so that
// a torn build never yields a readable but incomplete run; a file whose runs
// all fit their buffers is a single write, headers included. Either way
// nothing refers to the file until it has been synced.
//
// Three versions are read, identified by the header's version field (see
// Format): v1 stores fixed-stride records verbatim; v5 and v6 bit-pack each
// leaf page — a bit width and a base per column, block anchors, then every
// record at the same number of bits — with the page's variable record
// count in the page header, and differ only in the file layout above. v1
// and v6 are written. Internal index pages are raw in each. Every other
// version is refused by name: v2, v3 and v4 with the binary that rewrites
// them (retired), and a version above v6 as newer than this binary
// (ErrNewerFormat).
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

// MaxRecordSize bounds the fixed record size so two full keys fit in a
// header page.
const MaxRecordSize = 256

const (
	magic = "BKRUN1\x00\x00"

	pageCountLen = 2 // u16 record/entry count at page start
	pageCRCLen   = 4 // CRC32C at page end
	pagePayload  = storage.PageSize - pageCountLen - pageCRCLen

	headerFixedLen = 72 // bytes of fixed header fields before min/max keys
	// shortHeaderLen is a format-6 header: the fixed fields, the root's
	// length (u32), then the CRC.
	shortHeaderLen = headerFixedLen + 4 + pageCRCLen

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

// ErrNewerFormat reports a run whose header names a format version above
// the newest this binary reads: a run a newer binary wrote, which is not
// damaged but cannot be read here. It is storage.ErrNewerFormat, which
// every versioned decoder refuses such a version with.
var ErrNewerFormat = storage.ErrNewerFormat

// Header is what a reader needs of a run's header: its leaf encoding and
// record size, where its leaves, root and filter lie, and the filter's
// checksum. A header page (raw and format 5) also holds the run's smallest
// and largest records, which no reader needs. Open reads a Header from the
// file; OpenHeader opens a run from one carried elsewhere (a manifest),
// reading nothing. Offsets and page numbers are the run's own (see the
// package doc).
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
	// FirstPage is the first page of the run the file holds: 0, its header,
	// or 1 for a v5 or v6 section that starts with its first leaf, whose
	// header only a manifest carries. Page p ≥ 1 lies headerLen + (p-1)·4 KB
	// into the run's range. A header read from the file has FirstPage 0.
	FirstPage uint64
	// RootLen is the length of the root page in a format-6 run, which
	// writes it to its CRC; 0 in the formats before it, whose every page is
	// 4 KB.
	RootLen uint64
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
	// buffer starts with hdrLen blank bytes, the room of the header — a
	// header page, or format 6's short header — which FileWriter.Write
	// fills in when the whole run is still here (wbufOff is 0) and the
	// section keeps its header, and which flushPages skips. Run offsets
	// count that room whether or not the file holds the header (fileOff).
	wbuf    []byte
	wbufOff int64
	hdrLen  int64
	// lastLen is the length of the page framed last were it cut to its
	// payload, CRC included: once Finish has framed the root, the root's
	// (cutRoot).
	lastLen int

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
// Writer, concurrently with the others or interleaved on one goroutine, all
// in one format. The file holds the pages of its sections first, back to
// back in slot order and without padding, then their Bloom filters in the
// same order. The first section's header claims every byte before the
// filters as its grid, so that the file opened whole (Open) reads as its
// first run; its own pages end at its root page. A later FormatDelta
// section leaves its header out of the file and starts with its first leaf
// (Header.FirstPage 1), its header carried by the caller; a later raw
// section keeps its page and a header that is what a run of its own would
// have. Where a section's pages start, and so whether it is the first, is
// known once every lower slot is settled — its Writer finished, or known
// to stay empty (Skip). Page numbers do not depend on it: a section numbers
// its pages from 1 and holds its header's room blank until then. Nothing
// waits for that: a section that outgrows its write buffer before then
// keeps framing pages into it and hands them to the file at the first
// buffer boundary after its place is known, or leaves them to Finish.
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
	hdrLen := int64(storage.PageSize)
	switch format {
	case FormatRaw:
	case FormatDelta:
		if recordSize%8 != 0 || recordSize > MaxDeltaRecordSize {
			return nil, fmt.Errorf("btree: delta format needs a record size that is a multiple of 8 up to %d, got %d", MaxDeltaRecordSize, recordSize)
		}
		hdrLen = shortHeaderLen
	case formatDeltaV5:
		return nil, fmt.Errorf("btree: run format %d is read-only", format)
	default:
		return nil, fmt.Errorf("btree: unknown run format %d", format)
	}
	w := &Writer{
		fw:       fw,
		slot:     slot,
		recSize:  recordSize,
		format:   format,
		leafBuf:  make([]byte, 0, pagePayload),
		perLeaf:  pagePayload / recordSize,
		nextPage: 1,
		wbuf:     make([]byte, hdrLen, hdrLen+storage.PageSize),
		hdrLen:   hdrLen,
		id:       readerIDs.Add(1),
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.secs[slot] != nil || fw.empty[slot] {
		return nil, fmt.Errorf("btree: slot %d already has a run or was skipped", slot)
	}
	for s, o := range fw.secs {
		if o != nil && o.format != format {
			return nil, fmt.Errorf("btree: a %v run in slot %d of a file whose slot %d holds a %v run", format, slot, s, o.format)
		}
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
			h.FirstPage = FirstPageAt(w.format, off)
			off += h.ownBytes()
		}
	}
	return off, true
}

// FirstPageAt returns the first page of a run of format f that its file
// holds when the run's pages start at off in it: page 1 for a delta section
// after its file's first, which starts with its first leaf; 0, its header,
// for every other run.
func FirstPageAt(f Format, off int64) uint64 {
	if off > 0 && f.delta() {
		return 1
	}
	return 0
}

// Layout is where a FileWriter put its file's parts: the pages of its
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
		w.first = FirstPageAt(w.format, off)
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
		if off == 0 { // the whole run, its header's room blank in front
			if w.first == 0 {
				w.putHeader(buf[:w.hdrLen])
			} else {
				off, buf = w.hdrLen, buf[w.hdrLen:]
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
			header := make([]byte, w.hdrLen)
			w.putHeader(header)
			if _, err := fw.f.WriteAt(header, w.pageOff); err != nil {
				return fmt.Errorf("btree: writing header: %w", err)
			}
		}
		w.wbuf, w.bloom = nil, nil
	}
	return fw.f.Sync()
}

// A Section is where a file holds one run's pages, its header first if the
// file holds it, and the run's header, whose format and first page say how
// that range is cut into pages (CheckFile).
type Section struct {
	Pages  storage.Extent
	Header Header
}

// CheckFile verifies the part of a file that l describes, whose runs secs
// place: every page of every section passes its checksum, its header's
// included, and the filters' bytes theirs. A format-6 section's range is
// its short header if it holds one (Header.FirstPage), then 4 KB pages,
// the last cut to what the range leaves it; any other section's range is
// whole 4 KB pages. A file whose pages reached the disk in any order but
// not all of them fails it. That secs lie within the pages l describes is
// the caller's to have checked.
func CheckFile(f storage.File, l Layout, secs []Section) error {
	if l.Pages < 0 || l.End < l.Pages {
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
	for _, s := range secs {
		off, end := s.Pages.Off, s.Pages.Off+s.Pages.Len
		cut := s.Header.Format == FormatDelta
		if cut && s.Header.FirstPage == 0 {
			header := buf[:min(shortHeaderLen, s.Pages.Len)]
			if err := read(header, off); err != nil {
				return err
			}
			if !frameOK(header) {
				return fmt.Errorf("%w: the header fails its checksum", ErrCorrupt)
			}
			off += int64(len(header))
		}
		for off < end {
			chunk := buf[:min(int64(len(buf)), end-off)]
			if err := read(chunk, off); err != nil {
				return err
			}
			for p := 0; p < len(chunk); p += storage.PageSize {
				page := chunk[p:min(p+storage.PageSize, len(chunk))]
				if len(page) < storage.PageSize && !cut || !frameOK(page) {
					return fmt.Errorf("%w: page at %d fails its checksum", ErrCorrupt, off+int64(p))
				}
			}
			off += int64(len(chunk))
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

// frameOK reports whether b, a page or a header at its length, ends with
// the CRC-32C of the bytes before it.
func frameOK(b []byte) bool {
	n := len(b) - pageCRCLen
	return n >= 0 && binary.LittleEndian.Uint32(b[n:]) == crc32.Checksum(b[:n], castagnoli)
}

// Extents returns where the file put the run: its pages, header included
// if the file holds it (Header.FirstPage), and its filter. Valid after the
// file's Place.
func (w *Writer) Extents() (pages, filter storage.Extent) {
	return storage.Extent{Off: w.pageOff, Len: w.h.ownBytes()},
		storage.Extent{Off: w.filterOff, Len: int64(w.h.FilterLen)}
}

// fileOff returns the file offset of run offset off, once the run's place
// is known: a run that starts at page 1 has no header's room in the file.
func (w *Writer) fileOff(off int64) int64 {
	if w.first == 1 {
		off -= w.hdrLen
	}
	return w.pageOff + off
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
	if w.count == 0 && w.format == FormatRaw {
		w.minKey = append([]byte(nil), rec...) // for the header page
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

	h := Header{
		Format:     w.format,
		RecordSize: w.recSize,
		Records:    w.count,
		LeafStart:  1,
		LeafPages:  leafPages,
		Levels:     levels,
		RootPage:   rootPage,
		FilterLen:  uint64(len(bloomBytes)),
	}
	if w.format == FormatDelta {
		// Raw headers stay as v1 always wrote them: the field zero.
		h.FilterCRC = crc32.Checksum(bloomBytes, castagnoli)
		w.cutRoot()
		h.RootLen = uint64(w.lastLen)
	}
	h.FilterOff = uint64(h.ownBytes()) // the file's Place settles it

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

// SizeBytes returns the finished run's physical size (header if the file
// holds it, data and index pages, and Bloom filter). Valid once the file is
// placed: after Finish for a run that is its file, after the FileWriter's
// Place for a section.
func (w *Writer) SizeBytes() int64 { return w.sizeBytes }

// writePage frames one page — count, payload, zero padding, CRC-32C — as
// page w.nextPage at the end of the write buffer, flushing the buffer
// first at every writeBufPages-th page, and writes it through to the cache
// (see WriteThrough). packed marks a delta leaf, whose payload has the
// slack leafShape.pack leaves.
func (w *Writer) writePage(count uint16, payload []byte, packed bool) error {
	if len(payload) > pagePayload {
		return fmt.Errorf("btree: page payload %d exceeds %d", len(payload), pagePayload)
	}
	if w.nextPage%writeBufPages == 0 {
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
	w.lastLen = pageCountLen + len(payload) + pageCRCLen
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

// cutRoot cuts the page framed last, the root, to its length: its count
// and payload, then its CRC where a 4 KB page has its padding.
func (w *Writer) cutRoot() {
	root := w.wbuf[len(w.wbuf)-storage.PageSize:][:w.lastLen]
	n := w.lastLen - pageCRCLen
	binary.LittleEndian.PutUint32(root[n:], crc32.Checksum(root[:n], castagnoli))
	w.wbuf = w.wbuf[:len(w.wbuf)-storage.PageSize+w.lastLen]
}

// flushPages hands the buffered bytes to the file in one write, less the
// header's room at the front of the first buffer: the header of a run that
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
		w.pageOff, w.first = base, FirstPageAt(w.format, base)
		buf, w.wbufOff = buf[w.hdrLen:], w.hdrLen
	}
	if len(buf) > 0 {
		if _, err := w.fw.f.WriteAt(buf, w.fileOff(w.wbufOff)); err != nil {
			return fmt.Errorf("btree: writing %d bytes at run offset %d: %w", len(buf), w.wbufOff, err)
		}
	}
	w.wbufOff += int64(len(buf))
	w.wbuf = w.wbuf[:0]
	return nil
}

// putHeader fills b, zeroed and w.hdrLen long, with the header of the run
// w finished: its Header, then in a header page its smallest and largest
// records, or in a format-6 header its root's length; then the CRC.
func (w *Writer) putHeader(b []byte) {
	h := w.h
	copy(b[:8], magic)
	le := binary.LittleEndian
	le.PutUint32(b[8:], uint32(h.Format))
	le.PutUint32(b[12:], uint32(h.RecordSize))
	le.PutUint64(b[16:], h.Records)
	le.PutUint64(b[24:], h.LeafStart)
	le.PutUint64(b[32:], h.LeafPages)
	le.PutUint32(b[40:], h.Levels)
	le.PutUint32(b[44:], h.FilterCRC)
	le.PutUint64(b[48:], h.RootPage)
	le.PutUint64(b[56:], h.FilterOff)
	le.PutUint64(b[64:], h.FilterLen)
	if h.Format == FormatDelta {
		le.PutUint32(b[headerFixedLen:], uint32(h.RootLen))
	} else {
		copy(b[headerFixedLen:], w.minKey)
		copy(b[headerFixedLen+h.RecordSize:], w.prevKey)
	}
	n := len(b) - pageCRCLen
	le.PutUint32(b[n:], crc32.Checksum(b[:n], castagnoli))
}

// headerLen returns the bytes of the run's range before its page 1: its
// header — format 6's short one, or a 4 KB page — unless the file starts
// the run at page 1 (FirstPage).
func (h Header) headerLen() uint64 {
	switch {
	case h.FirstPage == 1:
		return 0
	case h.Format == FormatDelta:
		return shortHeaderLen
	}
	return storage.PageSize
}

// PageExtent returns where page p of the run, 1 through its root, lies in
// the run's range: 4 KB, but for a format-6 root, cut to its length.
func (h Header) PageExtent(p uint64) storage.Extent {
	e := storage.Extent{Off: int64(h.headerLen() + (p-1)*storage.PageSize), Len: storage.PageSize}
	if p == h.RootPage && h.Format == FormatDelta {
		e.Len = int64(h.RootLen)
	}
	return e
}

// ownBytes returns the bytes of the run's own pages in its file: its
// header unless the file starts the run at page 1 (FirstPage), then every
// page through the root, which a writer writes last. The first run of a
// file that holds several claims more (FileWriter.Place).
func (h Header) ownBytes() int64 {
	root := h.PageExtent(h.RootPage)
	return root.Off + root.Len
}

// WithOwnBytes returns h, a header a manifest carried, with what the
// length of its run's own pages implies, own bytes from its first: in
// format 6, where its root ends. A length that cannot hold the root's
// start leaves it a root length of 0, which check refuses.
func (h Header) WithOwnBytes(own int64) Header {
	if h.Format != FormatDelta {
		return h
	}
	h.RootLen = 0
	if before := h.headerLen(); own >= 0 && uint64(own) >= before && h.RootPage > 0 && h.RootPage-1 <= (uint64(own)-before)/storage.PageSize {
		h.RootLen = uint64(own - h.PageExtent(h.RootPage).Off)
	}
	return h
}

// readHeader reads and checks the header at the start of the run in f: a
// format-6 short header, or a header page.
func readHeader(f storage.File) (Header, error) {
	var page [storage.PageSize]byte
	n, err := f.ReadAt(page[:], 0)
	if err != nil && !errors.Is(err, io.EOF) {
		return Header{}, fmt.Errorf("btree: reading header: %w", err)
	}
	h, err := decodeHeader(page[:n])
	if err != nil {
		return Header{}, err
	}
	if err := h.check(f); err != nil {
		return Header{}, err
	}
	return h, nil
}

// decodeHeader returns the Header at the start of b — a format-6 short
// header, or a 4 KB header page — once its checksum and magic check; its
// fields are check's to judge. A version above format 6 is refused by name
// and nothing more is read: this binary knows neither how long its header
// is nor what it holds.
func decodeHeader(b []byte) (Header, error) {
	le := binary.LittleEndian
	if len(b) < shortHeaderLen {
		return Header{}, fmt.Errorf("%w: a header of %d bytes", ErrCorrupt, len(b))
	}
	format := Format(le.Uint32(b[8:]))
	if format > FormatDelta && string(b[:8]) == magic {
		return Header{}, newer(format)
	}
	if format != FormatDelta {
		if len(b) < storage.PageSize {
			return Header{}, fmt.Errorf("%w: a header page of %d bytes", ErrCorrupt, len(b))
		}
		b = b[:storage.PageSize]
	} else {
		b = b[:shortHeaderLen]
	}
	if !frameOK(b) {
		return Header{}, fmt.Errorf("%w: header checksum", ErrCorrupt)
	}
	if string(b[:8]) != magic {
		return Header{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	h := Header{
		Format:     format,
		RecordSize: int(le.Uint32(b[12:])),
		Records:    le.Uint64(b[16:]),
		LeafStart:  le.Uint64(b[24:]),
		LeafPages:  le.Uint64(b[32:]),
		Levels:     le.Uint32(b[40:]),
		FilterCRC:  le.Uint32(b[44:]),
		RootPage:   le.Uint64(b[48:]),
		FilterOff:  le.Uint64(b[56:]),
		FilterLen:  le.Uint64(b[64:]),
	}
	if format == FormatDelta {
		h.RootLen = uint64(le.Uint32(b[headerFixedLen:]))
	}
	return h, nil
}

// newer is the refusal of a run in format f, newer than this binary.
func newer(f Format) error {
	return fmt.Errorf("btree: run %w: version %d (this binary reads up to %d)", ErrNewerFormat, uint32(f), uint32(FormatDelta))
}

// retired names, for each run format this binary no longer reads, the
// last binary that reads it and writes a format this one reads: the
// upgrader (internal/core/testdata/upgrade) is built at that commit.
var retired = map[Format]string{2: "0ea923b", 3: "8d5575c", 4: "8d5575c"}

// check holds h against the run file f, whether the file or a manifest
// carried it: a readable format, a record size that format can hold, and a
// geometry that describes f — nothing a Reader does may size a read or an
// allocation from a field that was not checked against the file's size. A
// run the file starts at page 1 must be of a delta format, which alone
// leaves a section's header out, and its pages must end where its grid
// does; a format-6 root must hold a count and a CRC and fit a page.
func (h Header) check(f storage.File) error {
	switch commit, ok := retired[h.Format]; {
	case ok:
		return fmt.Errorf("btree: run format %d is no longer read: open the store once with a binary of commit %s, run Checkpoint and MaintainNow, and close it, as internal/core/testdata/upgrade does", uint32(h.Format), commit)
	case h.Format > FormatDelta:
		return newer(h.Format)
	case h.Format != FormatRaw && !h.Format.delta():
		return fmt.Errorf("btree: run format %d was never written", uint32(h.Format))
	}
	if h.RecordSize <= 0 || h.RecordSize > MaxRecordSize {
		return fmt.Errorf("%w: record size %d", ErrCorrupt, h.RecordSize)
	}
	if h.Format.delta() && (h.RecordSize%8 != 0 || h.RecordSize > MaxDeltaRecordSize) {
		return fmt.Errorf("%w: delta run with record size %d", ErrCorrupt, h.RecordSize)
	}
	if h.FirstPage > 1 || h.FirstPage == 1 && !h.Format.delta() {
		return fmt.Errorf("%w: a format-%d run whose file starts at its page %d", ErrCorrupt, uint32(h.Format), h.FirstPage)
	}
	if h.Format == FormatDelta && (h.RootLen <= pageCountLen+pageCRCLen || h.RootLen > storage.PageSize) || h.Format != FormatDelta && h.RootLen != 0 {
		return fmt.Errorf("%w: a format-%d root of %d bytes", ErrCorrupt, uint32(h.Format), h.RootLen)
	}
	size, err := f.Size()
	if err != nil {
		return fmt.Errorf("btree: sizing run: %w", err)
	}
	if h.FilterOff > uint64(size) || h.FilterLen > uint64(size)-h.FilterOff || h.FilterOff < h.headerLen() {
		return fmt.Errorf("%w: filter at %d+%d in a %d-byte file", ErrCorrupt, h.FilterOff, h.FilterLen, size)
	}
	// The grid is the bytes before the filter, the header's first; end is
	// one past the last page it holds: in format 6 the root, which ends
	// within it, and before it the last 4 KB page it holds.
	grid := h.FilterOff - h.headerLen()
	var end uint64
	if h.Format == FormatDelta {
		if h.RootPage == 0 || h.RootPage-1 > grid/storage.PageSize || uint64(h.ownBytes()) > h.FilterOff {
			return fmt.Errorf("%w: root page %d of %d bytes past a grid of %d bytes from page %d", ErrCorrupt, h.RootPage, h.RootLen, h.FilterOff, h.FirstPage)
		}
		end = h.RootPage + 1
	} else {
		if grid%storage.PageSize != 0 {
			return fmt.Errorf("%w: filter at %d, off the page grid", ErrCorrupt, h.FilterOff)
		}
		end = grid/storage.PageSize + 1
	}
	switch {
	case h.LeafStart == 0 || h.LeafPages == 0 || h.LeafPages >= end || h.LeafStart > end-h.LeafPages:
		return fmt.Errorf("%w: leaf pages %d+%d in a grid of %d bytes from page %d", ErrCorrupt, h.LeafStart, h.LeafPages, h.FilterOff, h.FirstPage)
	case h.RootPage == 0 || h.RootPage >= end || h.Levels > maxLevels || (h.Levels == 0) != (h.LeafPages == 1):
		return fmt.Errorf("%w: root page %d over %d levels and %d leaves in a grid of %d bytes from page %d", ErrCorrupt, h.RootPage, h.Levels, h.LeafPages, h.FilterOff, h.FirstPage)
	case h.FirstPage == 1 && uint64(h.ownBytes()) != h.FilterOff:
		// Only a file's first section claims other runs' pages, for a
		// tool that opens the file whole through its header.
		return fmt.Errorf("%w: a run without its header holds %d bytes, not its %d through the root", ErrCorrupt, h.FilterOff, h.ownBytes())
	}
	return nil
}
