package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/backlogfs/backlog/internal/storage"
)

// readerIDs issues unique cache identities: one per opened run, and one per
// Writer, which its run's Reader inherits.
var readerIDs atomic.Uint64

// Reader provides point lookups and ordered iteration over a finished run.
type Reader struct {
	f     storage.File
	h     Header
	cache *Cache
	id    uint64

	// noFill makes cache misses leave the cache as it is (see NoFill).
	noFill bool

	// decodeObs, when set, receives the wall time of the pass that
	// validates each delta leaf read from storage (cache misses only).
	decodeObs func(time.Duration)
}

// Open validates the run header at the start of f and returns a Reader. The
// cache may be nil, in which case every page access hits storage.
func Open(f storage.File, cache *Cache) (*Reader, error) {
	h, err := readHeader(f)
	if err != nil {
		return nil, err
	}
	return newReader(f, h, cache, readerIDs.Add(1)), nil
}

// OpenHeader returns a Reader over the run in f that h describes, reading
// nothing: h is a header a manifest carried for the run, held against the
// file as Open holds the page's (the manifest's checksum stands in for the
// page's). The cache may be nil.
func OpenHeader(f storage.File, h Header, cache *Cache) (*Reader, error) {
	if err := h.check(f); err != nil {
		return nil, err
	}
	return newReader(f, h, cache, readerIDs.Add(1)), nil
}

// Open returns a Reader over the run w has finished, from the header the
// builder still holds: nothing is read. f must address the file w wrote.
// The Reader takes w's cache identity, so the pages w wrote through to the
// cache (see WriteThrough) are its own.
func (w *Writer) Open(f storage.File, cache *Cache) *Reader {
	return newReader(f, w.h, cache, w.id)
}

func newReader(f storage.File, h Header, cache *Cache, id uint64) *Reader {
	return &Reader{f: f, h: h, cache: cache, id: id}
}

// SetDecodeObserver installs a callback receiving, once per delta leaf
// page read from storage, the latency of the pass that validates it
// (observability wiring; may be nil).
func (r *Reader) SetDecodeObserver(fn func(time.Duration)) { r.decodeObs = fn }

// WithFile returns a shallow copy of the Reader that issues its page reads
// through f but shares the original's header, cache identity, and decode
// observer. The caller must ensure f addresses the same bytes as the
// original file (e.g. a purpose-tagged handle over it): cached pages are
// keyed by the shared reader id, so the copies fill and hit one cache
// entry set between them.
func (r *Reader) WithFile(f storage.File) *Reader {
	c := *r
	c.f = f
	return &c
}

// NoFill returns a shallow copy of the Reader that is served from the cache
// on a hit but does not insert the pages it misses (LevelDB's
// fill_cache=false): a one-pass scan through it cannot evict the working
// set of the seeks that share the cache. A page it misses is read and
// checked as any reader's is.
func (r *Reader) NoFill() *Reader {
	c := *r
	c.noFill = true
	return &c
}

// CacheID returns the identity the Reader's pages are cached under, shared
// by its WithFile and NoFill copies and by the Writer that built the run.
func (r *Reader) CacheID() uint64 { return r.id }

// Format returns the run's leaf encoding: FormatRaw, FormatDelta, or the
// previous delta format, v5, which is only ever read.
func (r *Reader) Format() Format { return r.h.Format }

// RecordSize returns the fixed record size of the run.
func (r *Reader) RecordSize() int { return r.h.RecordSize }

// RecordCount returns the number of records in the run.
func (r *Reader) RecordCount() uint64 { return r.h.Records }

// Header returns the run's header, which OpenHeader opens the run from.
func (r *Reader) Header() Header { return r.h }

// SizeBytes returns the run's own size: its pages through the root page,
// its header if the file holds it, and its Bloom filter — the whole file,
// for a run that is one. The first run of a file that holds several claims
// the other runs' pages in its grid (Header.FilterOff) but does not own
// them.
func (r *Reader) SizeBytes() int64 {
	return r.h.ownBytes() + int64(r.h.FilterLen)
}

// BloomBytes reads the serialized Bloom filter, or nil if none was stored.
// A delta run's header carries the filter's checksum, and bytes that fail
// it come back as an ErrCorrupt-wrapped error: a flipped filter bit is a
// false negative, an owner silently missing from an answer. A raw header
// stores no checksum.
func (r *Reader) BloomBytes() ([]byte, error) {
	if r.h.FilterLen == 0 {
		return nil, nil
	}
	buf := make([]byte, r.h.FilterLen) // at most the file's size, see Header.check
	if _, err := r.f.ReadAt(buf, int64(r.h.FilterOff)); err != nil && err != io.EOF {
		return nil, fmt.Errorf("btree: reading bloom: %w", err)
	}
	if r.h.Format.delta() && crc32.Checksum(buf, castagnoli) != r.h.FilterCRC {
		return nil, fmt.Errorf("%w: bloom filter checksum", ErrCorrupt)
	}
	return buf, nil
}

// scratchPool holds the 4 KB buffers a page miss reads the file into.
var scratchPool = sync.Pool{New: func() any { return new([storage.PageSize]byte) }}

// readPage returns a verified page — leaf or internal — from the cache or,
// on a miss, from storage. A page read from storage is checked here and
// kept at its used length, so the cache is charged what the page pins: an
// internal page or a raw leaf its count of fixed-stride entries, a delta
// leaf its packed payload, whose every record the miss has checked (see
// leaf.check). Nothing returned may be modified.
func (r *Reader) readPage(pageNo uint64) (*page, error) {
	if r.cache != nil {
		if p := r.cache.get(r.id, pageNo); p != nil {
			return p, nil
		}
	}
	buf := scratchPool.Get().(*[storage.PageSize]byte)
	defer scratchPool.Put(buf)
	payload, count, err := r.readPageRaw(buf, pageNo)
	if err != nil {
		return nil, err
	}
	p := &page{count: count}
	switch {
	case pageNo-r.h.LeafStart >= r.h.LeafPages: // internal
		p.payload, err = entries(payload, count, r.h.RecordSize+8)
	case !r.h.Format.delta():
		p.payload, err = entries(payload, count, r.h.RecordSize)
	default:
		err = r.unpack(p, payload)
	}
	if err != nil {
		return nil, fmt.Errorf("btree: page %d: %w", pageNo, err)
	}
	if r.cache != nil && !r.noFill {
		r.cache.put(r.id, pageNo, p)
	}
	return p, nil
}

// entriesLen returns the bytes count fixed-stride entries occupy — an
// internal page's or a raw leaf's — rejecting a count field that runs past
// the payload, or is zero: no writer leaves a page empty, and a descent
// takes an internal page's first entry unasked.
func entriesLen(payload []byte, count, stride int) (int, error) {
	if count == 0 || count*stride > len(payload) {
		return 0, fmt.Errorf("%w: %d entries of %d bytes", ErrCorrupt, count, stride)
	}
	return count * stride, nil
}

// entries returns a copy of the bytes count fixed-stride entries occupy
// (see entriesLen).
func entries(payload []byte, count, stride int) ([]byte, error) {
	used, err := entriesLen(payload, count, stride)
	if err != nil {
		return nil, err
	}
	out := make([]byte, used)
	copy(out, payload)
	return out, nil
}

// unpack gives the delta leaf p, read as payload, a copy of its packed
// form, with its header parsed and every record checked.
func (r *Reader) unpack(p *page, payload []byte) (err error) {
	var start time.Time
	if r.decodeObs != nil {
		start = time.Now()
	}
	var used int
	if p.leaf, used, err = parseLeaf(payload, p.count, r.h.RecordSize); err != nil {
		return err
	}
	p.payload = make([]byte, used, used+8)
	copy(p.payload, payload)
	if err := p.leaf.check(p.payload, p.count); err != nil {
		return err
	}
	if r.decodeObs != nil {
		r.decodeObs(time.Since(start))
	}
	return nil
}

// readPageRaw reads a page from storage into buf — at its length, which is
// 4 KB but for a format-6 root — and verifies its CRC, bypassing the
// cache. The payload it returns aliases buf.
func (r *Reader) readPageRaw(buf *[storage.PageSize]byte, pageNo uint64) (payload []byte, count int, err error) {
	if pageNo == 0 || pageNo > r.h.RootPage {
		// Only a child pointer can ask: the header's own numbers were
		// checked against the file, and the root is the last page.
		return nil, 0, fmt.Errorf("%w: page %d of a run whose root is page %d", ErrCorrupt, pageNo, r.h.RootPage)
	}
	e := r.h.PageExtent(pageNo)
	page := buf[:e.Len]
	n, err := r.f.ReadAt(page, e.Off)
	if err != nil && err != io.EOF {
		return nil, 0, fmt.Errorf("btree: reading page %d: %w", pageNo, err)
	}
	clear(page[n:]) // a short read fails the CRC, whatever buf held before
	if !frameOK(page) {
		return nil, 0, fmt.Errorf("%w: page %d checksum", ErrCorrupt, pageNo)
	}
	return page[pageCountLen : len(page)-pageCRCLen],
		int(binary.LittleEndian.Uint16(page[:2])), nil
}

// findLeaf descends from the root to the leaf page that may contain the
// first record >= key.
func (r *Reader) findLeaf(key []byte) (uint64, error) {
	if r.h.Levels == 0 {
		return r.h.LeafStart, nil
	}
	pageNo := r.h.RootPage
	entrySize := r.h.RecordSize + 8
	for level := int(r.h.Levels); level > 0; level-- {
		pg, err := r.readPage(pageNo)
		if err == nil {
			// A damaged header can send the descent through any page, a
			// leaf kept at its own length included.
			_, err = entriesLen(pg.payload, pg.count, entrySize)
		}
		if err != nil {
			return 0, err
		}
		// Find the last entry with key <= target; if the target sorts
		// before every separator, take the first child (SeekGE then
		// starts at the level's smallest records).
		idx := max(countLE(pg.payload, entrySize, pg.count, key)-1, 0)
		pageNo = binary.LittleEndian.Uint64(pg.payload[idx*entrySize+r.h.RecordSize:])
	}
	return pageNo, nil
}

// countLE returns how many of the n ascending stride-byte entries of buf
// begin with a key <= target.
func countLE(buf []byte, stride, n int, target []byte) int {
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(buf[mid*stride:mid*stride+len(target)], target) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Iterator yields records in ascending order. Over a raw run it slices
// records out of the page; over a delta run it is a cursor over the packed
// leaf that decodes one record per Next into its own buffer.
type Iterator struct {
	r      *Reader
	pageNo uint64
	*page
	idx  int // records of the current page consumed so far
	done bool

	// Packed cursor state (rec is nil over a raw run): rec holds record
	// idx-1 of the page, block is that record's block (the page's first
	// block before record 0), and pending marks rec as found by SeekGE but
	// not yet returned.
	rec     []byte
	block   uint64
	pending bool
}

func (r *Reader) newIterator(pageNo uint64) (*Iterator, error) {
	it := &Iterator{r: r, pageNo: pageNo}
	if r.h.Format.delta() {
		it.rec = make([]byte, r.h.RecordSize)
	}
	if err := it.loadPage(); err != nil {
		return nil, err
	}
	return it, nil
}

// First returns an iterator positioned at the first record.
func (r *Reader) First() (*Iterator, error) {
	return r.newIterator(r.h.LeafStart)
}

// SeekGE returns an iterator positioned at the first record >= key.
func (r *Reader) SeekGE(key []byte) (*Iterator, error) {
	if len(key) != r.h.RecordSize {
		return nil, fmt.Errorf("btree: seek key size %d, want %d", len(key), r.h.RecordSize)
	}
	leafNo, err := r.findLeaf(key)
	if err != nil {
		return nil, err
	}
	it, err := r.newIterator(leafNo)
	if err != nil || it.done {
		return it, err
	}
	if it.rec != nil {
		it.idx, it.block = it.leaf.seek(it.payload, it.count, key)
		if it.pending = it.idx < it.count; it.pending {
			it.decodeNext()
			return it, nil
		}
	} else {
		// Binary search within the raw leaf for the first record >= key.
		rs := r.h.RecordSize
		lo, hi := 0, it.count
		for lo < hi {
			mid := (lo + hi) / 2
			if bytes.Compare(it.payload[mid*rs:(mid+1)*rs], key) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		it.idx = lo
	}
	if it.idx == it.count {
		// Key is past this leaf; advance to the next one.
		if err := it.advancePage(); err != nil {
			return nil, err
		}
	}
	return it, nil
}

func (it *Iterator) loadPage() error {
	if it.pageNo >= it.r.h.LeafStart+it.r.h.LeafPages {
		it.done = true
		return nil
	}
	p, err := it.r.readPage(it.pageNo)
	if err != nil {
		return err
	}
	it.page, it.idx, it.block = p, 0, p.leaf.base[0]
	return nil
}

func (it *Iterator) advancePage() error {
	it.pageNo++
	return it.loadPage()
}

// decodeNext advances the packed cursor by one record, which the page's
// miss has checked (see leaf.check).
func (it *Iterator) decodeNext() {
	it.block = it.leaf.record(it.payload, it.idx, it.block, it.rec)
	it.idx++
}

// Next returns the next record, or ok=false at the end. The returned slice
// aliases an internal buffer and is valid only until the next call.
func (it *Iterator) Next() (rec []byte, ok bool, err error) {
	if it.pending {
		it.pending = false
		return it.rec, true, nil
	}
	if it.done {
		return nil, false, nil
	}
	if it.idx >= it.count {
		if err := it.advancePage(); err != nil {
			return nil, false, err
		}
		if it.done {
			return nil, false, nil
		}
	}
	if it.rec != nil {
		it.decodeNext()
		return it.rec, true, nil
	}
	rs := it.r.h.RecordSize
	rec = it.payload[it.idx*rs : (it.idx+1)*rs]
	it.idx++
	return rec, true, nil
}
