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

	// next decodes one leaf record of a delta run (nil over a raw run),
	// chosen once from the header's format.
	next deltaDecoder

	// noFill makes cache misses leave the cache as it is (see NoFill).
	noFill bool

	// decodeObs, when set, receives the wall time of the validate-and-sample
	// pass over each delta-encoded leaf page (cache misses only).
	decodeObs func(time.Duration)
}

// Open validates the run header in f and returns a Reader. The cache may be
// nil, in which case every page access hits storage.
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
	return &Reader{f: f, h: h, cache: cache, id: id, next: decoderFor(h.Format)}
}

// SetDecodeObserver installs a callback receiving, once per delta leaf
// page read from storage, the latency of the pass that validates it and
// samples its restart table (observability wiring; may be nil).
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
// set of the seeks that share the cache. Nobody would keep the restart
// table of a page it misses either, so a FormatDelta leaf is not sampled:
// the cursor's decoder makes every check of the validating pass record by
// record, and the leaf is decoded once.
func (r *Reader) NoFill() *Reader {
	c := *r
	c.noFill = true
	return &c
}

// CacheID returns the identity the Reader's pages are cached under, shared
// by its WithFile and NoFill copies and by the Writer that built the run.
func (r *Reader) CacheID() uint64 { return r.id }

// Format returns the run's leaf encoding: FormatRaw, FormatDelta, or the
// previous delta format, which is only ever read.
func (r *Reader) Format() Format { return r.h.Format }

// RecordSize returns the fixed record size of the run.
func (r *Reader) RecordSize() int { return r.h.RecordSize }

// RecordCount returns the number of records in the run.
func (r *Reader) RecordCount() uint64 { return r.h.Records }

// Header returns the run's header, which OpenHeader opens the run from.
func (r *Reader) Header() Header { return r.h }

// Pages returns the number of 4 KB pages of the page grid the header
// claims (header + leaves + internal levels), excluding the trailing bloom
// bytes.
func (r *Reader) Pages() uint64 { return r.h.FilterOff / storage.PageSize }

// SizeBytes returns the run's own size: its pages through the root page
// and its Bloom filter — the whole file, for a run that is one. The first
// run of a file that holds several claims the other runs' pages in its
// grid (Pages) but does not own them.
func (r *Reader) SizeBytes() int64 {
	return r.h.ownBytes() + int64(r.h.FilterLen)
}

// BloomBytes reads the serialized Bloom filter, or nil if none was stored.
// A FormatDelta header carries the filter's checksum, and bytes that fail
// it come back as an ErrCorrupt-wrapped error: a flipped filter bit is a
// false negative, an owner silently missing from an answer. Older formats
// stored no checksum.
func (r *Reader) BloomBytes() ([]byte, error) {
	if r.h.FilterLen == 0 {
		return nil, nil
	}
	buf := make([]byte, r.h.FilterLen) // at most the file's size, see Header.check
	if _, err := r.f.ReadAt(buf, int64(r.h.FilterOff)); err != nil && err != io.EOF {
		return nil, fmt.Errorf("btree: reading bloom: %w", err)
	}
	if r.h.Format == FormatDelta && crc32.Checksum(buf, castagnoli) != r.h.FilterCRC {
		return nil, fmt.Errorf("%w: bloom filter checksum", ErrCorrupt)
	}
	return buf, nil
}

// pageScratch is what a page miss works in before it knows how much of the
// page to keep: the 4 KB the file is read into and the restart table as it
// grows.
type pageScratch struct {
	buf   [storage.PageSize]byte
	table restartTable
}

var scratchPool = sync.Pool{New: func() any { return new(pageScratch) }}

// readPage returns a verified page — leaf or internal, in its on-disk
// encoding — from the cache or, on a miss, from storage. A page read from
// storage is checked here and kept at its used length, so the cache is
// charged what the page pins: an internal page or a raw leaf its count of
// fixed-stride entries, a delta leaf the bytes its validating pass
// consumed. That pass also samples the restart table the leaf is cached
// with — except over a FormatDelta leaf missed by a NoFill reader, which
// comes back whole and without a table for the cursor to validate as it
// streams. Nothing returned may be modified.
func (r *Reader) readPage(pageNo uint64) (*page, error) {
	if r.cache != nil {
		if p := r.cache.get(r.id, pageNo); p != nil {
			return p, nil
		}
	}
	s := scratchPool.Get().(*pageScratch)
	defer scratchPool.Put(s)
	payload, count, err := r.readPageRaw(&s.buf, pageNo)
	if err != nil {
		return nil, err
	}
	p := &page{count: count}
	used := len(payload)
	switch {
	case pageNo-r.h.LeafStart >= r.h.LeafPages: // internal
		used, err = entriesLen(payload, count, r.h.RecordSize+8)
	case r.next == nil:
		used, err = entriesLen(payload, count, r.h.RecordSize)
	case r.noFill && r.h.Format == FormatDelta:
		err = checkLeafCount(payload, count)
	default:
		used, err = r.sample(p, payload, s)
	}
	if err != nil {
		return nil, fmt.Errorf("btree: page %d: %w", pageNo, err)
	}
	p.payload = make([]byte, used)
	copy(p.payload, payload)
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

// sample gives the delta leaf p, read as payload, its validating pass and
// restart table and returns the payload bytes the leaf's records occupy.
func (r *Reader) sample(p *page, payload []byte, s *pageScratch) (used int, err error) {
	var start time.Time
	if r.decodeObs != nil {
		start = time.Now()
	}
	if used, err = sampleRestarts(&s.table, payload, p.count, r.h.RecordSize, r.next); err != nil {
		return 0, err
	}
	p.restarts = s.table.finish(r.h.RecordSize)
	if r.decodeObs != nil {
		r.decodeObs(time.Since(start))
	}
	return used, nil
}

// readPageRaw reads a page from storage into buf and verifies its CRC,
// bypassing the cache. The payload it returns aliases buf.
func (r *Reader) readPageRaw(buf *[storage.PageSize]byte, pageNo uint64) (payload []byte, count int, err error) {
	if pageNo >= r.Pages() {
		// Only a child pointer can ask: the header's own numbers were
		// checked against the file.
		return nil, 0, fmt.Errorf("%w: page %d of a %d-page run", ErrCorrupt, pageNo, r.Pages())
	}
	page := buf[:]
	n, err := r.f.ReadAt(page, int64(pageNo)*storage.PageSize)
	if err != nil && err != io.EOF {
		return nil, 0, fmt.Errorf("btree: reading page %d: %w", pageNo, err)
	}
	clear(page[n:]) // a short read fails the CRC, whatever buf held before
	crc := crc32.Checksum(page[:storage.PageSize-pageCRCLen], castagnoli)
	if binary.LittleEndian.Uint32(page[storage.PageSize-pageCRCLen:]) != crc {
		return nil, 0, fmt.Errorf("%w: page %d checksum", ErrCorrupt, pageNo)
	}
	return page[pageCountLen : storage.PageSize-pageCRCLen],
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
// records out of the page; over a delta run it is a streaming cursor that
// decodes one record per Next into its own buffer.
type Iterator struct {
	r      *Reader
	pageNo uint64
	*page
	idx  int // records of the current page consumed so far
	done bool

	// Delta cursor state (rec is nil over a raw run): rec holds record
	// idx-1 of the page (all zero before the first), which is the column
	// state record idx's deltas apply to; pos is record idx's payload
	// offset. pending marks rec as decoded by SeekGE but not yet returned.
	rec     []byte
	pos     int
	pending bool
}

func (r *Reader) newIterator(pageNo uint64) (*Iterator, error) {
	it := &Iterator{r: r, pageNo: pageNo}
	if r.next != nil {
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
	leaf, err := r.findLeaf(key)
	if err != nil {
		return nil, err
	}
	it, err := r.newIterator(leaf)
	if err != nil || it.done {
		return it, err
	}
	rs := r.h.RecordSize
	if it.rec == nil {
		// Binary search within the raw leaf for the first record >= key.
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
	} else {
		if it.restarts == nil {
			// A leaf a NoFill reader missed has no restart table yet;
			// sample one for this seek on a copy, pages being shared.
			p := *it.page
			s := scratchPool.Get().(*pageScratch)
			_, err := r.sample(&p, p.payload, s)
			scratchPool.Put(s)
			if err != nil {
				return nil, fmt.Errorf("btree: page %d: %w", it.pageNo, err)
			}
			it.page = &p
		}
		// Start from the last restart point whose record is <= key (the
		// first one if key sorts before the whole page) and stream-decode
		// forward, at most restartInterval records.
		if it.idx, it.pos, err = seekRestart(it.restarts, it.count, key, it.rec); err != nil {
			return nil, fmt.Errorf("btree: page %d: %w", it.pageNo, err)
		}
		for bytes.Compare(it.rec, key) < 0 && it.idx < it.count {
			if err := it.decodeNext(); err != nil {
				return nil, err
			}
		}
		if it.pending = bytes.Compare(it.rec, key) >= 0; it.pending {
			return it, nil
		}
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
	it.page, it.idx, it.pos = p, 0, 0
	clear(it.rec)
	return nil
}

func (it *Iterator) advancePage() error {
	it.pageNo++
	return it.loadPage()
}

// decodeNext advances the delta cursor by one record. Over a page that
// came with a restart table a failure here means memory corruption; over
// one that did not (see NoFill) this is the page's validation.
func (it *Iterator) decodeNext() error {
	next := it.r.next(it.payload, it.pos, it.rec, it.idx == 0)
	if next < 0 {
		return fmt.Errorf("%w: page %d: malformed delta record %d", ErrCorrupt, it.pageNo, it.idx)
	}
	it.pos = next
	it.idx++
	return nil
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
		if err := it.decodeNext(); err != nil {
			return nil, false, err
		}
		return it.rec, true, nil
	}
	rs := it.r.h.RecordSize
	rec = it.payload[it.idx*rs : (it.idx+1)*rs]
	it.idx++
	return rec, true, nil
}
