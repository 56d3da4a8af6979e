package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/backlogfs/backlog/internal/storage"
)

// buildWrittenThrough builds recs into a run whose pages are written
// through to cache.
func buildWrittenThrough(t testing.TB, cache *Cache, recSize int, format Format, recs [][]byte) (storage.File, *Writer) {
	t.Helper()
	f, err := storage.NewMemFS().Create("run")
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriterFormat(f, recSize, format)
	if err != nil {
		t.Fatal(err)
	}
	w.WriteThrough(cache)
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(nil); err != nil {
		t.Fatal(err)
	}
	return f, w
}

// checkWrittenPages compares every page of the run in f that the writer
// left in the cache with what a cold Reader builds from the file — payload,
// count and a packed leaf's parsed header, the payload byte for byte and
// held at its length (and a packed leaf's 8 bytes of read slack) — and
// returns how many pages were cached. Those must be the run's first pages:
// a writer offers no more once one does not fit. With all set every page
// must be cached.
func checkWrittenPages(t testing.TB, name string, f storage.File, cache *Cache, w *Writer, all bool) int {
	t.Helper()
	cold, err := Open(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	cached := 0
	for pageNo := uint64(1); pageNo <= cold.h.RootPage; pageNo++ {
		got := cache.get(w.CacheID(), pageNo)
		if got == nil {
			if all {
				t.Fatalf("%s: page %d of %d not written through", name, pageNo, cold.h.RootPage)
			}
			continue
		}
		if cached++; uint64(cached) != pageNo {
			t.Fatalf("%s: page %d cached after %d of the pages before it", name, pageNo, cached-1)
		}
		want, err := cold.readPage(pageNo)
		if err != nil {
			t.Fatal(err)
		}
		if got.count != want.count || !bytes.Equal(got.payload, want.payload) || got.leaf != want.leaf {
			t.Fatalf("%s: page %d written through as %d records in %d payload bytes, header %+v, read cold as %d in %d, header %+v",
				name, pageNo, got.count, len(got.payload), got.leaf, want.count, len(want.payload), want.leaf)
		}
		if cap(got.payload)-len(got.payload) != cap(want.payload)-len(want.payload) {
			t.Fatalf("%s: page %d holds %d/%d payload bytes used/allocated, read cold %d/%d", name, pageNo,
				len(got.payload), cap(got.payload), len(want.payload), cap(want.payload))
		}
	}
	// The Reader Open returns is served those pages without a miss.
	if all {
		_, misses := cache.Stats()
		if _, err := drain(w.Open(f, cache)); err != nil {
			t.Fatal(err)
		}
		if _, m := cache.Stats(); m != misses {
			t.Fatalf("%s: the run's own reader missed %d of its written pages", name, m-misses)
		}
	}
	return cached
}

// TestWriteThroughPagesMatchColdReads: for both writable formats, record
// sizes of one to eight columns, and runs of one
// record to several index levels, every leaf and internal page the writer
// caches is what a cold Reader builds from the file.
func TestWriteThroughPagesMatchColdReads(t *testing.T) {
	const K = anchorEvery
	rng := rand.New(rand.NewSource(26))
	for _, format := range []Format{FormatRaw, FormatDelta} {
		for _, recSize := range []int{8, 48, 56, 64} {
			for _, wide := range []bool{false, true} {
				for _, n := range []int{1, 2, K - 1, K, K + 1, 2*K + 1, pagePayload / recSize, pagePayload/recSize + 1, 700, 3000} {
					recs := seededRecords(rng, n, recSize, wide)
					name := fmt.Sprintf("%v/size=%d/wide=%v/n=%d", format, recSize, wide, len(recs))
					cache := NewCacheBytes(64 << 20)
					f, w := buildWrittenThrough(t, cache, recSize, format, recs)
					checkWrittenPages(t, name, f, cache, w, true)
				}
			}
		}
	}
}

// FuzzWriteThroughPages builds arbitrary sorted records — cut from the
// input, each repeated spread times with its last column stepped — with
// the pages written through to a cache of budget pages, and requires every
// page cached to be the page a cold Reader builds, the charge to stay
// within the budget, and a cache with room for the run to hold all of it.
func FuzzWriteThroughPages(f *testing.F) {
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, 40), uint16(3), uint8(1), false, uint8(0))
	f.Add([]byte{0xFF, 0, 0x80}, uint16(2000), uint8(3), false, uint8(2))
	f.Add(bytes.Repeat([]byte{0xA5}, 300), uint16(500), uint8(0), true, uint8(0))
	f.Add([]byte{}, uint16(0), uint8(2), false, uint8(1))
	// v5 pages: narrow columns spread wide, a run of leaves past several
	// anchors each, and one whose every column is a full-width u64.
	f.Add(bytes.Repeat([]byte{0, 0, 0, 0, 0, 0, 3, 1}, 24), uint16(900), uint8(1), false, uint8(0))
	f.Add(bytes.Repeat([]byte{0x5A, 0xC3, 0x0F, 0xF0, 0x99, 0x66, 0x3C, 0xE1}, 200), uint16(7), uint8(3), false, uint8(9))

	f.Fuzz(func(t *testing.T, data []byte, spread uint16, sizeSel uint8, raw bool, budget uint8) {
		recSize := []int{8, 48, 56, 64}[sizeSel%4]
		format := FormatDelta
		if raw {
			format = FormatRaw
		}
		var recs [][]byte
		for off := 0; off < len(data) || off == 0; off += recSize {
			base := make([]byte, recSize)
			copy(base, data[min(off, len(data)):])
			for k := 0; k <= int(spread%4096) && len(recs) < 20000; k++ {
				r := append([]byte(nil), base...)
				last := r[recSize-8:]
				binary.BigEndian.PutUint64(last, binary.BigEndian.Uint64(last)+uint64(k))
				recs = append(recs, r)
			}
		}
		sort.Slice(recs, func(i, j int) bool { return bytes.Compare(recs[i], recs[j]) < 0 })
		recs = slices.CompactFunc(recs, bytes.Equal)

		// budget 0 leaves room for the whole run.
		size := int64(64 << 20)
		if budget > 0 {
			size = int64(budget) * storage.PageSize / 4
		}
		cache := NewCacheBytes(size)
		file, w := buildWrittenThrough(t, cache, recSize, format, recs)
		checkWrittenPages(t, "fuzz", file, cache, w, budget == 0)
		if got := cache.SizeBytes(); got > size {
			t.Fatalf("written pages charge %d bytes to a %d-byte cache", got, size)
		}
	})
}

// TestWriteThroughEvictsNothing: writers building at once into a cache
// that already holds another run's pages cache what fits beside them, each
// page equal to its cold read, and evict none of them.
func TestWriteThroughEvictsNothing(t *testing.T) {
	const writers = 3
	const budget = 24 * storage.PageSize
	cache := NewCacheBytes(budget)
	for pageNo := uint64(1); pageNo <= 8; pageNo++ {
		cache.put(1<<62, pageNo, &page{payload: make([]byte, pagePayload), count: 1})
	}
	held := cache.SizeBytes()
	recs := sortedRecords48(20000) // ≈ 30 delta leaves a run, more than the room
	files := make([]storage.File, writers)
	ws := make([]*Writer, writers)
	var wg sync.WaitGroup
	for i := range writers {
		f, err := storage.NewMemFS().Create("run")
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWriterFormat(f, 48, FormatDelta)
		if err != nil {
			t.Fatal(err)
		}
		w.WriteThrough(cache)
		files[i], ws[i] = f, w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range recs {
				if err := w.Append(r); err != nil {
					t.Error(err)
					return
				}
			}
			if err := w.Finish(nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	cached := 0
	for i := range writers {
		cached += checkWrittenPages(t, fmt.Sprintf("writer %d", i), files[i], cache, ws[i], false)
		if ws[i].cache != nil {
			t.Fatalf("writer %d still writes through after the cache ran out of room", i)
		}
	}
	if used := cache.SizeBytes(); used > budget || cache.resident[1<<62] != held {
		t.Fatalf("%d bytes cached of a %d budget, %d of the %d held before the writers", used, budget, cache.resident[1<<62], held)
	}
	if cached < 12 {
		t.Fatalf("%d pages cached in the %d pages of room", cached, (budget-held)/storage.PageSize)
	}
}

// TestResidentBytesPerIdentity: the cache keeps count of the bytes each
// identity holds, and Drop forgets exactly that identity's pages.
func TestResidentBytesPerIdentity(t *testing.T) {
	cache := NewCacheBytes(1 << 20)
	recs := sortedRecords48(5000)
	_, a := buildWrittenThrough(t, cache, 48, FormatDelta, recs)
	_, b := buildWrittenThrough(t, cache, 48, FormatRaw, recs)
	held := cache.resident[a.CacheID()]
	if held == 0 || held+cache.resident[b.CacheID()] != cache.SizeBytes() {
		t.Fatalf("resident bytes %v, %d cached", cache.resident, cache.SizeBytes())
	}
	total := cache.SizeBytes()
	cache.Drop(a.CacheID())
	if got := cache.SizeBytes(); got != total-held || cache.resident[a.CacheID()] != 0 {
		t.Fatalf("after dropping %d bytes of a: %d cached, a still holds %d", held, got, cache.resident[a.CacheID()])
	}
	for key := range cache.index {
		if key.reader != b.CacheID() {
			t.Fatalf("page %+v survived the drop", key)
		}
	}
	cache.Drop(a.CacheID()) // nothing left: returns at once
	var nilCache *Cache
	nilCache.Drop(1)
}
