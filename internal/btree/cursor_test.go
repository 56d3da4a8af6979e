package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"testing"

	"github.com/backlogfs/backlog/internal/storage"
)

// decodeDeltaLeaf is the PR 8 decoder, kept as the reference the streaming
// cursor is checked against: it expands a delta-encoded leaf payload into
// fixed-stride records (count*recSize bytes) in one pass.
func decodeDeltaLeaf(payload []byte, count, recSize int) ([]byte, error) {
	if count <= 0 || count > len(payload) {
		return nil, fmt.Errorf("%w: delta leaf record count %d", ErrCorrupt, count)
	}
	cols := recSize / 8
	out := make([]byte, count*recSize)
	prev := make([]uint64, cols)
	pos := 0
	for i := 0; i < count; i++ {
		zero := true
		for c := 0; c < cols; c++ {
			u, n := binary.Uvarint(payload[pos:])
			if n <= 0 {
				return nil, fmt.Errorf("%w: truncated delta record %d", ErrCorrupt, i)
			}
			pos += n
			if u != 0 {
				zero = false
			}
			prev[c] += uint64(unzigzag(u))
			binary.BigEndian.PutUint64(out[i*recSize+c*8:], prev[c])
		}
		if zero && i > 0 {
			return nil, fmt.Errorf("%w: repeated delta record %d", ErrCorrupt, i)
		}
	}
	return out, nil
}

// seededRecords returns n distinct sorted records of recSize bytes. With
// wide set every column is a uniform u64 (ten-byte varints, ~60 records a
// page at 56 bytes); otherwise columns move in small correlated steps like
// real back-reference tables (hundreds of records a page).
func seededRecords(rng *rand.Rand, n, recSize int, wide bool) [][]byte {
	cols := recSize / 8
	recs := make([][]byte, 0, n)
	var block uint64
	for len(recs) < n {
		r := make([]byte, recSize)
		for c := 0; c < cols; c++ {
			v := rng.Uint64()
			if !wide {
				if c == 0 {
					block += uint64(rng.Intn(3))
					v = block
				} else {
					v %= 1 << (4 * uint(c))
				}
			}
			binary.BigEndian.PutUint64(r[c*8:], v)
		}
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool { return bytes.Compare(recs[i], recs[j]) < 0 })
	out := recs[:1]
	for _, r := range recs[1:] {
		if !bytes.Equal(r, out[len(out)-1]) {
			out = append(out, r)
		}
	}
	return out
}

// neighbour returns rec plus or minus one, as a big-endian integer, or nil
// if that would wrap.
func neighbour(rec []byte, up bool) []byte {
	k := append([]byte(nil), rec...)
	for i := len(k) - 1; i >= 0; i-- {
		if up {
			k[i]++
			if k[i] != 0 {
				return k
			}
		} else {
			k[i]--
			if k[i] != 0xFF {
				return k
			}
		}
	}
	return nil
}

func TestCursorMatchesFullDecode(t *testing.T) {
	const K = restartInterval
	rng := rand.New(rand.NewSource(13))
	for _, recSize := range []int{8, 48, 56} {
		for _, wide := range []bool{false, true} {
			for _, n := range []int{1, 2, K - 1, K, K + 1, 2*K + 1, 700, 3000} {
				recs := seededRecords(rng, n, recSize, wide)
				name := fmt.Sprintf("size=%d/wide=%v/n=%d", recSize, wide, len(recs))
				f := buildRunFormat(t, storage.NewMemFS(), "run", recSize, FormatDelta, recs)
				// Uncached, every seek re-validates its leaf; a small cache
				// mixes hits with misses and evictions on the larger runs.
				caches := []*Cache{NewCacheBytes(16 * storage.PageSize)}
				if n <= 700 {
					caches = append(caches, nil)
				}
				for _, cache := range caches {
					r, err := Open(f, cache)
					if err != nil {
						t.Fatal(err)
					}
					checkCursor(t, name, r, recs)
				}
			}
		}
	}
}

// checkCursor compares the reader's streaming cursor with the full decode
// of every leaf page: a whole-run scan, and seeks around every restart
// point and both ends of every leaf, each followed by a short drain that
// may cross into the next page.
func checkCursor(t *testing.T, name string, r *Reader, recs [][]byte) {
	t.Helper()
	const K = restartInterval
	var all [][]byte
	var pageEnds []int // len(all) after each leaf
	for p := uint64(0); p < r.h.leafPages; p++ {
		payload, count, err := r.readPageRaw(r.h.leafStart + p)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := decodeDeltaLeaf(payload, count, r.h.recordSize)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < count; i++ {
			all = append(all, flat[i*r.h.recordSize:(i+1)*r.h.recordSize])
		}
		pageEnds = append(pageEnds, len(all))
	}
	if len(all) != len(recs) {
		t.Fatalf("%s: full decode has %d records, built %d", name, len(all), len(recs))
	}
	it, err := r.First()
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range iterAll(t, it) {
		if !bytes.Equal(got, all[i]) {
			t.Fatalf("%s: scan record %d = %x, full decode %x", name, i, got, all[i])
		}
	}

	seek := func(key []byte) {
		if key == nil {
			return
		}
		want := sort.Search(len(all), func(i int) bool { return bytes.Compare(all[i], key) >= 0 })
		it, err := r.SeekGE(key)
		if err != nil {
			t.Fatalf("%s: SeekGE(%x): %v", name, key, err)
		}
		for i := want; i < min(want+K+2, len(all)+1); i++ {
			rec, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if i == len(all) {
				if ok {
					t.Fatalf("%s: SeekGE(%x) ran past the end: %x", name, key, rec)
				}
			} else if !ok || !bytes.Equal(rec, all[i]) {
				t.Fatalf("%s: SeekGE(%x) record %d: got %x ok=%v, want %x", name, key, i-want, rec, ok, all[i])
			}
		}
	}
	start := 0
	for _, end := range pageEnds {
		idxs := []int{start, end - 1}
		for j := start; j < end; j += K {
			idxs = append(idxs, j-1, j, j+1, j+K/2)
		}
		for _, i := range idxs {
			if i < start || i >= end {
				continue
			}
			// Before, at and after the record; after the leaf's last
			// record lands on the next leaf (or the end of the run).
			seek(neighbour(all[i], false))
			seek(all[i])
			seek(neighbour(all[i], true))
		}
		start = end
	}
}

func TestCacheChargesEncodedBytes(t *testing.T) {
	// The cache charges what it holds — the encoded payload and its restart
	// table — so a budget keeps at least four times the leaves it kept when
	// every delta leaf was expanded to fixed-stride records.
	recs := sortedRecords48(200000)
	f := buildRunFormat(t, storage.NewMemFS(), "run", 48, FormatDelta, recs)
	const budget = 1 << 20
	cache := NewCacheBytes(budget)
	r, err := Open(f, cache)
	if err != nil {
		t.Fatal(err)
	}
	it, err := r.First()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(iterAll(t, it)); n != len(recs) {
		t.Fatalf("scanned %d records, want %d", n, len(recs))
	}
	if got := cache.SizeBytes(); got > budget {
		t.Fatalf("SizeBytes = %d exceeds the %d budget", got, budget)
	}
	expanded := int(r.RecordCount()) * 48 / int(r.h.leafPages) // bytes per leaf, decoded
	if r.h.leafPages*uint64(expanded) < 8*budget {
		t.Fatalf("run too small to fill the cache: %d leaves", r.h.leafPages)
	}
	if parent := budget / expanded; cache.Len() < 4*parent {
		t.Fatalf("%d leaves resident; expanded leaves of %d bytes allowed %d, want >= 4x", cache.Len(), expanded, parent)
	}
	// What is resident must be the tail of the scan, served without I/O.
	hits, _ := cache.Stats()
	if _, err := r.SeekGE(recs[len(recs)-1]); err != nil {
		t.Fatal(err)
	}
	if h, _ := cache.Stats(); h == hits {
		t.Fatal("seek to the last scanned leaf missed the cache")
	}
}

func TestNoFillLeavesCacheUnchanged(t *testing.T) {
	recs := sortedRecords48(50000)
	f := buildRunFormat(t, storage.NewMemFS(), "run", 48, FormatDelta, recs)
	cache := NewCacheBytes(64 << 20)
	r, err := Open(f, cache)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.SeekGE(recs[25000]); err != nil {
		t.Fatal(err)
	}
	resident := cache.Len()
	hits, _ := cache.Stats()
	it, err := r.NoFill().First()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(iterAll(t, it)); n != len(recs) {
		t.Fatalf("scanned %d records, want %d", n, len(recs))
	}
	if cache.Len() != resident {
		t.Fatalf("no-fill scan changed residency: %d -> %d pages", resident, cache.Len())
	}
	if h, _ := cache.Stats(); h == hits {
		t.Fatal("no-fill scan did not read the resident leaf through the cache")
	}
}

// forgeLeaf builds a one-leaf delta run and overwrites the leaf with the
// given payload and count under a valid checksum.
func forgeLeaf(t testing.TB, recSize int, payload []byte, count uint16) storage.File {
	f := buildRunFormat(t, storage.NewMemFS(), "run", recSize, FormatDelta, [][]byte{make([]byte, recSize)})
	var pg [storage.PageSize]byte
	binary.LittleEndian.PutUint16(pg[:2], count)
	copy(pg[pageCountLen:storage.PageSize-pageCRCLen], payload)
	crc := crc32.Checksum(pg[:storage.PageSize-pageCRCLen], castagnoli)
	binary.LittleEndian.PutUint32(pg[storage.PageSize-pageCRCLen:], crc)
	if _, err := f.WriteAt(pg[:], storage.PageSize); err != nil {
		t.Fatal(err)
	}
	return f
}

// FuzzDeltaLeaf feeds an arbitrary payload and count through the reader
// as a checksummed leaf page. It must never panic, must fail only with
// ErrCorrupt, and must fail exactly when the reference decoder does;
// otherwise the cursor yields the reference's records, they re-encode to
// what was read, and seeks agree with a search over them.
func FuzzDeltaLeaf(f *testing.F) {
	var prev [6]uint64
	var valid []byte
	recs := sortedRecords48(40)
	for _, r := range recs {
		valid = appendDeltaRecord(valid, r, prev[:])
		for c := range prev {
			prev[c] = binary.BigEndian.Uint64(r[c*8:])
		}
	}
	f.Add(valid, uint16(len(recs)), uint8(1))
	f.Add(valid, uint16(len(recs)+1), uint8(1)) // decodes the padding
	f.Add(valid, uint16(len(recs)), uint8(2))   // wrong column count
	f.Add(valid[:len(valid)/2], uint16(len(recs)), uint8(0))
	f.Add([]byte{0x80, 0x00, 0x01}, uint16(2), uint8(0)) // overlong varint
	f.Add(bytes.Repeat([]byte{0xFF}, 64), uint16(3), uint8(1))
	f.Add([]byte{}, uint16(0), uint8(0))

	f.Fuzz(func(t *testing.T, payload []byte, count uint16, sizeSel uint8) {
		recSize := []int{8, 48, 56}[sizeSel%3]
		file := forgeLeaf(t, recSize, payload, count)
		r, err := Open(file, nil)
		if err != nil {
			t.Fatal(err)
		}
		padded, _, err := r.readPageRaw(1)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := decodeDeltaLeaf(padded, int(count), recSize)
		it, err := r.First()
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("First: %v, reference decode: %v", err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
			return
		}
		got := iterAll(t, it)
		if len(got) != int(count) {
			t.Fatalf("cursor yielded %d records, count is %d", len(got), count)
		}
		ascending := true
		cols := make([]uint64, recSize/8)
		var enc []byte
		for i, rec := range got {
			if !bytes.Equal(rec, want[i*recSize:(i+1)*recSize]) {
				t.Fatalf("record %d = %x, reference %x", i, rec, want[i*recSize:(i+1)*recSize])
			}
			if i > 0 && bytes.Compare(got[i-1], rec) >= 0 {
				ascending = false
			}
			enc = appendDeltaRecord(enc, rec, cols)
			for c := range cols {
				cols[c] = binary.BigEndian.Uint64(rec[c*8:])
			}
		}
		// Canonical re-encoding reproduces the input unless the input
		// spent extra bytes on overlong varints; either way it decodes to
		// the same records.
		if !bytes.HasPrefix(padded, enc) {
			again, err := decodeDeltaLeaf(append(enc, make([]byte, 8)...), int(count), recSize)
			if err != nil || !bytes.Equal(again, want) {
				t.Fatalf("re-encoded page decodes differently (%v)", err)
			}
		}
		for i := 0; i < len(got); i += max(len(got)/8, 1) {
			it, err := r.SeekGE(got[i])
			if err != nil {
				t.Fatal(err)
			}
			rec, ok, err := it.Next()
			// A writer never produces unordered records; seeking among
			// them need only not panic.
			if ascending && (err != nil || !ok || !bytes.Equal(rec, got[i])) {
				t.Fatalf("SeekGE(record %d) = %x ok=%v err=%v", i, rec, ok, err)
			}
		}
	})
}
