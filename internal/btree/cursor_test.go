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

// decodeDeltaLeaf is the reference the streaming cursor is checked
// against, written from the format's description and sharing no code with
// deltaNext: it expands a FormatDelta leaf payload into fixed-stride
// records (count*recSize bytes) in one pass, testing every column's bit
// in turn, and reports the payload bytes the records occupied.
func decodeDeltaLeaf(payload []byte, count, recSize int) (flat []byte, consumed int, err error) {
	if count <= 0 || count > len(payload) {
		return nil, 0, fmt.Errorf("%w: delta leaf record count %d", ErrCorrupt, count)
	}
	cols := recSize / 8
	nb := (cols + 7) / 8
	out := make([]byte, count*recSize)
	prev := make([]uint64, cols)
	pos := 0
	for i := 0; i < count; i++ {
		if pos+nb > len(payload) {
			return nil, 0, fmt.Errorf("%w: truncated bitmap of record %d", ErrCorrupt, i)
		}
		bitmap := payload[pos : pos+nb]
		pos += nb
		flagged := 0
		for c := 0; c < nb*8; c++ {
			if bitmap[c/8]>>(c%8)&1 == 0 {
				continue
			}
			if c >= cols {
				return nil, 0, fmt.Errorf("%w: record %d flags column %d of %d", ErrCorrupt, i, c, cols)
			}
			u, n := binary.Uvarint(payload[pos:])
			if n <= 0 {
				return nil, 0, fmt.Errorf("%w: truncated delta record %d", ErrCorrupt, i)
			}
			if u == 0 {
				return nil, 0, fmt.Errorf("%w: record %d flags column %d unchanged", ErrCorrupt, i, c)
			}
			pos += n
			prev[c] += uint64(unzigzag(u))
			flagged++
		}
		if flagged == 0 && i > 0 {
			return nil, 0, fmt.Errorf("%w: repeated delta record %d", ErrCorrupt, i)
		}
		for c := range prev {
			binary.BigEndian.PutUint64(out[i*recSize+c*8:], prev[c])
		}
	}
	return out, pos, nil
}

// decodeDeltaLeafV2 is the same reference for the previous delta format
// (the PR 8 decoder): one varint per column.
func decodeDeltaLeafV2(payload []byte, count, recSize int) (flat []byte, consumed int, err error) {
	if count <= 0 || count > len(payload) {
		return nil, 0, fmt.Errorf("%w: delta leaf record count %d", ErrCorrupt, count)
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
				return nil, 0, fmt.Errorf("%w: truncated delta record %d", ErrCorrupt, i)
			}
			pos += n
			if u != 0 {
				zero = false
			}
			prev[c] += uint64(unzigzag(u))
			binary.BigEndian.PutUint64(out[i*recSize+c*8:], prev[c])
		}
		if zero && i > 0 {
			return nil, 0, fmt.Errorf("%w: repeated delta record %d", ErrCorrupt, i)
		}
	}
	return out, pos, nil
}

// appendDeltaRecordV2 is the previous format's encoder, kept here for the
// fuzz seeds and the re-encoding check: the package itself no longer
// writes it.
func appendDeltaRecordV2(dst, rec []byte, prev []uint64) []byte {
	for c := range prev {
		v := binary.BigEndian.Uint64(rec[c*8:])
		dst = binary.AppendUvarint(dst, Zigzag(int64(v-prev[c])))
	}
	return dst
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
	// 72 bytes is nine columns: a two-byte bitmap, the wide decoder.
	for _, recSize := range []int{8, 48, 56, 72} {
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
					// Unsampled leaves: the scan validates as it streams
					// and a seek samples its leaf on the spot.
					checkCursor(t, name+"/nofill", r.NoFill(), recs)
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
		flat, _, err := decodeDeltaLeaf(payload, count, r.h.recordSize)
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

// forgeLeaf builds a one-leaf delta run of the given format and overwrites
// the leaf with the given payload and count under a valid checksum. The
// writer refuses the previous format, so such a run is a current one with
// its header's version field rewritten.
func forgeLeaf(t testing.TB, recSize int, format Format, payload []byte, count uint16) storage.File {
	f := buildRunFormat(t, storage.NewMemFS(), "run", recSize, FormatDelta, [][]byte{make([]byte, recSize)})
	var pg [storage.PageSize]byte
	seal := func(off int64) {
		crc := crc32.Checksum(pg[:storage.PageSize-pageCRCLen], castagnoli)
		binary.LittleEndian.PutUint32(pg[storage.PageSize-pageCRCLen:], crc)
		if _, err := f.WriteAt(pg[:], off); err != nil {
			t.Fatal(err)
		}
	}
	if format != FormatDelta {
		if _, err := f.ReadAt(pg[:], 0); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(pg[8:], uint32(format))
		seal(0)
	}
	clear(pg[:])
	binary.LittleEndian.PutUint16(pg[:2], count)
	copy(pg[pageCountLen:storage.PageSize-pageCRCLen], payload)
	seal(storage.PageSize)
	return f
}

// TestDeltaLeafRejections pins what the FormatDelta decoder refuses beyond
// a truncated stream, each under a valid page checksum: the sampling pass
// of a plain reader and the streaming validation of a NoFill one must both
// answer ErrCorrupt.
func TestDeltaLeafRejections(t *testing.T) {
	cases := []struct {
		name    string
		recSize int
		payload []byte
		count   uint16
	}{
		{"zero bitmap after the first record", 48, []byte{0x01, 0x02, 0x00}, 2},
		{"padding decoded under an inflated count", 48, []byte{0x01, 0x02, 0x01, 0x02}, 3},
		{"flagged column with a zero delta", 48, []byte{0x03, 0x02, 0x00}, 1},
		{"flagged column with an overlong zero", 48, []byte{0x01, 0x80, 0x00}, 1},
		{"bit beyond the column count", 48, []byte{0x41, 0x02, 0x02}, 1},
		{"bit beyond the column count, wide", 72, []byte{0x01, 0x02, 0x02, 0x02}, 1},
		{"zero bitmap after the first record, wide", 72, []byte{0x01, 0x00, 0x02, 0x00, 0x00}, 2},
		{"varint running off the page", 8, append(bytes.Repeat([]byte{0x01, 0x02}, pagePayload/2-1), 0x01, 0xFF), pagePayload / 2},
		{"varint overflowing 64 bits", 8, append([]byte{0x01}, bytes.Repeat([]byte{0xFF}, 11)...), 1},
		{"count of zero", 48, []byte{0x01, 0x02}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := Open(forgeLeaf(t, c.recSize, FormatDelta, c.payload, c.count), nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.First(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("sampling reader: got %v, want ErrCorrupt", err)
			}
			it, err := r.NoFill().First()
			for err == nil {
				var ok bool
				if _, ok, err = it.Next(); err == nil && !ok {
					t.Fatal("streaming reader reached the end of a malformed leaf")
				}
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("streaming reader: got %v, want ErrCorrupt", err)
			}
			if _, err := r.NoFill().SeekGE(make([]byte, c.recSize)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("seek through a NoFill reader: got %v, want ErrCorrupt", err)
			}
		})
	}
}

// FuzzDeltaLeaf feeds an arbitrary payload and count through the reader
// as a checksummed leaf page of either delta format. It must never panic,
// must fail only with ErrCorrupt, and must fail exactly when the format's
// reference decoder does; otherwise the cursor — sampled and streaming —
// yields the reference's records, never a silent duplicate, they re-encode
// to what was read, and seeks agree with a search over them.
func FuzzDeltaLeaf(f *testing.F) {
	var prev, prev2 [6]uint64
	var valid, valid2 []byte
	recs := sortedRecords48(40)
	for _, r := range recs {
		valid = appendDeltaRecord(valid, r, prev[:])
		valid2 = appendDeltaRecordV2(valid2, r, prev2[:])
		for c := range prev {
			prev[c] = binary.BigEndian.Uint64(r[c*8:])
		}
		prev2 = prev
	}
	n := uint16(len(recs))
	f.Add(valid, n, uint8(1), false)
	f.Add(valid, n+1, uint8(1), false) // decodes the padding: a zero bitmap
	f.Add(valid, n, uint8(2), false)   // wrong column count
	f.Add(valid[:len(valid)/2], n, uint8(0), false)
	f.Add([]byte{0x01, 0x80, 0x00}, uint16(1), uint8(0), false) // flagged zero delta, overlong
	f.Add(bytes.Repeat([]byte{0xFF}, 64), uint16(3), uint8(1), false)
	f.Add([]byte{}, uint16(0), uint8(0), false)
	f.Add([]byte{0x01, 0x02, 0x00, 0x01, 0x02}, uint16(3), uint8(1), false) // zero bitmap mid-page
	f.Add([]byte{0x03, 0x02, 0x00}, uint16(1), uint8(1), false)             // flagged zero delta
	f.Add([]byte{0x81, 0x02, 0x02}, uint16(1), uint8(2), false)             // stray high bit
	f.Add([]byte{0x01, 0x02, 0x02, 0x02}, uint16(1), uint8(3), false)       // stray bit, two-byte bitmap
	f.Add(valid2, n, uint8(1), true)
	f.Add(valid2, n+1, uint8(1), true) // decodes the padding: a repeat
	f.Add(valid2[:len(valid2)/2], n, uint8(2), true)
	f.Add([]byte{0x80, 0x00, 0x01}, uint16(2), uint8(0), true) // overlong varint

	f.Fuzz(func(t *testing.T, payload []byte, count uint16, sizeSel uint8, v2 bool) {
		recSize := []int{8, 48, 56, 72}[sizeSel%4]
		format, reference, encode := FormatDelta, decodeDeltaLeaf, appendDeltaRecord
		if v2 {
			format, reference, encode = formatDeltaV2, decodeDeltaLeafV2, appendDeltaRecordV2
		}
		file := forgeLeaf(t, recSize, format, payload, count)
		r, err := Open(file, nil)
		if err != nil {
			t.Fatal(err)
		}
		padded, _, err := r.readPageRaw(1)
		if err != nil {
			t.Fatal(err)
		}
		want, consumed, wantErr := reference(padded, int(count), recSize)
		if consumed > len(padded) {
			t.Fatalf("reference consumed %d of %d payload bytes", consumed, len(padded))
		}
		it, err := r.First()
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("First: %v, reference decode: %v", err, wantErr)
		}
		// The streaming validation of a NoFill scan must reach the same
		// verdict record by record.
		streamed, streamErr := drain(r.NoFill())
		if (streamErr != nil) != (wantErr != nil) {
			t.Fatalf("NoFill scan: %v, reference decode: %v", streamErr, wantErr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || !errors.Is(streamErr, ErrCorrupt) {
				t.Fatalf("got %v and %v, want ErrCorrupt", err, streamErr)
			}
			return
		}
		got := iterAll(t, it)
		if len(got) != int(count) || len(streamed) != int(count) {
			t.Fatalf("cursor yielded %d records, NoFill cursor %d, count is %d", len(got), len(streamed), count)
		}
		ascending := true
		cols := make([]uint64, recSize/8)
		var enc []byte
		for i, rec := range got {
			if !bytes.Equal(rec, want[i*recSize:(i+1)*recSize]) || !bytes.Equal(rec, streamed[i]) {
				t.Fatalf("record %d = %x, NoFill %x, reference %x", i, rec, streamed[i], want[i*recSize:(i+1)*recSize])
			}
			if i > 0 && bytes.Equal(got[i-1], rec) {
				t.Fatalf("records %d and %d are the same: a silent duplicate", i-1, i)
			}
			if i > 0 && bytes.Compare(got[i-1], rec) >= 0 {
				ascending = false
			}
			enc = encode(enc, rec, cols)
			for c := range cols {
				cols[c] = binary.BigEndian.Uint64(rec[c*8:])
			}
		}
		// Canonical re-encoding reproduces the input unless the input
		// spent extra bytes on overlong varints; either way it decodes to
		// the same records.
		if !bytes.HasPrefix(padded, enc) {
			again, _, err := reference(append(enc, make([]byte, 16)...), int(count), recSize)
			if err != nil || !bytes.Equal(again, want) {
				t.Fatalf("re-encoded page decodes differently (%v)", err)
			}
		}
		for _, rd := range []*Reader{r, r.NoFill()} {
			for i := 0; i < len(got); i += max(len(got)/8, 1) {
				it, err := rd.SeekGE(got[i])
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
		}
	})
}

// drain scans r from the start, copying every record out.
func drain(r *Reader) ([][]byte, error) {
	it, err := r.First()
	var out [][]byte
	for err == nil {
		var rec []byte
		var ok bool
		if rec, ok, err = it.Next(); !ok {
			break
		}
		out = append(out, append([]byte(nil), rec...))
	}
	return out, err
}
