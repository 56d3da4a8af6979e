package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/backlogfs/backlog/internal/storage"
)

// decodePackedLeaf is the reference the packed cursor is checked against,
// written from FormatDelta's description and sharing no code with the
// reader: it reads the header, then every field one bit at a time, and
// expands the leaf into fixed-stride records (count*recSize bytes),
// failing where the format's rules are broken — a width over 64, fields
// past the payload, a first block delta that is not zero, a block that
// overflows, an anchor that is not its record's block, records that do not
// strictly ascend. It reports the payload bytes the leaf occupied.
func decodePackedLeaf(payload []byte, count, recSize int) (flat []byte, consumed int, err error) {
	bad := func(what string, args ...any) ([]byte, int, error) {
		return nil, 0, fmt.Errorf("%w: "+what, append([]any{ErrCorrupt}, args...)...)
	}
	cols := recSize / 8
	if count == 0 || len(payload) < cols {
		return bad("%d records in %d bytes", count, len(payload))
	}
	widths := payload[:cols]
	pos := cols
	bases := make([]uint64, cols)
	for c := range bases {
		v, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return bad("base %d", c)
		}
		bases[c], pos = v, pos+n
	}
	if pos >= len(payload) {
		return bad("no anchor width")
	}
	anchorW := payload[pos]
	for _, w := range append([]byte{anchorW}, widths...) {
		if w > 64 {
			return bad("width %d", w)
		}
	}
	bit := (pos + 1) * 8
	read := func(w byte) (uint64, bool) {
		var v uint64
		for k := 0; k < int(w); k, bit = k+1, bit+1 {
			if bit/8 >= len(payload) {
				return 0, false
			}
			v |= uint64(payload[bit/8]>>(bit%8)&1) << k
		}
		return v, true
	}
	anchors := make([]uint64, (count-1)/anchorEvery)
	for j := range anchors {
		v, ok := read(anchorW)
		if !ok {
			return bad("anchor %d past the payload", j+1)
		}
		anchors[j] = bases[0] + v
	}
	flat = make([]byte, count*recSize)
	block := bases[0]
	for i := 0; i < count; i++ {
		d, ok := read(widths[0])
		switch {
		case !ok:
			return bad("record %d past the payload", i)
		case i == 0 && d != 0:
			return bad("first block delta %d", d)
		case block+d < block:
			return bad("record %d's block overflows", i)
		}
		block += d
		if i > 0 && i%anchorEvery == 0 && anchors[i/anchorEvery-1] != block {
			return bad("anchor %d is %d, record %d's block %d", i/anchorEvery, anchors[i/anchorEvery-1], i, block)
		}
		rec := flat[i*recSize : (i+1)*recSize]
		binary.BigEndian.PutUint64(rec, block)
		for c := 1; c < cols; c++ {
			v, ok := read(widths[c])
			if !ok {
				return bad("record %d past the payload", i)
			}
			binary.BigEndian.PutUint64(rec[c*8:], bases[c]+v)
		}
		if i > 0 && bytes.Compare(flat[(i-1)*recSize:i*recSize], rec) >= 0 {
			return bad("record %d does not follow its predecessor", i)
		}
	}
	return flat, (bit + 7) / 8, nil
}

// packLeaf appends to dst the packed leaf of the ascending recSize-byte
// records in flat, as the writer packs a page.
func packLeaf(dst, flat []byte, recSize int) []byte {
	var s leafShape
	for i := 0; i < len(flat); i += recSize {
		s.add(flat[i : i+recSize])
	}
	return s.pack(dst, flat, recSize)
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

// blockSpanRecords returns ascending records of at least two columns in
// which one block (first column) owns more than three anchor intervals'
// worth of consecutive records, between blocks that own five: a
// block-prefix seek then lands before, inside or after a stretch of
// anchors that all hold the same block.
func blockSpanRecords(recSize int) [][]byte {
	const K = anchorEvery
	recs := make([][]byte, 6*K)
	for i := range recs {
		block := i / 5
		if i >= K/2 && i < 4*K {
			block = K / 10 // stays in the block record K/2-1 is in
		}
		r := make([]byte, recSize)
		binary.BigEndian.PutUint64(r, uint64(block))
		binary.BigEndian.PutUint64(r[8:], uint64(i)) // keeps them ascending
		for c := 16; c < recSize; c += 8 {
			binary.BigEndian.PutUint64(r[c:], uint64(i*c)%977)
		}
		recs[i] = r
	}
	return recs
}

func TestCursorMatchesFullDecode(t *testing.T) {
	const K = anchorEvery
	rng := rand.New(rand.NewSource(13))
	check := func(name string, f storage.File, recs [][]byte) {
		// Uncached, every seek re-validates its leaf; a small cache mixes
		// hits with misses and evictions on the larger runs. Readers that
		// check a leaf for every seek visit the larger runs' anchors, not
		// their every record.
		small := len(recs) <= 6*K
		for _, cache := range []*Cache{NewCacheBytes(16 * storage.PageSize), nil} {
			r, err := Open(f, cache)
			if err != nil {
				t.Fatal(err)
			}
			checkCursor(t, name, r, recs, small || cache != nil)
			if cache != nil { // without a cache a NoFill reader is the reader itself
				checkCursor(t, name+"/nofill", r.NoFill(), recs, small)
			}
		}
	}
	// 64 bytes is eight columns, the widest a delta run holds.
	for _, recSize := range []int{8, 48, 56, 64} {
		for _, wide := range []bool{false, true} {
			// 700 narrow records fill a page; 3000 fill several.
			for _, n := range []int{1, 2, K - 1, K, K + 1, 2 * K, 2*K + 1, 700, 3000} {
				recs := seededRecords(rng, n, recSize, wide)
				name := fmt.Sprintf("size=%d/wide=%v/n=%d", recSize, wide, len(recs))
				check(name, buildRunFormat(t, storage.NewMemFS(), "run", recSize, FormatDelta, recs), recs)
			}
		}
		if recSize > 8 {
			recs := blockSpanRecords(recSize)
			check(fmt.Sprintf("size=%d/block-span", recSize), buildRunFormat(t, storage.NewMemFS(), "run", recSize, FormatDelta, recs), recs)
		}
	}
	// The previous format's leaves are the same: the v5 golden read whole
	// is its From run.
	check("v5-from", plantFile(t, readGolden(t, "v5-from-combined.run")), goldenRecords(6))
}

// checkCursor compares the reader's streaming cursor with the reference
// decode of every leaf page: a whole-run scan, then seeks at, just before
// and just after every record — so every gap, before the first record and
// after the last — and at every record's block prefix, the key a query
// seeks, each followed by a drain that may cross into the next page.
// Unless exhaustive, only the records around each anchor are sought.
func checkCursor(t *testing.T, name string, r *Reader, recs [][]byte, exhaustive bool) {
	t.Helper()
	const K = anchorEvery
	var all [][]byte
	for p := uint64(0); p < r.h.LeafPages; p++ {
		payload, count, err := r.readPageRaw(new([storage.PageSize]byte), r.h.LeafStart+p)
		if err != nil {
			t.Fatal(err)
		}
		flat, _, err := decodePackedLeaf(payload, count, r.h.RecordSize)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < count; i++ {
			all = append(all, flat[i*r.h.RecordSize:(i+1)*r.h.RecordSize])
		}
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

	seek := func(key []byte, drain int) {
		if key == nil {
			return
		}
		want := sort.Search(len(all), func(i int) bool { return bytes.Compare(all[i], key) >= 0 })
		it, err := r.SeekGE(key)
		if err != nil {
			t.Fatalf("%s: SeekGE(%x): %v", name, key, err)
		}
		for i := want; i < min(want+drain, len(all)+1); i++ {
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
	for i, rec := range all {
		if at := i % K; !exhaustive && at > 1 && at != K/2 && at != K-1 {
			continue
		}
		drain := 2
		if i%K == 0 {
			drain = K + 2 // through the next anchor
		}
		seek(neighbour(rec, false), drain)
		seek(rec, drain)
		seek(neighbour(rec, true), drain)
		prefix := make([]byte, len(rec))
		copy(prefix, rec[:8])
		seek(prefix, drain)
	}
}

// TestCacheChargesWhatItHolds: an entry's charge is the bytes it keeps
// alive — the payload at its used length, which a packed leaf's 8 bytes of
// read slack follow — and nothing else.
func TestCacheChargesWhatItHolds(t *testing.T) {
	checkHeld := func(cache *Cache) {
		t.Helper()
		var sum int64
		for key, el := range cache.index {
			e := el.Value.(*cacheEntry)
			slack := 0
			if e.leaf.cols > 0 {
				slack = 8
			}
			if cap(e.payload) != len(e.payload)+slack {
				t.Fatalf("page %d: payload %d/%d bytes used/held", key.page, len(e.payload), cap(e.payload))
			}
			sum += e.size()
		}
		if got := cache.SizeBytes(); got != sum {
			t.Fatalf("SizeBytes = %d, entries hold %d", got, sum)
		}
	}

	recs := sortedRecords48(200000)
	cache := NewCacheBytes(64 << 20)
	r, err := Open(buildRunFormat(t, storage.NewMemFS(), "run", 48, FormatDelta, recs), cache)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.SeekGE(recs[len(recs)/2]); err != nil {
		t.Fatal(err)
	}
	leafNo, err := r.findLeaf(recs[len(recs)/2])
	if err != nil {
		t.Fatal(err)
	}
	p := cache.get(r.id, leafNo)
	if p == nil || p.count < 600 {
		t.Fatalf("leaf %d not resident or not full: %+v", leafNo, p)
	}
	t.Logf("full leaf: %d records in %d payload bytes", p.count, len(p.payload))
	if p.size() > pagePayload {
		t.Fatalf("full leaf of %d records charged %d bytes, want <= %d", p.count, p.size(), pagePayload)
	}
	if root := cache.get(r.id, r.h.RootPage); root == nil || root.size() != int64(root.count*(48+8)) {
		t.Fatalf("root page charged %d bytes for %d entries", root.size(), root.count)
	}
	checkHeld(cache)

	// The root of a small level-0 run: ten leaves, ten index entries.
	small := recs[:int(r.RecordCount()/r.h.LeafPages)*19/2]
	cache = NewCacheBytes(64 << 20)
	if r, err = Open(buildRunFormat(t, storage.NewMemFS(), "small", 48, FormatDelta, small), cache); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SeekGE(small[0]); err != nil {
		t.Fatal(err)
	}
	if root := cache.get(r.id, r.h.RootPage); root == nil || root.count != 10 || root.size() > 600 {
		t.Fatalf("10-entry root: %+v", root)
	}
	checkHeld(cache)

	// Raw leaves are kept at count*recSize.
	cache = NewCacheBytes(64 << 20)
	if r, err = Open(buildRunFormat(t, storage.NewMemFS(), "raw", 48, FormatRaw, small[:100]), cache); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SeekGE(small[99]); err != nil {
		t.Fatal(err)
	}
	if last := cache.get(r.id, r.h.LeafStart+r.h.LeafPages-1); last == nil || last.size() != int64(last.count*48) {
		t.Fatalf("raw leaf: %+v", last)
	}
	checkHeld(cache)
}

// setBits overwrites the width-bit field at bit offset at of b with v.
func setBits(b []byte, at int, width uint8, v uint64) {
	for k := 0; k < int(width); k++ {
		i, m := (at+k)/8, byte(1)<<((at+k)%8)
		if v>>k&1 != 0 {
			b[i] |= m
		} else {
			b[i] &^= m
		}
	}
}

// TestPackedLeafRejections pins what a packed leaf's checks refuse, each
// damage under a valid page checksum: a plain reader's miss, a NoFill
// reader's and a seek must all answer ErrCorrupt.
func TestPackedLeafRejections(t *testing.T) {
	const recSize = 16
	var flat []byte
	for i := uint64(0); i < 100; i++ {
		flat = binary.BigEndian.AppendUint64(flat, 1000+i/2*3)
		flat = binary.BigEndian.AppendUint64(flat, 7+i%2*5)
	}
	valid := packLeaf(nil, flat, recSize)
	l, _, err := parseLeaf(valid, 100, recSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodePackedLeaf(valid, 100, recSize); err != nil || l.width[0] == 0 || l.anchorW == 0 {
		t.Fatalf("the valid leaf: %v, %+v", err, l)
	}
	damaged := func(edit func(p []byte)) []byte {
		p := append([]byte(nil), valid...)
		edit(p)
		return p
	}
	anchorAt := l.anchors/8 - 1 // the anchor width's byte
	// Three blocks at the top of the range: 2^64-4, -3 and -1.
	var top []byte
	for _, b := range []uint64{4, 3, 1} {
		top = binary.BigEndian.AppendUint64(top, -b)
		top = binary.BigEndian.AppendUint64(top, 9)
	}
	overflow := packLeaf(nil, top, recSize)
	lt, _, err := parseLeaf(overflow, 3, recSize)
	if err != nil {
		t.Fatal(err)
	}
	setBits(overflow, lt.records+2*lt.recBits, lt.width[0], 3) // the last block wraps to 0
	cases := []struct {
		name    string
		payload []byte
		count   uint16
	}{
		{"count of zero", valid, 0},
		{"block delta wider than 64 bits", damaged(func(p []byte) { p[0] = 65 }), 100},
		{"column wider than 64 bits", damaged(func(p []byte) { p[1] = 200 }), 100},
		{"anchor wider than 64 bits", damaged(func(p []byte) { p[anchorAt] = 65 }), 100},
		{"count times widths past the payload", damaged(func(p []byte) { p[0], p[1] = 64, 64 }), 300},
		{"count past the payload", valid, 60000},
		{"base varint that does not end", append([]byte{0, 0}, bytes.Repeat([]byte{0xFF}, 38)...), 1},
		{"anchors out of order", damaged(func(p []byte) {
			setBits(p, l.anchors, l.anchorW, l.anchor(valid, 2)-l.base[0]+1) // anchor 1 above anchor 2
		}), 100},
		{"anchor off its record's block", damaged(func(p []byte) {
			setBits(p, l.anchors+int(l.anchorW), l.anchorW, 0)
		}), 100},
		{"first block delta not zero", damaged(func(p []byte) { setBits(p, l.records, l.width[0], 1) }), 100},
		{"record repeating its predecessor", damaged(func(p []byte) {
			setBits(p, l.records+l.recBits+l.at[1], l.width[1], 0) // record 1 = record 0
		}), 100},
		{"block overflowing", overflow, 3},
		{"padding read under an inflated count", valid, 105},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := decodePackedLeaf(append(append([]byte(nil), c.payload...), make([]byte, pagePayload)...)[:pagePayload], int(c.count), recSize); err == nil {
				t.Fatal("the reference decoder accepts the damage")
			}
			r, err := Open(forgeLeaf(t, recSize, FormatDelta, c.payload, c.count), nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.First(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("First: got %v, want ErrCorrupt", err)
			}
			if _, err := r.NoFill().First(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("NoFill First: got %v, want ErrCorrupt", err)
			}
			if _, err := r.SeekGE(flat[50*recSize : 51*recSize]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("SeekGE: got %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestSeekAllocs pins what a warm seek allocates: the iterator and its
// record buffer. The anchor probes and the delta sums read the cached page
// in place, and the record the seek settles on is decoded into that
// buffer, whatever format the page was read from.
func TestSeekAllocs(t *testing.T) {
	recs := sortedRecords48(5000)
	golden := goldenRecords(6)
	for _, c := range []struct {
		name string
		f    storage.File
		recs [][]byte
	}{
		{"v6", buildRunFormat(t, storage.NewMemFS(), "run", 48, FormatDelta, recs), recs},
		{"v5", plantFile(t, readGolden(t, "v5-from-combined.run")), golden},
	} {
		r, err := Open(c.f, NewCacheBytes(64<<20))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := drain(r); err != nil { // warms every page
			t.Fatal(err)
		}
		i := 0
		if got := testing.AllocsPerRun(1000, func() {
			i = (i + 97) % len(c.recs)
			if _, err := r.SeekGE(c.recs[i]); err != nil {
				t.Fatal(err)
			}
		}); got != 2 {
			t.Errorf("%s: a warm SeekGE allocates %v times, want 2", c.name, got)
		}
	}
}

// raceEnabled is set by race_test.go in a -race build, in which sync.Pool
// drops what it is given at random.
var raceEnabled bool

// TestLeafMissAllocs pins what reading a leaf the cache does not hold
// allocates: the page and its payload, the 4 KB the page is read into
// coming from a pool.
func TestLeafMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch buffers")
	}
	recs := sortedRecords48(5000)
	for _, c := range []struct {
		name string
		f    storage.File
	}{
		{"v6", buildRunFormat(t, storage.NewMemFS(), "run", 48, FormatDelta, recs)},
		{"v5", plantFile(t, readGolden(t, "v5-from-combined.run"))},
	} {
		r, err := Open(c.f, nil)
		if err != nil {
			t.Fatal(err)
		}
		leaf := r.h.LeafStart + r.h.LeafPages/2
		if got := testing.AllocsPerRun(200, func() {
			if _, err := r.readPage(leaf); err != nil {
				t.Fatal(err)
			}
		}); got != 2 {
			t.Errorf("%s: a leaf miss allocates %v times, want 2", c.name, got)
		}
	}
}

func TestCacheChargesEncodedBytes(t *testing.T) {
	// The cache charges what it holds — the packed payload — so a budget
	// keeps at least four times the leaves it kept when every delta leaf
	// was expanded to fixed-stride records.
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
	expanded := int(r.RecordCount()) * 48 / int(r.h.LeafPages) // bytes per leaf, decoded
	if r.h.LeafPages*uint64(expanded) < 8*budget {
		t.Fatalf("run too small to fill the cache: %d leaves", r.h.LeafPages)
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
// writer refuses the previous formats, so such a run is a current one laid
// out as they lay a run out, with its header's version field rewritten
// (padded); a current one is padded too, its root a whole page.
func forgeLeaf(t testing.TB, recSize int, format Format, payload []byte, count uint16) storage.File {
	f := padded(t, buildRunFormat(t, storage.NewMemFS(), "run", recSize, FormatDelta, [][]byte{make([]byte, recSize)}), format)
	forgePage(t, f, 1, count, payload)
	return f
}

// padded returns a copy of f, a file holding one run of the current format,
// with every page 4 KB and version format in its header: a header page, as
// the formats before 6 have, or for format 6 itself its short header,
// claiming a root of a whole page.
func padded(t testing.TB, f storage.File, format Format) storage.File {
	t.Helper()
	r, err := Open(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	filter, err := r.BloomBytes()
	if err != nil {
		t.Fatal(err)
	}
	h := r.h
	h.Format, h.RootLen = format, 0
	if format == FormatDelta {
		h.RootLen = storage.PageSize
	}
	h.FilterOff = h.headerLen() + h.RootPage*storage.PageSize
	out := make([]byte, h.FilterOff, h.FilterOff+h.FilterLen)
	(&Writer{h: h}).putHeader(out[:h.headerLen()])
	for p := uint64(1); p <= h.RootPage; p++ {
		payload, count, err := r.readPageRaw(new([storage.PageSize]byte), p)
		if err != nil {
			t.Fatal(err)
		}
		framePage(out[h.PageExtent(p).Off:][:storage.PageSize], uint16(count), payload)
	}
	return plantFile(t, append(out, filter...))
}

// framePage fills page, a 4 KB page of a run, with count and payload, zero
// padding, then their checksum.
func framePage(page []byte, count uint16, payload []byte) {
	clear(page)
	binary.LittleEndian.PutUint16(page, count)
	copy(page[pageCountLen:storage.PageSize-pageCRCLen], payload)
	crc := crc32.Checksum(page[:storage.PageSize-pageCRCLen], castagnoli)
	binary.LittleEndian.PutUint32(page[storage.PageSize-pageCRCLen:], crc)
}

// forgePage overwrites page pageNo of f, a run whose every page is 4 KB
// (padded), with the given count and payload under a valid checksum.
func forgePage(t testing.TB, f storage.File, pageNo int64, count uint16, payload []byte) {
	var version [4]byte
	if _, err := f.ReadAt(version[:], 8); err != nil {
		t.Fatal(err)
	}
	h := Header{Format: Format(binary.LittleEndian.Uint32(version[:]))}
	var pg [storage.PageSize]byte
	framePage(pg[:], count, payload)
	if _, err := f.WriteAt(pg[:], h.PageExtent(uint64(pageNo)).Off); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaLeafRejections: a format-3 run is refused by name whatever its
// leaf holds — here each leaf the retired v3 decoder rejected, under a
// valid page checksum — from its header page and from a header a manifest
// carried: no decoder of its leaves is left.
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
		{"bit beyond the column count, widest table", 56, []byte{0x81, 0x02, 0x02}, 1},
		{"varint running off the page", 8, append(bytes.Repeat([]byte{0x01, 0x02}, pagePayload/2-1), 0x01, 0xFF), pagePayload / 2},
		{"varint overflowing 64 bits", 8, append([]byte{0x01}, bytes.Repeat([]byte{0xFF}, 11)...), 1},
		{"count of zero", 48, []byte{0x01, 0x02}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { refusedRetiredLeaf(t, c.recSize, 3, c.payload, c.count) })
	}
}

// refusedRetiredLeaf forges a one-leaf run of format v, a retired one,
// holding payload and count, and wants it refused by name.
func refusedRetiredLeaf(t *testing.T, recSize int, v Format, payload []byte, count uint16) {
	t.Helper()
	f := forgeLeaf(t, recSize, v, payload, count)
	var header [storage.PageSize]byte
	if _, err := f.ReadAt(header[:], 0); err != nil {
		t.Fatal(err)
	}
	h, err := decodeHeader(header[:])
	if err != nil {
		t.Fatal(err)
	}
	refusedByName(t, f, h, fmt.Sprintf("run format %d is no longer read", v))
}

// FuzzDeltaLeaf feeds an arbitrary payload and count through the reader
// as a checksummed leaf page of a delta format: v3 (fmtSel 0), v2 (1), v6
// (2) or v5 (any other). A v2 or v3 run is refused at Open by name,
// whatever its leaf holds: those formats are retired. A v5 or v6 one must
// never panic, must fail only with ErrCorrupt, and must fail exactly when
// the reference decoder (decodePackedLeaf) does. Otherwise the cursor —
// plain and NoFill — yields the reference's records, they re-encode to
// what was read, and seeks agree with a search over them.
func FuzzDeltaLeaf(f *testing.F) {
	var flat []byte
	recs := sortedRecords48(40)
	for _, r := range recs {
		flat = append(flat, r...)
	}
	n := uint16(len(recs))
	// Leaves of the retired formats 3 and 2, refused whatever they hold.
	f.Add(flat, n, uint8(1), uint8(0))
	f.Add([]byte{}, uint16(0), uint8(0), uint8(0))
	f.Add(flat, n, uint8(1), uint8(1))
	f.Add([]byte{0x80, 0x00, 0x01}, uint16(2), uint8(0), uint8(1))
	// Packed leaves, as v6 and as v5: the 40 records, one too many, cut
	// short, read as the wrong width, the eight-byte records 5, 7, … past
	// five anchors, and a width over 64.
	packed := packLeaf(nil, flat, 48)
	var eights []byte
	for i := uint64(0); i < 170; i++ {
		eights = append(eights, rec8(5+2*i)...)
	}
	for _, fmtSel := range []uint8{2, 3} {
		f.Add(packed, n, uint8(1), fmtSel)
		f.Add(packed, n+1, uint8(1), fmtSel)
		f.Add(packed[:len(packed)/2], n, uint8(1), fmtSel)
		f.Add(packed, n, uint8(2), fmtSel)
		f.Add(packLeaf(nil, eights, 8), uint16(170), uint8(0), fmtSel)
		f.Add([]byte{65, 0, 0}, uint16(1), uint8(0), fmtSel)
	}
	// No records, bytes that are all ones, and a record's bit flipped.
	f.Add([]byte{}, uint16(0), uint8(1), uint8(2))
	f.Add(bytes.Repeat([]byte{0xFF}, 64), uint16(3), uint8(1), uint8(2))
	f.Add(bytes.Repeat([]byte{0xFF}, 64), uint16(3), uint8(1), uint8(3))
	f.Add(make([]byte, 16), uint16(2), uint8(0), uint8(2))
	flipped := append([]byte(nil), packed...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped, n, uint8(1), uint8(2))
	f.Add(flipped, n, uint8(1), uint8(3))
	f.Add(packLeaf(nil, eights, 8), uint16(171), uint8(0), uint8(2))

	f.Fuzz(func(t *testing.T, payload []byte, count uint16, sizeSel, fmtSel uint8) {
		recSize := []int{8, 48, 56, 64}[sizeSel%4]
		format := []Format{3, 2, FormatDelta, formatDeltaV5}[min(fmtSel, 3)]
		if !format.delta() {
			refusedRetiredLeaf(t, recSize, format, payload, count)
			return
		}
		file := forgeLeaf(t, recSize, format, payload, count)
		r, err := Open(file, nil)
		if err != nil {
			t.Fatal(err)
		}
		padded, _, err := r.readPageRaw(new([storage.PageSize]byte), 1)
		if err != nil {
			t.Fatal(err)
		}
		want, consumed, wantErr := decodePackedLeaf(padded, int(count), recSize)
		if consumed > len(padded) {
			t.Fatalf("reference consumed %d of %d payload bytes", consumed, len(padded))
		}
		it, err := r.First()
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("First: %v, reference decode: %v", err, wantErr)
		}
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
		for i, rec := range got {
			if !bytes.Equal(rec, want[i*recSize:(i+1)*recSize]) || !bytes.Equal(rec, streamed[i]) {
				t.Fatalf("record %d = %x, NoFill %x, reference %x", i, rec, streamed[i], want[i*recSize:(i+1)*recSize])
			}
		}
		// Canonical re-encoding reproduces the input unless the input
		// spent extra bytes — wider fields or lower bases than it needed;
		// either way it decodes to the same records.
		if enc := packLeaf(nil, want, recSize); !bytes.HasPrefix(padded, enc) {
			again, _, err := decodePackedLeaf(append(enc, make([]byte, 16)...), int(count), recSize)
			if err != nil || !bytes.Equal(again, want) {
				t.Fatalf("re-encoded page decodes differently (%v)", err)
			}
		}
		// Seeks — through a warm reader and a NoFill one — land where a
		// search over the reference's records does: around two records of
		// every anchor interval for the first, eight of the page for the
		// second.
		warm, err := Open(file, NewCacheBytes(1<<20))
		if err != nil {
			t.Fatal(err)
		}
		for _, rd := range []*Reader{warm, r.NoFill()} {
			step := max(len(got)/8, 1)
			if rd == warm {
				step = anchorEvery/2 + 1
			}
			for i := 0; i < len(got); i += step {
				for _, key := range [][]byte{neighbour(got[i], false), got[i], neighbour(got[i], true)} {
					if key == nil {
						continue
					}
					var rec []byte
					var ok bool
					it, err := rd.SeekGE(key)
					if err == nil {
						rec, ok, err = it.Next()
					}
					j := sort.Search(len(got), func(j int) bool { return bytes.Compare(got[j], key) >= 0 })
					if err != nil || ok != (j < len(got)) || (ok && !bytes.Equal(rec, got[j])) {
						t.Fatalf("SeekGE(%x) = %x ok=%v err=%v, want record %d of %d", key, rec, ok, err, j, len(got))
					}
				}
			}
		}
	})
}

// FuzzPackedLeaf builds arbitrary sorted records — each column cut from
// the input, at full width where wide has the column's bit set and its low
// byte otherwise — into a v5 run and a raw one, and requires the v5 run to
// answer a scan and every seek at, around and at the block of every record
// exactly as the raw run does, cached and uncached.
func FuzzPackedLeaf(f *testing.F) {
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, 40), uint8(1), uint8(0))
	f.Add(bytes.Repeat([]byte{0xFF, 0, 0x80, 7}, 300), uint8(3), uint8(0xFF))
	f.Add(bytes.Repeat([]byte{0xA5}, 2000), uint8(2), uint8(0x41))
	f.Add([]byte{9}, uint8(0), uint8(1))
	f.Add([]byte{}, uint8(1), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, sizeSel, wide uint8) {
		recSize := []int{8, 16, 48, 56, 64}[int(sizeSel)%5]
		cols := recSize / 8
		var recs [][]byte
		for off := 0; len(recs) == 0 || off < len(data) && len(recs) < 3000; {
			rec := make([]byte, recSize)
			for c := range cols {
				n := 1
				if wide>>c&1 != 0 {
					n = 8
				}
				off += copy(rec[c*8+8-n:c*8+8], data[min(off, len(data)):])
			}
			recs = append(recs, rec)
		}
		recs = slices.CompactFunc(sortRecords(recs), bytes.Equal)
		fs := storage.NewMemFS()
		raw, err := Open(buildRunFormat(t, fs, "raw", recSize, FormatRaw, recs), nil)
		if err != nil {
			t.Fatal(err)
		}
		packedFile := buildRunFormat(t, fs, "packed", recSize, FormatDelta, recs)
		for _, cache := range []*Cache{nil, NewCacheBytes(1 << 20)} {
			packed, err := Open(packedFile, cache)
			if err != nil {
				t.Fatal(err)
			}
			got, err := drain(packed)
			if err != nil || !slices.EqualFunc(got, recs, bytes.Equal) {
				t.Fatalf("scan of %d records: %d (%v)", len(recs), len(got), err)
			}
			for _, rec := range recs {
				block := make([]byte, recSize)
				copy(block, rec[:8])
				for _, key := range [][]byte{neighbour(rec, false), rec, neighbour(rec, true), block} {
					if key == nil {
						continue
					}
					want, wantErr := seekNext(raw, key)
					have, err := seekNext(packed, key)
					if err != nil || wantErr != nil || !bytes.Equal(have, want) {
						t.Fatalf("SeekGE(%x): packed %x (%v), raw %x (%v)", key, have, err, want, wantErr)
					}
				}
			}
		}
	})
}

// seekNext returns the record SeekGE(key) then Next yield, nil at the end.
func seekNext(r *Reader, key []byte) ([]byte, error) {
	it, err := r.SeekGE(key)
	if err != nil {
		return nil, err
	}
	rec, _, err := it.Next()
	return rec, err
}

// FuzzIndexAndRawPages feeds an arbitrary payload and count through the
// reader as the checksummed root page or first leaf of a three-leaf raw
// run — the two page kinds read as fixed-stride entries. A count that is
// zero or runs past the payload is ErrCorrupt; otherwise the page is held
// at exactly count entries (so a read past them would panic, and none
// does), a descent takes a child one of those entries names, and a scan
// yields the leaf's count records and then the untouched leaves'.
func FuzzIndexAndRawPages(f *testing.F) {
	const recSize = 16
	var recs [][]byte
	for i := uint64(0); i < 600; i++ {
		recs = append(recs, append(rec8(i/3), rec8(i)...))
	}
	src := buildRunFormat(f, storage.NewMemFS(), "run", recSize, FormatRaw, recs)
	size, err := src.Size()
	if err != nil {
		f.Fatal(err)
	}
	run := make([]byte, size)
	if _, err := src.ReadAt(run, 0); err != nil {
		f.Fatal(err)
	}
	page := func(no int) []byte { return run[no*storage.PageSize+pageCountLen : (no+1)*storage.PageSize-pageCRCLen] }
	f.Add(page(4)[:3*(recSize+8)], uint16(3), true, recs[300]) // the genuine root
	f.Add(page(4)[:3*(recSize+8)], uint16(0), true, recs[300])
	f.Add(page(4)[:3*(recSize+8)], uint16(171), true, recs[599]) // one entry too many for a page
	f.Add(bytes.Repeat([]byte{0xFF}, 48), uint16(2), true, recs[0])
	f.Add(page(1), uint16(255), false, recs[100]) // the genuine first leaf
	f.Add(page(1), uint16(256), false, recs[100])
	f.Add(page(1)[:40], uint16(7), false, recs[1])
	f.Add([]byte{}, uint16(0), false, []byte{})

	f.Fuzz(func(t *testing.T, payload []byte, count uint16, internal bool, key []byte) {
		file := plantFile(t, run)
		cache := NewCacheBytes(1 << 20)
		r, err := Open(file, cache)
		if err != nil {
			t.Fatal(err)
		}
		if r.h.Levels != 1 || r.h.LeafPages != 3 || r.h.RootPage != 4 {
			t.Fatalf("run geometry: %+v", r.h)
		}
		pageNo, stride := uint64(1), recSize
		if internal {
			pageNo, stride = r.h.RootPage, recSize+8
		}
		forgePage(t, file, int64(pageNo), count, payload)
		padded := make([]byte, pagePayload)
		copy(padded, payload)
		valid := count > 0 && int(count)*stride <= pagePayload
		seekKey := make([]byte, recSize)
		copy(seekKey, key)

		for pass := 0; pass < 2; pass++ { // a miss, then a hit
			leaf, err := r.findLeaf(seekKey)
			got, scanErr := drain(r)
			it, seekErr := r.SeekGE(seekKey)
			var found []byte
			if seekErr == nil {
				found, _, seekErr = it.Next()
			}
			for _, err := range []error{err, scanErr, seekErr} {
				if err != nil && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("got %v, want ErrCorrupt or nothing", err)
				}
			}
			if !valid {
				if (internal && err == nil) || (!internal && scanErr == nil) {
					t.Fatalf("count %d of %d-byte entries accepted", count, stride)
				}
				continue
			}
			p := cache.get(r.id, pageNo)
			if p == nil || len(p.payload) != int(count)*stride || cap(p.payload) != len(p.payload) {
				t.Fatalf("page %d held as %+v, want exactly %d entries of %d bytes", pageNo, p, count, stride)
			}
			if internal {
				if err != nil {
					t.Fatalf("findLeaf through %d entries: %v", count, err)
				}
				named := false
				for i := 0; i < int(count); i++ {
					named = named || binary.LittleEndian.Uint64(padded[i*stride+recSize:]) == leaf
				}
				if !named {
					t.Fatalf("findLeaf chose page %d, which none of the %d entries names", leaf, count)
				}
				continue
			}
			if scanErr != nil || len(got) != int(count)+len(recs)-255 {
				t.Fatalf("scan: %d records (%v), want %d forged and %d untouched", len(got), scanErr, count, len(recs)-255)
			}
			for i, rec := range got {
				want := recs[255+max(i-int(count), 0)]
				if i < int(count) {
					want = padded[i*recSize : (i+1)*recSize]
				}
				if !bytes.Equal(rec, want) {
					t.Fatalf("scan record %d = %x, want %x", i, rec, want)
				}
			}
			if found != nil && !slices.ContainsFunc(got, func(rec []byte) bool { return bytes.Equal(rec, found) }) {
				t.Fatalf("SeekGE(%x) found %x, which is not in the run", seekKey, found)
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
