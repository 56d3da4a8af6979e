package btree

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Format identifies the leaf-page encoding of a run; the header page
// carries it in the version field, so readers open every readable format
// transparently.
type Format uint32

const (
	// FormatRaw stores fixed-stride records verbatim — the v1 format.
	FormatRaw Format = 1
	// formatDeltaV5 is the previous delta format, read and never written:
	// FormatDelta's file, but with its pages padded — the first section's
	// header a 4 KB page, and every root 4 KB.
	formatDeltaV5 Format = 5
	// FormatDelta is the v6 format: bit-packed leaves. A leaf holds a small
	// header — a bit width and a base per column, and the absolute block of
	// every anchorEvery-th record — then its records, each the same number
	// of bits: the block as an unsigned delta from the previous record's,
	// every other column as its offset from the page minimum (see
	// leafShape.pack). Each 4 KB page stays independently seekable and
	// CRC-checked. Requires the record size to be a multiple of 8 and at
	// most MaxDeltaRecordSize: a record is treated as a row of at most
	// eight big-endian u64 columns, which preserves bytes.Compare order.
	// Internal index pages stay raw in every format. Only the first section
	// of a file keeps a header (see FileWriter and Header.FirstPage), and no
	// section's last page, and no header, is padded to 4 KB (Header.RootLen).
	FormatDelta Format = 6
)

// MaxDeltaRecordSize bounds the record size of a delta run (either
// version): eight columns. The widest table's records are 56 bytes.
const MaxDeltaRecordSize = 64

// maxCols is the column count of the widest delta record.
const maxCols = MaxDeltaRecordSize / 8

func (f Format) String() string {
	switch f {
	case FormatRaw:
		return "raw"
	case formatDeltaV5:
		return "delta-v5"
	case FormatDelta:
		return "delta"
	default:
		return fmt.Sprintf("format(%d)", uint32(f))
	}
}

// delta reports whether leaves are bit-packed, in v5 or v6; the header of
// each carries the filter's checksum.
func (f Format) delta() bool { return f == formatDeltaV5 || f == FormatDelta }

// anchorEvery is K: a packed leaf carries the absolute block of every K-th
// record, so a seek binary-searches those anchors and then sums at most K
// block deltas. Each anchor costs one field as wide as the page's block
// span (≈18 bits on the bench's stores), so at K = 32 the anchors take
// under one bit per record.
const anchorEvery = 32

// maxLeafRecords bounds the records of one packed leaf, which bounds what
// a writer buffers per page: only records narrower than a byte reach it
// before the page is full.
const maxLeafRecords = 4096

// A packed leaf is, after the page's record count:
//
//	widths   one byte per column: the bits of its field, 0..64 (column 0's
//	         is the block delta's)
//	bases    per column, a uvarint: the page's first block for column 0,
//	         the page minimum for every other
//	anchor   one byte: the bits of an anchor field, 0..64
//	bits     little-endian, least significant bit first: for j = 1 ..
//	         (count-1)/K the block of record j*K minus the first block, at
//	         the anchor width; then every record, its columns' fields in
//	         column order — the block minus the previous record's (zero for
//	         record 0), every other column minus its base
//
// A column that is constant on the page has width 0 and takes no bits.

// leafShape accumulates what packing a run of records costs: their count,
// the first and last block, the widest block delta, every other column's
// range, and from those the fields' widths and the header's bytes. A
// writer asks whether the next record would still fit the page (sizeWith)
// before it adds it.
type leafShape struct {
	n           int
	cols        int
	first, last uint64
	maxDelta    uint64
	lo, hi      [maxCols]uint64
	width       [maxCols]uint8
	recBits     int // the widths' sum
	hdr         int // bytes before the bit stream
}

func (s *leafShape) add(rec []byte) {
	b := binary.BigEndian.Uint64(rec)
	if s.n == 0 {
		*s = leafShape{cols: len(rec) / 8, first: b, last: b}
		s.hdr = s.cols + uvarintLen(b) + 1
		for c := 1; c < s.cols; c++ {
			v := binary.BigEndian.Uint64(rec[c*8:])
			s.lo[c], s.hi[c] = v, v
			s.hdr += uvarintLen(v)
		}
		s.n = 1
		return
	}
	if d := b - s.last; d > s.maxDelta {
		s.maxDelta = d
		s.setWidth(0, d)
	}
	for c := 1; c < s.cols; c++ {
		switch v := binary.BigEndian.Uint64(rec[c*8:]); {
		case v < s.lo[c]:
			s.hdr += uvarintLen(v) - uvarintLen(s.lo[c])
			s.lo[c] = v
			s.setWidth(c, s.hi[c]-v)
		case v > s.hi[c]:
			s.hi[c] = v
			s.setWidth(c, v-s.lo[c])
		}
	}
	s.last = b
	s.n++
}

// setWidth makes column c's field wide enough for span.
func (s *leafShape) setWidth(c int, span uint64) {
	w := uint8(bits.Len64(span))
	s.recBits += int(w) - int(s.width[c])
	s.width[c] = w
}

// size returns the bytes pack writes for the records added.
func (s *leafShape) size() int {
	anchors := (s.n - 1) / anchorEvery * bits.Len64(s.last-s.first)
	return s.hdr + (anchors+s.n*s.recBits+7)/8
}

// sizeWith returns what size would return with rec added too.
func (s *leafShape) sizeWith(rec []byte) int {
	b := binary.BigEndian.Uint64(rec)
	recBits, hdr := s.recBits, s.hdr
	if d := b - s.last; d > s.maxDelta {
		recBits += bits.Len64(d) - int(s.width[0])
	}
	for c := 1; c < s.cols; c++ {
		switch v := binary.BigEndian.Uint64(rec[c*8:]); {
		case v < s.lo[c]:
			hdr += uvarintLen(v) - uvarintLen(s.lo[c])
			recBits += bits.Len64(s.hi[c]-v) - int(s.width[c])
		case v > s.hi[c]:
			recBits += bits.Len64(v-s.lo[c]) - int(s.width[c])
		}
	}
	anchors := s.n / anchorEvery * bits.Len64(b-s.first)
	return hdr + (anchors+(s.n+1)*recBits+7)/8
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// pack appends to dst the packed leaf of the records in flat, whose shape
// s is, followed by 8 bytes of slack that are not part of it: dst's length
// ends at the leaf, its capacity does not (see getBits).
func (s *leafShape) pack(dst, flat []byte, recSize int) []byte {
	dst = slices.Grow(dst, s.size()+16) // the slack, and bitWriter's last word
	dst = append(dst, s.width[:s.cols]...)
	dst = binary.AppendUvarint(dst, s.first)
	for c := 1; c < s.cols; c++ {
		dst = binary.AppendUvarint(dst, s.lo[c])
	}
	aw := uint8(bits.Len64(s.last - s.first))
	dst = append(dst, aw)
	bw := bitWriter{buf: dst}
	for i := anchorEvery * recSize; i < len(flat); i += anchorEvery * recSize {
		bw.put(binary.BigEndian.Uint64(flat[i:])-s.first, aw)
	}
	prev := s.first
	for i := 0; i < len(flat); i += recSize {
		b := binary.BigEndian.Uint64(flat[i:])
		bw.put(b-prev, s.width[0])
		prev = b
		for c := 1; c < s.cols; c++ {
			bw.put(binary.BigEndian.Uint64(flat[i+c*8:])-s.lo[c], s.width[c])
		}
	}
	return bw.finish()
}

// bitWriter appends fields least significant bit first.
type bitWriter struct {
	buf []byte
	acc uint64 // the n bits not yet appended
	n   uint
}

// put appends the low width bits of v, which has no higher bit set.
func (w *bitWriter) put(v uint64, width uint8) {
	w.acc |= v << w.n
	w.n += uint(width)
	if w.n >= 64 {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, w.acc)
		w.n -= 64
		w.acc = v >> (uint(width) - w.n) // 0 when nothing is left over
	}
}

// finish appends the last partial bytes and 8 bytes of slack, and returns
// the buffer cut to the bytes the fields took.
func (w *bitWriter) finish() []byte {
	used := len(w.buf) + int(w.n+7)/8
	w.buf = binary.LittleEndian.AppendUint64(w.buf, w.acc)
	w.buf = append(w.buf, make([]byte, 8)...)
	return w.buf[:used]
}

// getBits returns the width-bit field at bit offset at of b. It may read
// the 8 bytes past the field's last byte, so b's capacity must extend 8
// bytes past its length (see leafShape.pack, Reader.unpack).
func getBits(b []byte, at int, width uint8) uint64 {
	if width == 0 {
		return 0
	}
	i, s := at>>3, uint(at&7)
	v := binary.LittleEndian.Uint64(b[i:i+8]) >> s
	if s+uint(width) > 64 {
		v |= uint64(b[i : i+9][8]) << (64 - s)
	}
	return v & (^uint64(0) >> (64 - width))
}

// leaf is the parsed header of a packed leaf, which a cached page keeps
// beside its payload: where each record's fields lie and what to add to
// them.
type leaf struct {
	cols    int
	width   [maxCols]uint8
	at      [maxCols]int // bit offset of column c's field in a record
	base    [maxCols]uint64
	recBits int
	anchorW uint8
	anchors int // bit offset of anchor 1
	records int // bit offset of record 0
}

// parseLeaf reads the header of the count-record packed leaf at the front
// of payload and returns it with the bytes the leaf occupies. A width over
// 64, a varint that does not end, and fields that run past the payload are
// ErrCorrupt; whether the records themselves hold together is check's to
// judge.
func parseLeaf(payload []byte, count, recSize int) (l leaf, used int, err error) {
	l.cols = recSize / 8
	if count <= 0 || len(payload) < l.cols {
		return leaf{}, 0, fmt.Errorf("%w: packed leaf of %d records in %d bytes", ErrCorrupt, count, len(payload))
	}
	for c := range l.cols {
		if l.width[c] = payload[c]; l.width[c] > 64 {
			return leaf{}, 0, fmt.Errorf("%w: packed leaf column %d of %d bits", ErrCorrupt, c, l.width[c])
		}
		l.at[c] = l.recBits
		l.recBits += int(l.width[c])
	}
	pos := l.cols
	for c := range l.cols {
		v, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return leaf{}, 0, fmt.Errorf("%w: packed leaf base %d", ErrCorrupt, c)
		}
		l.base[c] = v
		pos += n
	}
	if pos >= len(payload) || payload[pos] > 64 {
		return leaf{}, 0, fmt.Errorf("%w: packed leaf anchor width", ErrCorrupt)
	}
	l.anchorW = payload[pos]
	l.anchors = (pos + 1) * 8
	l.records = l.anchors + (count-1)/anchorEvery*int(l.anchorW)
	used = (l.records + count*l.recBits + 7) / 8
	if used > len(payload) {
		return leaf{}, 0, fmt.Errorf("%w: %d packed records of %d bits past a %d-byte payload", ErrCorrupt, count, l.recBits, len(payload))
	}
	return l, used, nil
}

// check walks the count records of the leaf l describes, whose payload has
// its 8 bytes of slack: record 0's block is the first, every block is the
// sum of the deltas before it with no overflow, every anchor equals the
// block of its record, and the records strictly ascend — a record whose
// block repeats its predecessor's is compared column by column. After it
// no read of the page can fail.
func (l *leaf) check(payload []byte, count int) error {
	if getBits(payload, l.records, l.width[0]) != 0 {
		return fmt.Errorf("%w: packed leaf's first block delta", ErrCorrupt)
	}
	block, at := l.base[0], l.records
	for i := 1; i < count; i++ {
		at += l.recBits
		d := getBits(payload, at, l.width[0])
		if block+d < block {
			return fmt.Errorf("%w: packed record %d's block overflows", ErrCorrupt, i)
		}
		block += d
		if i%anchorEvery == 0 && l.anchor(payload, i/anchorEvery) != block {
			return fmt.Errorf("%w: packed leaf anchor %d", ErrCorrupt, i/anchorEvery)
		}
		if d == 0 && l.compareRecords(payload, i-1, i) >= 0 {
			return fmt.Errorf("%w: packed record %d does not follow its predecessor", ErrCorrupt, i)
		}
	}
	return nil
}

// field returns column c of record i: the block delta for c = 0, the value
// for every other column.
func (l *leaf) field(payload []byte, i, c int) uint64 {
	v := getBits(payload, l.records+i*l.recBits+l.at[c], l.width[c])
	if c > 0 {
		v += l.base[c]
	}
	return v
}

// anchor returns the block of record j*anchorEvery, j >= 1.
func (l *leaf) anchor(payload []byte, j int) uint64 {
	return l.base[0] + getBits(payload, l.anchors+(j-1)*int(l.anchorW), l.anchorW)
}

// compareRecords orders records i and j of the page by their columns after
// the block.
func (l *leaf) compareRecords(payload []byte, i, j int) int {
	for c := 1; c < l.cols; c++ {
		if o := cmp.Compare(l.field(payload, i, c), l.field(payload, j, c)); o != 0 {
			return o
		}
	}
	return 0
}

// compareKey orders record i's columns after the block against key's.
func (l *leaf) compareKey(payload []byte, i int, key []byte) int {
	for c := 1; c < l.cols; c++ {
		if o := cmp.Compare(l.field(payload, i, c), binary.BigEndian.Uint64(key[c*8:])); o != 0 {
			return o
		}
	}
	return 0
}

// record writes record i into rec, its block prev — the block of record
// i-1, or the page's first block for record 0 — plus its delta, and
// returns that block. A record of at most 57 bits, the common case, is
// read with one load.
func (l *leaf) record(payload []byte, i int, prev uint64, rec []byte) uint64 {
	at := l.records + i*l.recBits
	if l.recBits > 57 {
		prev += getBits(payload, at, l.width[0])
		binary.BigEndian.PutUint64(rec, prev)
		for c := 1; c < l.cols; c++ {
			binary.BigEndian.PutUint64(rec[c*8:], l.field(payload, i, c))
		}
		return prev
	}
	bits := binary.LittleEndian.Uint64(payload[at>>3:at>>3+8]) >> (at & 7)
	prev += bits & (^uint64(0) >> (64 - l.width[0]))
	binary.BigEndian.PutUint64(rec, prev)
	for c := 1; c < l.cols; c++ {
		v := bits >> l.at[c] & (^uint64(0) >> (64 - l.width[c]))
		binary.BigEndian.PutUint64(rec[c*8:], l.base[c]+v)
	}
	return prev
}

// seek returns the first record of the count-record page that is >= key,
// and the block of the record before it (the page's first block before
// record 0), or count if every record is smaller. It binary-searches the
// anchors for the last one below key's block — record 0 if none is — and
// sums block deltas from there, at most anchorEvery of them before the
// block reaches key's; the columns after the block are read only where it
// equals key's.
func (l *leaf) seek(payload []byte, count int, key []byte) (idx int, prev uint64) {
	kb := binary.BigEndian.Uint64(key)
	lo, hi := 1, (count-1)/anchorEvery+1
	for lo < hi {
		mid := (lo + hi) / 2
		if l.anchor(payload, mid) < kb {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	idx, prev = (lo-1)*anchorEvery, l.base[0]
	if idx > 0 {
		prev = l.anchor(payload, lo-1) - l.field(payload, idx, 0)
	}
	for ; idx < count; idx++ {
		b := prev + l.field(payload, idx, 0)
		if b > kb || (b == kb && l.compareKey(payload, idx, key) >= 0) {
			break
		}
		prev = b
	}
	return idx, prev
}
