package btree

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Format identifies the leaf-page encoding of a run; the header page
// carries it in the version field, so readers open every readable format
// transparently.
type Format uint32

const (
	// FormatRaw stores fixed-stride records verbatim — the v1 format.
	FormatRaw Format = 1
	// formatDeltaV2 is the previous delta format, read and never written:
	// like FormatDelta but with one varint for every column of every
	// record, changed or not. Compaction rewrites such runs into
	// FormatDelta; the next format bump deletes this reader.
	formatDeltaV2 Format = 2
	// FormatDelta is the v3 format: a leaf record is a presence bitmap
	// (one bit per column, set when the column differs from the previous
	// record's) followed by the delta + zigzag + LEB128 varint of each
	// flagged column, restarting from all-zero columns at every page
	// boundary so each 4 KB page stays independently seekable and
	// CRC-checked. Requires the record size to be a multiple of 8: a
	// record is treated as a row of big-endian u64 columns, which
	// preserves bytes.Compare order. Internal index pages stay raw in
	// every format.
	FormatDelta Format = 3
)

func (f Format) String() string {
	switch f {
	case FormatRaw:
		return "raw"
	case formatDeltaV2:
		return "delta-v2"
	case FormatDelta:
		return "delta"
	default:
		return fmt.Sprintf("format(%d)", uint32(f))
	}
}

// delta reports whether leaves are delta-encoded (in either version).
func (f Format) delta() bool { return f == FormatDelta || f == formatDeltaV2 }

// Zigzag maps signed deltas onto unsigned integers so small negative
// deltas encode as small varints.
func Zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// VarintLen returns the LEB128-encoded length of v in bytes.
func VarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// bitmapLen returns the bytes of a record's presence bitmap.
func bitmapLen(cols int) int { return (cols + 7) / 8 }

// appendDeltaRecord appends rec's FormatDelta encoding relative to prev,
// which holds the previous record's column values (all zero at a page
// restart): the presence bitmap, bit c%8 of byte c/8 for column c, then
// the flagged columns' deltas in column order.
func appendDeltaRecord(dst, rec []byte, prev []uint64) []byte {
	at := len(dst)
	for range bitmapLen(len(prev)) {
		dst = append(dst, 0)
	}
	for c := range prev {
		if d := binary.BigEndian.Uint64(rec[c*8:]) - prev[c]; d != 0 {
			dst[at+c/8] |= 1 << (c % 8)
			dst = binary.AppendUvarint(dst, Zigzag(int64(d)))
		}
	}
	return dst
}

// restartInterval is K: a delta leaf's restart table holds every K-th
// record, so a seek stream-decodes at most K records. At the ≈5.7 encoded
// bytes the bench stores measure per 48/56-byte record a full page holds
// ≈710 records, i.e. ≈23 restart points of recSize+2 bytes: ≈1.2 KB
// charged to the cache beside the 4 KB payload, which is the trade — K =
// 16 would halve the records a seek decodes (≈0.2 µs) and keep a sixth
// fewer pages per cache byte; K = 64 would keep a tenth more and double
// the decode.
const restartInterval = 32

// A deltaDecoder decodes the record encoded at payload[pos:] onto rec,
// which holds the previous record of the page (all zero before the first),
// and returns the offset of the record after it, or -1 if the bytes there
// are malformed. first marks the page's first record, the only one that
// may equal its predecessor (the all-zero restart state). A Reader picks
// its decoder once, at Open.
type deltaDecoder func(payload []byte, pos int, rec []byte, first bool) (next int)

func decoderFor(format Format, recSize int) deltaDecoder {
	switch {
	case format == formatDeltaV2:
		return deltaNextV2
	case format == FormatDelta && recSize <= 64:
		return deltaNext
	case format == FormatDelta:
		return deltaNextWide
	}
	return nil
}

// addDelta reads the non-zero varint at payload[pos:] and adds the delta it
// zigzag-encodes to the column at rec[c:]. It returns the offset after the
// varint, or -1 if it is truncated, overflows or is zero (an encoder never
// flags an unchanged column).
func addDelta(payload []byte, pos int, rec []byte, c int) int {
	u, n := binary.Uvarint(payload[pos:])
	if n <= 0 || u == 0 {
		return -1
	}
	binary.BigEndian.PutUint64(rec[c:], binary.BigEndian.Uint64(rec[c:])+uint64(unzigzag(u)))
	return pos + n
}

// deltaNext is the FormatDelta decoder for records of at most eight
// columns, whose bitmap is one byte. It visits the set bits, not the
// columns: the typical record flags two or three of six or seven. A zero
// bitmap after the page's first record (an exact repeat, which ascending
// records exclude — and what a page's zero padding would decode to under
// an inflated count), a bit at or beyond the column count, and a flagged
// column with a zero or truncated varint are all malformed.
func deltaNext(payload []byte, pos int, rec []byte, first bool) int {
	if pos >= len(payload) {
		return -1
	}
	m := payload[pos]
	pos++
	if (m == 0 && !first) || int(m)>>(len(rec)/8) != 0 {
		return -1
	}
	for ; m != 0; m &= m - 1 {
		c := bits.TrailingZeros8(m) * 8
		if pos < len(payload) && payload[pos]-1 < 0x7F {
			// A one-byte delta, the common case, without the call.
			u := uint64(payload[pos])
			binary.BigEndian.PutUint64(rec[c:], binary.BigEndian.Uint64(rec[c:])+uint64(unzigzag(u)))
			pos++
		} else if pos = addDelta(payload, pos, rec, c); pos < 0 {
			return -1
		}
	}
	return pos
}

// deltaNextWide is deltaNext for records of more than eight columns.
func deltaNextWide(payload []byte, pos int, rec []byte, first bool) int {
	cols := len(rec) / 8
	deltas := pos + bitmapLen(cols)
	if deltas > len(payload) {
		return -1
	}
	bitmap := payload[pos:deltas]
	pos = deltas
	changed := false
	for i, m := range bitmap {
		for ; m != 0; m &= m - 1 {
			c := i*8 + bits.TrailingZeros8(m)
			if c >= cols {
				return -1
			}
			if pos = addDelta(payload, pos, rec, c*8); pos < 0 {
				return -1
			}
			changed = true
		}
	}
	if !changed && !first {
		return -1
	}
	return pos
}

// deltaNextV2 is the formatDeltaV2 decoder: one varint per column, zero
// for an unchanged one. Its only structural check is the repeat rule.
func deltaNextV2(payload []byte, pos int, rec []byte, first bool) int {
	changed := false
	for c := 0; c+8 <= len(rec); c += 8 {
		var u uint64
		if pos < len(payload) && payload[pos] < 0x80 {
			u = uint64(payload[pos])
			pos++
		} else {
			v, n := binary.Uvarint(payload[pos:])
			if n <= 0 {
				return -1
			}
			u = v
			pos += n
		}
		if u != 0 {
			changed = true
			binary.BigEndian.PutUint64(rec[c:], binary.BigEndian.Uint64(rec[c:])+uint64(unzigzag(u)))
		}
	}
	if !changed && !first {
		return -1
	}
	return pos
}

// checkLeafCount rejects a delta leaf whose count field cannot be genuine:
// every record encodes to at least one byte.
func checkLeafCount(payload []byte, count int) error {
	if count <= 0 || count > len(payload) {
		return fmt.Errorf("%w: delta leaf record count %d", ErrCorrupt, count)
	}
	return nil
}

// sampleRestarts walks all count records of a delta leaf with the run's
// decoder and returns the page's restart table: for every
// restartInterval-th record, the record itself (fixed-stride, so
// bytes.Compare orders it against a seek key) followed by the
// little-endian u16 payload offset of the record after it. Any malformed
// input yields an ErrCorrupt-wrapped error, never silently wrong records.
func sampleRestarts(payload []byte, count, recSize int, next deltaDecoder) ([]byte, error) {
	if err := checkLeafCount(payload, count); err != nil {
		return nil, err
	}
	stride := recSize + 2
	restarts := make([]byte, 0, (count+restartInterval-1)/restartInterval*stride)
	rec := make([]byte, recSize)
	pos := 0
	for i := 0; i < count; i++ {
		if pos = next(payload, pos, rec, i == 0); pos < 0 {
			return nil, fmt.Errorf("%w: malformed delta record %d", ErrCorrupt, i)
		}
		if i%restartInterval == 0 {
			restarts = append(restarts, rec...)
			restarts = binary.LittleEndian.AppendUint16(restarts, uint16(pos))
		}
	}
	return restarts, nil
}

// DeltaEstimator predicts the exact encoded leaf-payload bytes the
// FormatDelta writer would produce for a sorted record stream — including
// per-page restarts — without writing anything. Engine.EstimateCompression
// runs on it, so projected and actual sizes come from the same codec and
// cannot drift.
type DeltaEstimator struct {
	prev      []uint64
	colLens   []int
	pageBytes int
	records   uint64
	encoded   uint64
	perCol    []uint64 // one entry per column, then the bitmaps'
}

// NewDeltaEstimator returns an estimator for recordSize-byte records.
func NewDeltaEstimator(recordSize int) (*DeltaEstimator, error) {
	if recordSize <= 0 || recordSize > MaxRecordSize || recordSize%8 != 0 {
		return nil, fmt.Errorf("btree: delta format needs a record size that is a multiple of 8, got %d", recordSize)
	}
	cols := recordSize / 8
	return &DeltaEstimator{
		prev:    make([]uint64, cols),
		colLens: make([]int, cols),
		perCol:  make([]uint64, cols+1),
	}, nil
}

// measure fills colLens with rec's per-column encoded lengths against prev
// (zero for an unflagged column) and returns the record's total, bitmap
// included.
func (e *DeltaEstimator) measure(rec []byte) int {
	total := bitmapLen(len(e.prev))
	for c := range e.prev {
		e.colLens[c] = 0
		if d := binary.BigEndian.Uint64(rec[c*8:]) - e.prev[c]; d != 0 {
			e.colLens[c] = VarintLen(Zigzag(int64(d)))
		}
		total += e.colLens[c]
	}
	return total
}

// Add folds one record into the estimate. Records must arrive in the order
// they would be appended to a Writer (ascending within each Restart
// segment).
func (e *DeltaEstimator) Add(rec []byte) {
	total := e.measure(rec)
	if e.pageBytes > 0 && e.pageBytes+total > pagePayload {
		// Page restart: the writer re-encodes against zero columns.
		e.Restart()
		total = e.measure(rec)
	}
	for c := range e.prev {
		e.prev[c] = binary.BigEndian.Uint64(rec[c*8:])
		e.perCol[c] += uint64(e.colLens[c])
	}
	e.perCol[len(e.prev)] += uint64(bitmapLen(len(e.prev)))
	e.pageBytes += total
	e.encoded += uint64(total)
	e.records++
}

// Restart resets the delta state to a page boundary, as between runs or
// partitions whose record streams are encoded independently.
func (e *DeltaEstimator) Restart() {
	clear(e.prev)
	e.pageBytes = 0
}

// Records returns the number of records folded in.
func (e *DeltaEstimator) Records() uint64 { return e.records }

// EncodedBytes returns the total encoded leaf-payload size.
func (e *DeltaEstimator) EncodedBytes() uint64 { return e.encoded }

// PerColumnBytes returns the encoded size contributed by each u64 column
// and, in one more entry after the last column's, by the presence bitmaps;
// the entries sum to EncodedBytes. The returned slice is owned by the
// estimator.
func (e *DeltaEstimator) PerColumnBytes() []uint64 { return e.perCol }
