package btree

import (
	"encoding/binary"
	"fmt"
)

// Format identifies the leaf-page encoding of a run; the header page
// carries it in the version field, so readers open either format
// transparently.
type Format uint32

const (
	// FormatRaw stores fixed-stride records verbatim — the v1 format.
	FormatRaw Format = 1
	// FormatDelta is the v2 format: leaf records are encoded per column as
	// delta + zigzag + LEB128 varint, restarting at every page boundary so
	// each 4 KB page stays independently seekable and CRC-checked. Requires
	// the record size to be a multiple of 8: a record is treated as a row
	// of big-endian u64 columns, which preserves bytes.Compare order.
	// Internal index pages stay raw in both formats.
	FormatDelta Format = 2
)

func (f Format) String() string {
	switch f {
	case FormatRaw:
		return "raw"
	case FormatDelta:
		return "delta"
	default:
		return fmt.Sprintf("format(%d)", uint32(f))
	}
}

func (f Format) valid() bool { return f == FormatRaw || f == FormatDelta }

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

// appendDeltaRecord appends rec's per-column delta encoding relative to
// prev. prev holds the previous record's column values (all zero at a page
// restart).
func appendDeltaRecord(dst, rec []byte, prev []uint64) []byte {
	for c := range prev {
		v := binary.BigEndian.Uint64(rec[c*8:])
		dst = binary.AppendUvarint(dst, Zigzag(int64(v-prev[c])))
	}
	return dst
}

// restartInterval is K: the validating pass samples every K-th record of
// a delta leaf into the page's restart table, so a seek stream-decodes at
// most K records. At ~9 encoded bytes per 48/56-byte record a full page
// holds ~450 records, i.e. ~15 restart points of recSize+2 bytes (≈0.8 KB
// beside the 4 KB payload; K = 16 would seek ≈0.2 µs faster but keep a
// seventh fewer pages per cache byte).
const restartInterval = 32

// deltaNext decodes the record encoded at payload[pos:] onto rec, which
// holds the previous record of the page (all zero before the first), and
// returns the offset of the record after it, or -1 if a varint is
// truncated. changed reports whether any column moved.
func deltaNext(payload []byte, pos int, rec []byte) (next int, changed bool) {
	for c := 0; c+8 <= len(rec); c += 8 {
		var u uint64
		if pos < len(payload) && payload[pos] < 0x80 {
			u = uint64(payload[pos])
			pos++
		} else {
			v, n := binary.Uvarint(payload[pos:])
			if n <= 0 {
				return -1, false
			}
			u = v
			pos += n
		}
		if u != 0 {
			changed = true
			binary.BigEndian.PutUint64(rec[c:], binary.BigEndian.Uint64(rec[c:])+uint64(unzigzag(u)))
		}
	}
	return pos, changed
}

// sampleRestarts is the one validating pass a delta leaf gets when it is
// read from storage. It walks all count records and returns the page's
// restart table: for every restartInterval-th record, the record itself
// (fixed-stride, so bytes.Compare orders it against a seek key) followed
// by the little-endian u16 payload offset of the record after it. Any
// malformed input — a truncated varint stream or a count field that would
// decode the page's zero padding — yields an ErrCorrupt-wrapped error,
// never silently wrong records.
func sampleRestarts(payload []byte, count, recSize int) ([]byte, error) {
	// Every record encodes to at least one byte per column, so a count
	// beyond the payload length cannot be genuine.
	if count <= 0 || count > len(payload) {
		return nil, fmt.Errorf("%w: delta leaf record count %d", ErrCorrupt, count)
	}
	stride := recSize + 2
	restarts := make([]byte, 0, (count+restartInterval-1)/restartInterval*stride)
	rec := make([]byte, recSize)
	pos := 0
	for i := 0; i < count; i++ {
		next, changed := deltaNext(payload, pos, rec)
		if next < 0 {
			return nil, fmt.Errorf("%w: truncated delta record %d", ErrCorrupt, i)
		}
		if !changed && i > 0 {
			// Records are strictly ascending, so no record after the first
			// of a page can be an exact repeat of its predecessor. An
			// inflated count field would otherwise decode the page's zero
			// padding into silent duplicates of the last record.
			return nil, fmt.Errorf("%w: repeated delta record %d", ErrCorrupt, i)
		}
		pos = next
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
	perCol    []uint64
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
		perCol:  make([]uint64, cols),
	}, nil
}

// Add folds one record into the estimate. Records must arrive in the order
// they would be appended to a Writer (ascending within each Restart
// segment).
func (e *DeltaEstimator) Add(rec []byte) {
	total := 0
	for c := range e.prev {
		v := binary.BigEndian.Uint64(rec[c*8:])
		n := VarintLen(Zigzag(int64(v - e.prev[c])))
		e.colLens[c] = n
		total += n
	}
	if e.pageBytes > 0 && e.pageBytes+total > pagePayload {
		// Page restart: the writer re-encodes against zero columns.
		e.pageBytes = 0
		total = 0
		for c := range e.prev {
			v := binary.BigEndian.Uint64(rec[c*8:])
			n := VarintLen(Zigzag(int64(v)))
			e.colLens[c] = n
			total += n
		}
	}
	for c := range e.prev {
		e.prev[c] = binary.BigEndian.Uint64(rec[c*8:])
		e.perCol[c] += uint64(e.colLens[c])
	}
	e.pageBytes += total
	e.encoded += uint64(total)
	e.records++
}

// Restart resets the delta state to a page boundary, as between runs or
// partitions whose record streams are encoded independently.
func (e *DeltaEstimator) Restart() {
	for c := range e.prev {
		e.prev[c] = 0
	}
	e.pageBytes = 0
}

// Records returns the number of records folded in.
func (e *DeltaEstimator) Records() uint64 { return e.records }

// EncodedBytes returns the total encoded leaf-payload size.
func (e *DeltaEstimator) EncodedBytes() uint64 { return e.encoded }

// PerColumnBytes returns the encoded size contributed by each u64 column.
// The returned slice is owned by the estimator.
func (e *DeltaEstimator) PerColumnBytes() []uint64 { return e.perCol }
