package btree

import (
	"cmp"
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
	// FormatDelta is the v3 format: a leaf record is a one-byte presence
	// bitmap (bit c set when column c differs from the previous record's)
	// followed by the delta + zigzag + LEB128 varint of each flagged
	// column, restarting from all-zero columns at every page boundary so
	// each 4 KB page stays independently seekable and CRC-checked.
	// Requires the record size to be a multiple of 8 and at most
	// MaxDeltaRecordSize: a record is treated as a row of at most eight
	// big-endian u64 columns, which preserves bytes.Compare order.
	// Internal index pages stay raw in every format.
	FormatDelta Format = 3
)

// MaxDeltaRecordSize bounds the record size of a delta run (either
// version): eight columns, one bitmap byte. The widest table's records
// are 56 bytes.
const MaxDeltaRecordSize = 64

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

// zigzag maps signed deltas onto unsigned integers so small negative
// deltas encode as small varints.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendDeltaRecord appends rec's FormatDelta encoding relative to prev,
// which holds the previous record's column values (all zero at a page
// restart): the presence bitmap, bit c for column c, then the flagged
// columns' deltas in column order.
func appendDeltaRecord(dst, rec []byte, prev []uint64) []byte {
	at := len(dst)
	dst = append(dst, 0)
	for c := range prev {
		if d := binary.BigEndian.Uint64(rec[c*8:]) - prev[c]; d != 0 {
			dst[at] |= 1 << c
			dst = binary.AppendUvarint(dst, zigzag(int64(d)))
		}
	}
	return dst
}

// restartInterval is K: a cached delta leaf keeps a restart point at every
// K-th record, so a seek stream-decodes at most K records past the point it
// starts from. A restart point is not a copy of its record: the table holds
// the page's first record once, as the anchor, and every further restart
// record as its FormatDelta encoding against that anchor, behind a
// four-byte directory entry (see restartTable). At the ≈5.7 encoded bytes
// the bench stores measure per 48/56-byte record a full page holds ≈710
// records, i.e. 22 entries of ≈7 bytes, a directory of 92 and the anchor:
// ≈0.3 KB charged to the cache beside the 4 KB payload, where verbatim
// records (recSize+2 bytes each) took ≈1.3 KB — a quarter of the charge,
// and on a store 1.5x its cache the difference between thrashing and
// fitting (`query` read 894 → 491 → 265 → 69 B per query at K = 32 / 64 /
// 128 / no table with verbatim records). What the dense table costs a seek
// is a varint or two per binary-search probe (compareRestart) and one
// record decode where it settles, ≈30 ns more than copying a verbatim
// record; K = 64 would halve the table again for twice the stream-decode
// (≈0.2 µs).
const restartInterval = 32

// restartDirLen is the size of one directory entry of a restart table.
const restartDirLen = 4

// A deltaDecoder decodes the record encoded at payload[pos:] onto rec,
// which holds the previous record of the page (all zero before the first),
// and returns the offset of the record after it, or -1 if the bytes there
// are malformed. first marks the page's first record, the only one that
// may equal its predecessor (the all-zero restart state). A Reader picks
// its decoder once, at Open.
type deltaDecoder func(payload []byte, pos int, rec []byte, first bool) (next int)

func decoderFor(format Format) deltaDecoder {
	switch format {
	case formatDeltaV2:
		return deltaNextV2
	case FormatDelta:
		return deltaNext
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

// deltaNext is the FormatDelta decoder. It visits the set bits, not the
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

// restartTable builds the restart table of one delta leaf from the page's
// records in page order, as the writer encodes them or a reader decodes
// them, so the two build the same bytes. Restart point j = 0, 1, … is
// record j*restartInterval, and the table is
//
//	anchor     the page's first record — restart point 0 — verbatim
//	directory  for every restart point: the little-endian u16 table offset
//	           of its entry (zero for the anchor's, which has none), then
//	           the u16 payload offset of the record after it
//	entries    every restart record but the first, as appendDeltaRecord
//	           encodes it against the anchor — in FormatDelta whatever the
//	           run's format
//
// Until finish, head holds the anchor and the directory, whose entry
// offsets count from the start of entries: the directory's length is the
// page's restart count, which a writer learns only when the page is full.
type restartTable struct {
	head    []byte
	entries []byte
	anchor  [MaxDeltaRecordSize / 8]uint64
}

// add notes record i of the page, whose encoding ends at payload offset
// end; only restart points are kept. Record 0 starts a new table.
func (t *restartTable) add(i int, rec []byte, end int) {
	if i%restartInterval != 0 {
		return
	}
	entry := 0
	anchor := t.anchor[:len(rec)/8]
	if i == 0 {
		t.head = append(t.head[:0], rec...)
		t.entries = t.entries[:0]
		for c := range anchor {
			anchor[c] = binary.BigEndian.Uint64(rec[c*8:])
		}
	} else {
		entry = len(t.entries)
		t.entries = appendDeltaRecord(t.entries, rec, anchor)
	}
	t.head = binary.LittleEndian.AppendUint16(t.head, uint16(entry))
	t.head = binary.LittleEndian.AppendUint16(t.head, uint16(end))
}

// size returns the bytes the finished table will take.
func (t *restartTable) size() int { return len(t.head) + len(t.entries) }

// finish returns the table of the records added since record 0, in a new
// slice of exactly its length, with the directory's entry offsets made
// table offsets.
func (t *restartTable) finish(recSize int) []byte {
	table := make([]byte, t.size())
	copy(table[copy(table, t.head):], t.entries)
	for dir := recSize + restartDirLen; dir < len(t.head); dir += restartDirLen {
		binary.LittleEndian.PutUint16(table[dir:], binary.LittleEndian.Uint16(table[dir:])+uint16(len(t.head)))
	}
	return table
}

// sampleRestarts walks all count records of a delta leaf with the run's
// decoder, adding them to t, and returns the payload bytes the records
// occupy; t.finish then yields the page's restart table. Any malformed
// input yields an ErrCorrupt-wrapped error, never silently wrong records.
func sampleRestarts(t *restartTable, payload []byte, count, recSize int, next deltaDecoder) (int, error) {
	if err := checkLeafCount(payload, count); err != nil {
		return 0, err
	}
	rec := make([]byte, recSize)
	pos := 0
	for i := 0; i < count; i++ {
		if pos = next(payload, pos, rec, i == 0); pos < 0 {
			return 0, fmt.Errorf("%w: malformed delta record %d", ErrCorrupt, i)
		}
		t.add(i, rec, pos)
	}
	return pos, nil
}

// compareRestart orders the record of restart point j >= 1 against key
// without materializing it: column by column, each the anchor's plus the
// entry's delta if the entry flags one, stopping at the first that
// differs — for a block-prefix key, nearly always the first. ok is false
// if the entry is malformed.
func compareRestart(table []byte, j int, key []byte) (order int, ok bool) {
	cols := len(key) / 8
	at := int(binary.LittleEndian.Uint16(table[len(key)+j*restartDirLen:]))
	pos := at + 1
	if pos > len(table) {
		return 0, false
	}
	for c := 0; c < cols; c++ {
		v := binary.BigEndian.Uint64(table[c*8:])
		if table[at]>>c&1 != 0 {
			u, n := binary.Uvarint(table[pos:])
			if n <= 0 {
				return 0, false
			}
			v += uint64(unzigzag(u))
			pos += n
		}
		if k := binary.BigEndian.Uint64(key[c*8:]); v != k {
			return cmp.Compare(v, k), true
		}
	}
	return 0, true
}

// seekRestart binary-searches the restart table of a count-record leaf for
// the last restart point whose record is <= key — the first if key sorts
// before the whole page — and returns the cursor state there: rec holds
// that record, idx records are consumed and the next one starts at payload
// offset pos. The probes compare in place; only the restart record the seek
// settles on is decoded, onto a copy of the anchor, with the FormatDelta
// decoder whatever the run's format. An entry that does not decode means
// memory corruption and comes back as ErrCorrupt.
func seekRestart(table []byte, count int, key, rec []byte) (idx, pos int, err error) {
	lo, hi := 1, (count-1)/restartInterval+1
	for lo < hi {
		mid := (lo + hi) / 2
		order, ok := compareRestart(table, mid, key)
		if !ok {
			return 0, 0, errRestartTable
		}
		if order <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	j := lo - 1
	dir := table[len(rec)+j*restartDirLen:]
	copy(rec, table) // the anchor
	// An entry repeats the anchor only in a page whose records do not
	// ascend, which no writer produces; it must decode all the same.
	if j > 0 && deltaNext(table, int(binary.LittleEndian.Uint16(dir)), rec, true) < 0 {
		return 0, 0, errRestartTable
	}
	return j*restartInterval + 1, int(binary.LittleEndian.Uint16(dir[2:])), nil
}

var errRestartTable = fmt.Errorf("%w: malformed restart table", ErrCorrupt)
