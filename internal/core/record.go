// Package core implements Backlog, the log-structured back-reference
// engine that is the paper's primary contribution (Sections 4 and 5).
//
// The engine tracks, for every physical block, the set of logical owners —
// (inode, offset, snapshot line, extent length) tuples — together with the
// range of consistency-point (CP) versions during which each owner
// referenced the block. Reference additions insert into the From table and
// reference removals insert into the To table; both are write-only. The
// queryable history (the Combined view) is the outer join of the two,
// computed lazily at query time over whatever runs exist and materialized
// in bulk during compaction.
//
// Writable clones are handled by structural inheritance: records of a
// cloned snapshot are implicitly present in the clone line unless overridden
// by a record with from == 0 (Section 4.2.2). Query results are masked
// against the set of snapshots that still exist (Section 4.2.1).
package core

import (
	"encoding/binary"
	"math"
)

// Infinity is the "to" value of a live (incomplete) back reference.
const Infinity = math.MaxUint64

// Record sizes, in bytes. Every field is a 64-bit big-endian integer so
// that bytes.Compare on the encoding equals field-lexicographic order.
// The paper's btrfs port uses the same fields (it adds a length field to
// support extents, Section 6.1); fsim-style block-level callers pass
// Length == 1.
const (
	identityLen   = 40              // block, inode, offset, line, length
	FromRecSize   = identityLen + 8 // + from
	ToRecSize     = identityLen + 8 // + to
	CombinedSize  = identityLen + 16
	TableFrom     = "from"
	TableTo       = "to"
	TableCombined = "combined"
)

// tables lists the three tables in the order every per-table array in the
// package follows, recSizes their record sizes; iFrom and iTo index both.
var (
	tables   = [3]string{TableFrom, TableTo, TableCombined}
	recSizes = [3]int{FromRecSize, ToRecSize, CombinedSize}
)

const (
	iFrom = iota
	iTo
)

// Ref identifies one logical reference to a physical extent: the extent's
// first block, the owning inode, the byte offset (in blocks) within the
// inode, the snapshot line of the owning file system image, and the extent
// length in blocks.
type Ref struct {
	Block  uint64
	Inode  uint64
	Offset uint64
	Line   uint64
	Length uint64
}

// FromRec is a row of the From table: ref became live at CP From.
type FromRec struct {
	Ref
	From uint64
}

// ToRec is a row of the To table: ref ceased to be live at CP To
// (exclusive).
type ToRec struct {
	Ref
	To uint64
}

// CombinedRec is a row of the Combined view: ref was live during
// [From, To). To == Infinity means still live; From == 0 on a clone line
// marks an inheritance override (Section 4.2.2).
type CombinedRec struct {
	Ref
	From uint64
	To   uint64
}

// wsRec is a write-store record: a From or To record's encoding followed
// by zeros, or a Combined record's. The zeros sort a From or To record as
// its encoding does, so every write-store tree holds one record type
// ordered by one comparator, and a record leaves the tree as its encoding,
// the first recSizes[table] bytes. The write store keeps no record structs:
// FromRec, ToRec, CombinedRec and their codecs serve compaction's output,
// the tests and tools.
type wsRec [CombinedSize]byte

// lessRec orders write-store records by their encoding, one big-endian word
// at a time: every field is one word, so this is field order. A word
// compare is cheaper than bytes.Compare on the tree's insert path.
func lessRec(a, b wsRec) bool {
	for i := 0; i < CombinedSize; i += 8 {
		if x, y := binary.BigEndian.Uint64(a[i:]), binary.BigEndian.Uint64(b[i:]); x != y {
			return x < y
		}
	}
	return false
}

// refRec returns the write-store From or To record of ref at cp.
func refRec(ref Ref, cp uint64) (r wsRec) {
	putRef(r[:], ref)
	binary.BigEndian.PutUint64(r[identityLen:], cp)
	return r
}

// wsRecOf returns the write-store record of an encoded record of any table.
func wsRecOf(rec []byte) (r wsRec) {
	copy(r[:], rec)
	return r
}

func putRef(dst []byte, r Ref) {
	be := binary.BigEndian
	be.PutUint64(dst[0:], r.Block)
	be.PutUint64(dst[8:], r.Inode)
	be.PutUint64(dst[16:], r.Offset)
	be.PutUint64(dst[24:], r.Line)
	be.PutUint64(dst[32:], r.Length)
}

func getRef(src []byte) Ref {
	be := binary.BigEndian
	return Ref{
		Block:  be.Uint64(src[0:]),
		Inode:  be.Uint64(src[8:]),
		Offset: be.Uint64(src[16:]),
		Line:   be.Uint64(src[24:]),
		Length: be.Uint64(src[32:]),
	}
}

// EncodeFrom encodes a FromRec into a fresh 48-byte slice.
func EncodeFrom(r FromRec) []byte {
	buf := make([]byte, FromRecSize)
	putRef(buf, r.Ref)
	binary.BigEndian.PutUint64(buf[identityLen:], r.From)
	return buf
}

// DecodeFrom decodes a 48-byte From record.
func DecodeFrom(b []byte) FromRec {
	return FromRec{Ref: getRef(b), From: binary.BigEndian.Uint64(b[identityLen:])}
}

// EncodeTo encodes a ToRec into a fresh 48-byte slice.
func EncodeTo(r ToRec) []byte {
	buf := make([]byte, ToRecSize)
	putRef(buf, r.Ref)
	binary.BigEndian.PutUint64(buf[identityLen:], r.To)
	return buf
}

// DecodeTo decodes a 48-byte To record.
func DecodeTo(b []byte) ToRec {
	return ToRec{Ref: getRef(b), To: binary.BigEndian.Uint64(b[identityLen:])}
}

// EncodeCombined encodes a CombinedRec into a fresh 56-byte slice.
func EncodeCombined(r CombinedRec) []byte {
	buf := make([]byte, CombinedSize)
	putRef(buf, r.Ref)
	binary.BigEndian.PutUint64(buf[identityLen:], r.From)
	binary.BigEndian.PutUint64(buf[identityLen+8:], r.To)
	return buf
}

// DecodeCombined decodes a 56-byte Combined record.
func DecodeCombined(b []byte) CombinedRec {
	return CombinedRec{
		Ref:  getRef(b),
		From: binary.BigEndian.Uint64(b[identityLen:]),
		To:   binary.BigEndian.Uint64(b[identityLen+8:]),
	}
}

// spanFrom, spanTo, and spanCombined are the lsm.TableSpec.Span callbacks:
// they report the consistency-point window a record covers, which run
// builders fold into per-run [MinCP, MaxCP] metadata. A From record's
// reference is born at From (its death, if any, lives in another table, so
// From runs are never expiry candidates); a To record covers its death
// point; a Combined record covers its whole validity interval. Override
// records (from == 0) span only their end point — their synthetic zero
// start is not a real consistency point, and counting it would pin every
// run containing one at MinCP 0 forever.
func spanFrom(rec []byte) (uint64, uint64) {
	f := binary.BigEndian.Uint64(rec[identityLen:])
	return f, f
}

func spanTo(rec []byte) (uint64, uint64) {
	t := binary.BigEndian.Uint64(rec[identityLen:])
	return t, t
}

func spanCombined(rec []byte) (uint64, uint64) {
	f := binary.BigEndian.Uint64(rec[identityLen:])
	t := binary.BigEndian.Uint64(rec[identityLen+8:])
	if f == 0 {
		return t, t
	}
	return f, t
}

// isOverrideCombined reports whether a Combined record is an inheritance
// override (from == 0, Section 4.2.2). Runs containing overrides are
// never dropped by expiry: an override must outlive every snapshot-bound
// record of its line, or purging it would resurrect inheritance the file
// system explicitly terminated.
func isOverrideCombined(rec []byte) bool {
	return binary.BigEndian.Uint64(rec[identityLen:]) == 0
}
