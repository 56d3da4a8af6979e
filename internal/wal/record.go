package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Op is a log record type.
type Op uint8

const (
	// OpAddRef logs that a reference became live at CP.
	OpAddRef Op = 1
	// OpRemoveRef logs that a reference ceased to be live at CP.
	OpRemoveRef Op = 2
	// OpRelocate logs a block relocation: every back reference of Block
	// was transplanted onto NewBlock. CP tags the consistency point the
	// relocation will be flushed under.
	OpRelocate Op = 3
	// OpCheckpoint marks a committed consistency point: every record
	// logged before the mark is durable in the read store. Nothing writes
	// one any more (checkpoints Cut, then Retire); recovery still honours
	// one it reads, since the format defines it and the version-3 golden
	// tail opens with one.
	OpCheckpoint Op = 4
	// OpSegmentEnd seals a segment: recovery stops reading the segment at
	// the mark, in any position. Open stamps one over a torn tail before
	// starting a fresh segment, so the tear stays terminal even after the
	// segment stops being the final one (where torn bytes would otherwise
	// read as corruption).
	OpSegmentEnd Op = 5
	// OpCut heads the segment a Cut opens when a checkpoint freezes the
	// write stores. Unlike OpCheckpoint it promises nothing about
	// durability — the checkpoint has not committed yet — so recovery
	// keeps every record logged before it and replays records strictly by
	// their CP tags. Its only structural role is the one it shares with
	// OpCheckpoint: marking its segment as one that legitimately follows a
	// retired (possibly torn) predecessor.
	OpCut Op = 6
)

func (op Op) String() string {
	switch op {
	case OpAddRef:
		return "addref"
	case OpRemoveRef:
		return "removeref"
	case OpRelocate:
		return "relocate"
	case OpCheckpoint:
		return "checkpoint"
	case OpSegmentEnd:
		return "segment-end"
	case OpCut:
		return "cut"
	default:
		return fmt.Sprintf("Op(%d)", uint8(op))
	}
}

// Record is one logical log entry. Which fields are meaningful depends on
// Op: AddRef/RemoveRef use Block/Inode/Offset/Line/Length and CP;
// Relocate uses Block (the old block), NewBlock, and CP; Checkpoint uses
// CP only. The wal package deliberately does not import internal/core
// (core imports wal), so the reference identity is spelled out as plain
// fields rather than a core.Ref.
type Record struct {
	Op Op
	// CP is the consistency-point tag. Replay skips records whose CP is
	// not newer than the last committed checkpoint.
	CP       uint64
	Block    uint64
	Inode    uint64
	Offset   uint64
	Line     uint64
	Length   uint64
	NewBlock uint64
}

// Frame layout. A segment is a run of frames, one per flush batch: a header,
// then the body — the batch's records back to back, with no per-record
// length or checksum. In version 6, the only one written, the header is
// uvarint(body length) and the CRC-32C of the body, 4 bytes big-endian: 5
// bytes for any body under 128. Version 5's header was a 4-byte big-endian
// body length and the same CRC. The length must be above 0 and in its
// shortest form, so a zero-filled tail reads as a tear in either version.
//
// A record is self-delimiting, its op deciding how many uvarints follow. The
// op byte's low three bits are the Op, its high bits elide fields (see the
// flag constants). Fields, in order — AddRef/RemoveRef: block, [inode,
// offset], [line], [length], [cp]; Relocate: block, new block, [cp];
// Checkpoint and Cut: [cp]; SegmentEnd: nothing. An AddRef or RemoveRef with
// Line 0 and Length 1 — every block reference a file system makes — sets
// flagPacked, names its op, continuation and CP elision in the three bits
// below it and holds the block's low four bits in the high nibble;
// uvarint(block >> 4) follows, then [inode, offset] and [cp] as above.
//
// What a record elides it takes from the elision state (batchState). In
// version 6 the state carries from frame to frame through a segment: it
// starts empty at the segment's first frame, and a frame starts where the
// one before it left off. In version 5 every frame started empty. The
// record encoding is the same in both.
const (
	crcSize = 4
	// frameReserve is the room a batch under construction keeps ahead of
	// its body, into which sealFrame writes the header: the longest header
	// of any version over a body shorter than 4 GiB.
	frameReserve = binary.MaxVarintLen32 + crcSize

	// maxMarkFrame is the largest frame a lone Checkpoint or Cut mark
	// occupies (op + one uvarint).
	maxMarkFrame = frameReserve + 1 + binary.MaxVarintLen64

	// Op byte flags. Each marks fields as omitted because they hold the
	// value nearly every record has there.
	flagLineZero  = 0x80 // AddRef/RemoveRef: Line is 0
	flagLengthOne = 0x40 // AddRef/RemoveRef: Length is 1 (what AddRef substitutes for 0)
	flagSameCP    = 0x20 // CP equals that of the previous record that has one
	// AddRef/RemoveRef: Inode and Offset continue the previous record of
	// the same op — its inode, at its offset + length — as the updates of a
	// file written front to back do.
	flagContinues = 0x10
	// The byte is a packed block update, laid out as below, not an op and
	// flags.
	flagPacked = 0x08
	opMask     = 0x07

	// The packed byte's three low bits, under flagPacked; its high nibble
	// is the block's low four bits.
	packedRemove    = 0x01 // RemoveRef, not AddRef
	packedContinues = 0x02 // flagContinues
	packedSameCP    = 0x04 // flagSameCP
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errTorn reports an incomplete or checksum-failing frame — the expected
// state of a log tail after a crash mid-write. Recovery treats it as
// end-of-log in the final segment and as corruption anywhere else.
var errTorn = errors.New("wal: torn or corrupt frame")

// batchState is the elision state the encoder and the decoder both carry
// through a segment (version 6) or a batch (version 5): the CP of the latest
// record that has one, and where the latest AddRef and the latest RemoveRef
// ended. Relocates and marks leave the ends alone. The first record to need
// either after the state starts empty spells its fields out. An encoder
// whose state holds less than the decoder's only spells out more, so a frame
// encoded from an empty state decodes anywhere in a segment.
type batchState struct {
	cp    uint64
	cpSet bool
	ends  [2]fileEnd // indexed by op - OpAddRef
}

// fileEnd is where an update left its file: the inode, and the offset just
// past the update (offset + length, wrapping at 2^64), which is where a
// continuing update of the same op starts.
type fileEnd struct {
	inode, offset uint64
	set           bool
}

// appendRecord appends r's encoding to a batch body. st is the elision
// state, which it advances.
func appendRecord(dst []byte, r Record, st *batchState) []byte {
	at := len(dst)
	dst = append(dst, byte(r.Op))
	sameCP := byte(flagSameCP)
	switch r.Op {
	case OpAddRef, OpRemoveRef:
		continues := byte(flagContinues)
		packed := r.Line == 0 && r.Length == 1
		if packed {
			dst[at] = byte(r.Block)<<4 | flagPacked | byte(r.Op-OpAddRef)
			dst = binary.AppendUvarint(dst, r.Block>>4)
			continues, sameCP = packedContinues, packedSameCP
		} else {
			dst = binary.AppendUvarint(dst, r.Block)
		}
		end := &st.ends[r.Op-OpAddRef]
		if end.set && end.inode == r.Inode && end.offset == r.Offset {
			dst[at] |= continues
		} else {
			dst = binary.AppendUvarint(dst, r.Inode)
			dst = binary.AppendUvarint(dst, r.Offset)
		}
		*end = fileEnd{inode: r.Inode, offset: r.Offset + r.Length, set: true}
		if packed {
			break
		}
		if r.Line == 0 {
			dst[at] |= flagLineZero
		} else {
			dst = binary.AppendUvarint(dst, r.Line)
		}
		if r.Length == 1 {
			dst[at] |= flagLengthOne
		} else {
			dst = binary.AppendUvarint(dst, r.Length)
		}
	case OpRelocate:
		dst = binary.AppendUvarint(dst, r.Block)
		dst = binary.AppendUvarint(dst, r.NewBlock)
	case OpCheckpoint, OpCut:
		// cp only
	case OpSegmentEnd:
		return dst // no fields at all
	default:
		panic(fmt.Sprintf("wal: encoding unknown op %d", r.Op))
	}
	if st.cpSet && st.cp == r.CP {
		dst[at] |= sameCP
		return dst
	}
	st.cp, st.cpSet = r.CP, true
	return binary.AppendUvarint(dst, r.CP)
}

// frameHeaderLen returns the length of the header of a frame of a format
// version over a body of n bytes.
func frameHeaderLen(version byte, n int) int {
	if version < 6 {
		return 4 + crcSize
	}
	return uvarintLen(uint64(n)) + crcSize
}

func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// sealFrame fills in the header of frame, which is frameReserve reserved
// bytes followed by a complete batch body, and returns the frame: the header
// where it ends against the body, and the body.
func sealFrame(frame []byte, version byte) []byte {
	body := frame[frameReserve:]
	h := frame[frameReserve-frameHeaderLen(version, len(body)) : frameReserve]
	if version < 6 {
		binary.BigEndian.PutUint32(h, uint32(len(body)))
	} else {
		binary.PutUvarint(h, uint64(len(body)))
	}
	binary.BigEndian.PutUint32(h[len(h)-crcSize:], crc32.Checksum(body, crcTable))
	return frame[frameReserve-len(h):]
}

// appendFrame appends recs to dst as one sealed frame of a segment in a
// format version. st is the segment's elision state, which a version-6
// frame starts from and advances; a version-5 frame starts from an empty
// state of its own and leaves st alone.
func appendFrame(dst []byte, version byte, st *batchState, recs ...Record) []byte {
	if version < 6 {
		st = &batchState{}
	}
	start := len(dst)
	dst = append(dst, make([]byte, frameReserve)...)
	for _, r := range recs {
		dst = appendRecord(dst, r, st)
	}
	frame := sealFrame(dst[start:], version)
	return append(dst[:start], frame...)
}

// splitFrame returns the body of the first frame in b, a frame of a format
// version, and the number of bytes the frame occupies. It returns errTorn
// when b holds an incomplete frame, an empty one, a length not in its
// shortest form, or a checksum mismatch — all indistinguishable states of a
// tail cut mid-write. Nothing is sized from the length field: a body is a
// sub-slice of b or nothing.
func splitFrame(b []byte, version byte) (body []byte, n int, err error) {
	var blen uint64
	var h int // header length
	if version < 6 {
		if len(b) < 4+crcSize {
			return nil, 0, errTorn
		}
		blen, h = uint64(binary.BigEndian.Uint32(b)), 4+crcSize
	} else {
		var k int
		if blen, k = binary.Uvarint(b); k <= 0 || k != uvarintLen(blen) {
			return nil, 0, errTorn
		}
		h = k + crcSize
	}
	if blen == 0 || len(b) < h || blen > uint64(len(b)-h) {
		return nil, 0, errTorn
	}
	n = h + int(blen)
	body = b[h:n]
	if crc32.Checksum(body, crcTable) != binary.BigEndian.Uint32(b[h-crcSize:]) {
		return nil, 0, errTorn
	}
	return body, n, nil
}

// errUndecodable reports a frame that passes its checksum and still does
// not decode: damage (or a foreign writer), never a tear.
var errUndecodable = errors.New("wal: batch does not decode")

// walkFrames hands fn the records of b, the frames of a segment in a
// readable format version from its first on, each with the offset of its
// frame. The elision state carries from frame to frame in version 6 and
// starts empty at every frame in version 5. It stops where fn reports true
// and returns nil; at an unreadable frame, whose offset it returns with
// errTorn; or at a frame that does not decode, with errUndecodable.
func walkFrames(b []byte, version byte, fn func(off int, r Record) (stop bool)) (int, error) {
	var st batchState
	for off := 0; off < len(b); {
		body, n, err := splitFrame(b[off:], version)
		if err != nil {
			return off, err
		}
		if version < 6 {
			st = batchState{}
		}
		d := readBatch(body, st)
		for d.more() {
			r, ok := d.next()
			if !ok {
				return off, errUndecodable
			}
			if fn(off, r) {
				return off, nil
			}
		}
		st = d.st
		off += n
	}
	return len(b), nil
}

// uvarints reads consecutive uvarints off a body; bad latches the first
// malformed one.
type uvarints struct {
	b   []byte
	bad bool
}

func (u *uvarints) next() uint64 {
	v, n := binary.Uvarint(u.b)
	if n <= 0 {
		u.bad, u.b = true, nil
		return 0
	}
	u.b = u.b[n:]
	return v
}

// batchReader walks the records of one batch body, which the caller has
// already checksummed (splitFrame). st is the elision state, which ends as
// the next frame of a version-6 segment starts.
type batchReader struct {
	u  uvarints
	st batchState
}

// readBatch starts a walk over a batch body from the elision state st: an
// empty one for a segment's first frame and for every version-5 frame, the
// state the frame before left in version 6.
func readBatch(body []byte, st batchState) batchReader {
	return batchReader{u: uvarints{b: body}, st: st}
}

// more reports whether undecoded bytes remain.
func (d *batchReader) more() bool { return len(d.u.b) > 0 }

// next decodes the next record. It reports false for bytes no encoder
// produces — an unknown op, a flag the op has no field for,
// an elided CP or continuation with no predecessor to take it from, a block
// wider than 64 bits, a malformed or missing uvarint. Behind a valid
// checksum that is damage (or a foreign writer), never a tear.
func (d *batchReader) next() (Record, bool) {
	// Work on a copy and store it back on success: advancing a slice
	// through the pointer would pay a GC write barrier per field.
	u := d.u
	op := u.b[0]
	u.b = u.b[1:]
	var r Record
	flags := op &^ opMask
	if flags&flagPacked != 0 {
		// A packed block update: spell its bits out as the flags they
		// stand for, and take the block's high bits now.
		r.Op = OpAddRef + Op(op&packedRemove)
		flags = flagPacked | flagLineZero | flagLengthOne
		if op&packedContinues != 0 {
			flags |= flagContinues
		}
		if op&packedSameCP != 0 {
			flags |= flagSameCP
		}
		hi := u.next()
		if hi > math.MaxUint64>>4 {
			return Record{}, false
		}
		r.Block = hi<<4 | uint64(op>>4)
	} else {
		r.Op = Op(op & opMask)
	}
	switch r.Op {
	case OpAddRef, OpRemoveRef:
		if flags&flagPacked == 0 {
			r.Block = u.next()
		}
		end := &d.st.ends[r.Op-OpAddRef]
		switch {
		case flags&flagContinues == 0:
			r.Inode, r.Offset = u.next(), u.next()
		case end.set:
			r.Inode, r.Offset = end.inode, end.offset
		default:
			return Record{}, false
		}
		if flags&flagLineZero == 0 {
			r.Line = u.next()
		}
		r.Length = 1
		if flags&flagLengthOne == 0 {
			r.Length = u.next()
		}
		*end = fileEnd{inode: r.Inode, offset: r.Offset + r.Length, set: true}
		flags &^= flagPacked | flagLineZero | flagLengthOne | flagContinues
	case OpRelocate:
		r.Block, r.NewBlock = u.next(), u.next()
	case OpCheckpoint, OpCut:
		// cp only
	case OpSegmentEnd:
		d.u = u
		return r, flags == 0
	default:
		return Record{}, false
	}
	switch {
	case flags == 0:
		r.CP = u.next()
		d.st.cp, d.st.cpSet = r.CP, true
	case flags == flagSameCP && d.st.cpSet:
		r.CP = d.st.cp
	default:
		return Record{}, false
	}
	d.u = u
	return r, !u.bad
}
