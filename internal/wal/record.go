package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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
	// logged before the mark is durable in the read store. Truncate writes
	// one at the head of each fresh segment.
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
	// their CP tags. Its only structural role is the same one a
	// Truncate-written OpCheckpoint plays: marking its segment as one that
	// legitimately follows a retired (possibly torn) predecessor.
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

// Frame layout, identical in every segment format version: a 4-byte
// big-endian payload length, a 4-byte CRC-32C of the payload, then the
// payload itself. The length prefix delimits records; the checksum detects
// torn and corrupt tails. The payload begins with the op byte; what follows
// depends on the version in the segment header. Version 2 (the only one
// written) encodes the op's fields as uvarints, in the order AddRef/
// RemoveRef: block, inode, offset, line, length, cp; Relocate: block, new
// block, cp; Checkpoint and Cut: cp; SegmentEnd: nothing. Version 1 used
// fixed big-endian uint64s in the same order and is still decoded, so that
// a log tail left by an older binary replays. A SegmentEnd frame has no
// fields and is therefore the same bytes in both versions, which is what
// lets sealTear stamp one over a torn tail of either.
const (
	frameHeaderSize = 8
	// maxPayload bounds the length field so that a garbage tail cannot
	// make the reader attempt an absurd allocation.
	maxPayload = 1 << 10

	// maxMarkFrame is the largest frame a Checkpoint or Cut mark occupies
	// in any version (v2: op + one uvarint; v1: op + 8 bytes).
	maxMarkFrame = frameHeaderSize + 1 + binary.MaxVarintLen64
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errTorn reports an incomplete or checksum-failing record — the expected
// state of a log tail after a crash mid-append. Recovery treats it as
// end-of-log in the final segment and as corruption anywhere else.
var errTorn = errors.New("wal: torn or corrupt record")

// appendFrame appends the encoded (version 2) frame for r to dst and
// returns the extended slice.
func appendFrame(dst []byte, r Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, byte(r.Op))
	switch r.Op {
	case OpAddRef, OpRemoveRef:
		dst = binary.AppendUvarint(dst, r.Block)
		dst = binary.AppendUvarint(dst, r.Inode)
		dst = binary.AppendUvarint(dst, r.Offset)
		dst = binary.AppendUvarint(dst, r.Line)
		dst = binary.AppendUvarint(dst, r.Length)
		dst = binary.AppendUvarint(dst, r.CP)
	case OpRelocate:
		dst = binary.AppendUvarint(dst, r.Block)
		dst = binary.AppendUvarint(dst, r.NewBlock)
		dst = binary.AppendUvarint(dst, r.CP)
	case OpCheckpoint, OpCut:
		dst = binary.AppendUvarint(dst, r.CP)
	case OpSegmentEnd:
		// op byte only
	default:
		panic(fmt.Sprintf("wal: encoding unknown op %d", r.Op))
	}
	payload := dst[start+frameHeaderSize:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, crcTable))
	return dst
}

// decodeFrame decodes the first frame in b, whose payload is encoded in the
// given segment format version, returning the record and the number of
// bytes consumed. It returns errTorn when b holds an incomplete frame, a
// checksum mismatch, an implausible header, or a payload that is not
// exactly one record of that version — all indistinguishable states of a
// tail cut mid-write.
func decodeFrame(b []byte, version byte) (Record, int, error) {
	if len(b) < frameHeaderSize {
		return Record{}, 0, errTorn
	}
	be := binary.BigEndian
	plen := int(be.Uint32(b))
	if plen == 0 || plen > maxPayload {
		return Record{}, 0, errTorn
	}
	if len(b) < frameHeaderSize+plen {
		return Record{}, 0, errTorn
	}
	payload := b[frameHeaderSize : frameHeaderSize+plen]
	if crc32.Checksum(payload, crcTable) != be.Uint32(b[4:]) {
		return Record{}, 0, errTorn
	}
	decode := decodePayload
	if version == 1 {
		decode = decodePayloadV1
	}
	r, ok := decode(payload)
	if !ok {
		return Record{}, 0, errTorn
	}
	return r, frameHeaderSize + plen, nil
}

// uvarints reads consecutive uvarints off a payload; bad latches the first
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

// decodePayload decodes a version-2 payload. The fields must consume the
// payload exactly.
func decodePayload(payload []byte) (Record, bool) {
	r := Record{Op: Op(payload[0])}
	u := uvarints{b: payload[1:]}
	switch r.Op {
	case OpAddRef, OpRemoveRef:
		r.Block, r.Inode, r.Offset = u.next(), u.next(), u.next()
		r.Line, r.Length, r.CP = u.next(), u.next(), u.next()
	case OpRelocate:
		r.Block, r.NewBlock, r.CP = u.next(), u.next(), u.next()
	case OpCheckpoint, OpCut:
		r.CP = u.next()
	case OpSegmentEnd:
		// no fields
	default:
		return Record{}, false
	}
	return r, !u.bad && len(u.b) == 0
}

// decodePayloadV1 decodes a version-1 payload: the op byte followed by the
// op's fields as big-endian uint64s.
func decodePayloadV1(payload []byte) (Record, bool) {
	be := binary.BigEndian
	r := Record{Op: Op(payload[0])}
	f := payload[1:]
	switch {
	case (r.Op == OpAddRef || r.Op == OpRemoveRef) && len(f) == 6*8:
		r.Block = be.Uint64(f)
		r.Inode = be.Uint64(f[8:])
		r.Offset = be.Uint64(f[16:])
		r.Line = be.Uint64(f[24:])
		r.Length = be.Uint64(f[32:])
		r.CP = be.Uint64(f[40:])
	case r.Op == OpRelocate && len(f) == 3*8:
		r.Block = be.Uint64(f)
		r.NewBlock = be.Uint64(f[8:])
		r.CP = be.Uint64(f[16:])
	case (r.Op == OpCheckpoint || r.Op == OpCut) && len(f) == 8:
		r.CP = be.Uint64(f)
	case r.Op == OpSegmentEnd && len(f) == 0:
		// no fields
	default:
		return Record{}, false
	}
	return r, true
}
