package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// decodeBatches decodes a run of version-3 frames, as readSegment does but
// without interpreting marks: every record of every batch, in order. The
// error is errTorn for an unreadable frame and ErrCorrupt for a checksummed
// batch that does not decode.
func decodeBatches(b []byte) ([]Record, error) {
	var recs []Record
	for len(b) > 0 {
		body, n, err := splitFrame(b)
		if err != nil {
			return recs, err
		}
		for d := readBatch(body); d.more(); {
			r, ok := d.next()
			if !ok {
				return recs, ErrCorrupt
			}
			recs = append(recs, r)
		}
		b = b[n:]
	}
	return recs, nil
}

func TestBatchRoundtrip(t *testing.T) {
	recs := []Record{
		{Op: OpAddRef, Block: 1, Inode: 2, Offset: 3, Line: 4, Length: 5, CP: 6},
		{Op: OpRemoveRef, Block: 10, Inode: 20, Offset: 30, Line: 40, Length: 50, CP: 60},
		{Op: OpRelocate, Block: 100, NewBlock: 200, CP: 7},
		{Op: OpCheckpoint, CP: 42},
		{Op: OpCut, CP: 1 << 60},
		{Op: OpSegmentEnd},
		{Op: OpRelocate, Block: 3, NewBlock: 4, CP: 1 << 60}, // CP carried across the field-less mark
		{Op: OpAddRef, Block: math.MaxUint64, Inode: math.MaxUint64, Offset: math.MaxUint64,
			Line: math.MaxUint64, Length: math.MaxUint64, CP: math.MaxUint64},
		{Op: OpAddRef, Block: 9, Inode: 8, Offset: 7, Length: 0, CP: math.MaxUint64}, // Length 0 is not the elided default
	}
	one := appendBatch(nil, recs...)
	var each []byte
	for _, r := range recs {
		each = appendBatch(each, r)
	}
	for name, buf := range map[string][]byte{"one batch": one, "a batch per record": each} {
		got, err := decodeBatches(buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, recs) {
			t.Fatalf("%s: got %+v, want %+v", name, got, recs)
		}
	}
}

// TestTypicalUpdateSize pins what the format is for: a reference update
// with the usual line, length and a CP shared with its neighbour costs its
// op byte and three identity fields.
func TestTypicalUpdateSize(t *testing.T) {
	r := Record{Op: OpAddRef, Block: 3000, Inode: 500, Offset: 70, Line: 0, Length: 1, CP: 9}
	prev := batchCP{}
	first := appendRecord(nil, r, &prev)
	next := appendRecord(nil, r, &prev)
	if len(first) != 7 || len(next) != 6 {
		t.Fatalf("first record of a batch is %d bytes, a later one %d; want 7 and 6", len(first), len(next))
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	frame := appendBatch(nil, Record{Op: OpAddRef, Block: 9, Line: 1, CP: 1})
	body := frame[frameHeaderSize:]
	// Unreadable frames: the states a write cut short leaves.
	torn := map[string][]byte{
		"empty":          nil,
		"short header":   frame[:4],
		"truncated body": frame[:len(frame)-1],
		"flipped bit": func() []byte {
			b := append([]byte(nil), frame...)
			b[frameHeaderSize+5] ^= 0x40
			return b
		}(),
		"zero length": make([]byte, frameHeaderSize),
		"absurd length": func() []byte {
			b := append([]byte(nil), frame...)
			b[0], b[1] = 0xff, 0xff
			return b
		}(),
		"op rewritten under the old checksum": func() []byte {
			b := appendBatch(nil, Record{Op: OpCheckpoint, CP: 3})
			b[frameHeaderSize] = 99
			return b
		}(),
	}
	for name, b := range torn {
		if _, _, err := splitFrame(b); !errors.Is(err, errTorn) {
			t.Errorf("%s: splitFrame err = %v, want errTorn", name, err)
		}
	}
	// Checksummed bodies no encoder produces: version 3 calls them corrupt,
	// version 2 (whose frame is the record) unreadable like any torn frame.
	bad := map[string][]byte{
		"trailing byte":             append(append([]byte(nil), body...), 0),
		"missing field":             body[:len(body)-1],
		"overlong uvarint":          append([]byte{byte(OpCheckpoint)}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01),
		"unknown op":                {99, 1},
		"op zero":                   {0},
		"elided CP opening a batch": {byte(OpCut) | flagSameCP},
		"line flag on a relocate":   {byte(OpRelocate) | flagLineZero, 1, 2, 3},
		"flag on a segment end":     {byte(OpSegmentEnd) | flagSameCP},
	}
	for name, body := range bad {
		b := reframe(body)
		if _, err := decodeBatches(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: v3 err = %v, want ErrCorrupt", name, err)
		}
		if _, _, err := decodeLone(b); !errors.Is(err, errTorn) {
			t.Errorf("%s: v2 err = %v, want errTorn", name, err)
		}
	}
	// Two records in one frame are a batch to version 3 and nothing to
	// version 2.
	two := appendBatch(nil, addRec(1), addRec(2))
	if _, _, err := decodeLone(two); !errors.Is(err, errTorn) {
		t.Errorf("two-record batch: v2 err = %v, want errTorn", err)
	}
}

// decodeLone reads the first frame in b the way a version-2 segment is
// read: the frame must hold exactly one record with no flag bit set, and
// anything else is a torn frame.
func decodeLone(b []byte) (Record, int, error) {
	body, n, err := splitFrame(b)
	if err != nil {
		return Record{}, 0, err
	}
	r, ok := loneRecord(body)
	if !ok {
		return Record{}, 0, errTorn
	}
	return r, n, nil
}

// reframe wraps body in a frame with a valid length and checksum, so a test
// reaches the record decoders behind the CRC check.
func reframe(body []byte) []byte {
	b := append(make([]byte, frameHeaderSize), body...)
	sealBatch(b)
	return b
}

// TestBatchReaderAllocatesNothing: decoding is a walk over the input — no
// buffer is sized from a length field, no record is boxed — whatever the
// bytes say.
func TestBatchReaderAllocatesNothing(t *testing.T) {
	good := goldenV3Segment(1)[segHeaderSize:]
	huge := binary.BigEndian.AppendUint32(nil, 1<<31)
	garbage := reframe(bytes.Repeat([]byte{0xff}, 4096))
	var sink Record
	for name, b := range map[string][]byte{"golden": good, "absurd length": huge, "garbage body": garbage} {
		allocs := testing.AllocsPerRun(10, func() {
			for rest := b; len(rest) > 0; {
				body, n, err := splitFrame(rest)
				if err != nil {
					return
				}
				for d := readBatch(body); d.more(); {
					r, ok := d.next()
					if !ok {
						return
					}
					sink = r
				}
				rest = rest[n:]
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per decode", name, allocs)
		}
	}
	_ = sink
}

// randomRecord draws a record of any of the six ops with fields from pool,
// half of the time with the CP a real log's neighbours share.
func randomRecord(rng *rand.Rand, pool []uint64) Record {
	pick := func() uint64 { return pool[rng.Intn(len(pool))] }
	cp := pick()
	if rng.Intn(2) == 0 {
		cp = 4
	}
	switch op := Op(1 + rng.Intn(6)); op {
	case OpAddRef, OpRemoveRef:
		return Record{Op: op, Block: pick(), Inode: pick(), Offset: pick(), Line: pick(), Length: pick(), CP: cp}
	case OpRelocate:
		return Record{Op: op, Block: pick(), NewBlock: pick(), CP: cp}
	case OpCheckpoint, OpCut:
		return Record{Op: op, CP: cp}
	default:
		return Record{Op: OpSegmentEnd}
	}
}

// TestBatchRoundtripProperty: any record sequence, split into batches
// anywhere, decodes to itself; and no single flipped bit in it yields a
// different record list — the damaged batch is torn, its predecessors
// decode as before.
func TestBatchRoundtripProperty(t *testing.T) {
	const seed = 20260926
	rng := rand.New(rand.NewSource(seed))
	// The extremes goldenRecords exercises: every varint width and every
	// flag combination comes up.
	var pool []uint64
	for _, g := range goldenRecords() {
		pool = append(pool, g.Block, g.Inode, g.Offset, g.Line, g.Length, g.CP, g.NewBlock)
	}
	for iter := 0; iter < 200; iter++ {
		recs := make([]Record, 1+rng.Intn(40))
		for i := range recs {
			recs[i] = randomRecord(rng, pool)
		}
		var buf []byte
		var starts, ends []int // per batch: index of its first record, byte offset one past it
		for at := 0; at < len(recs); {
			n := 1 + rng.Intn(len(recs)-at)
			buf = appendBatch(buf, recs[at:at+n]...)
			starts = append(starts, at)
			ends = append(ends, len(buf))
			at += n
		}
		got, err := decodeBatches(buf)
		if err != nil || !slices.Equal(got, recs) {
			t.Fatalf("seed %d iter %d: decoded %+v (%v), want %+v", seed, iter, got, err, recs)
		}
		for flips := 0; flips < 64; flips++ {
			bit := rng.Intn(len(buf) * 8)
			buf[bit/8] ^= 1 << (bit % 8)
			got, err := decodeBatches(buf)
			buf[bit/8] ^= 1 << (bit % 8)
			batch := 0
			for ends[batch] <= bit/8 {
				batch++
			}
			if !errors.Is(err, errTorn) || !slices.Equal(got, recs[:starts[batch]]) {
				t.Fatalf("seed %d iter %d: flipping bit %d (batch %d) decoded %d records (%v), want the %d before the batch and errTorn",
					seed, iter, bit, batch, len(got), err, starts[batch])
			}
		}
	}
}

func TestSegmentNames(t *testing.T) {
	for _, idx := range []uint64{0, 1, 7, 1 << 40} {
		name := segmentName(idx)
		got, ok := parseSegmentName(name)
		if !ok || got != idx {
			t.Fatalf("roundtrip %d -> %q -> %d (%v)", idx, name, got, ok)
		}
	}
	for _, bad := range []string{"MANIFEST", "from-1.run", "wal-.seg", "wal-xyz.seg", "wal-1.seg"} {
		if _, ok := parseSegmentName(bad); ok {
			t.Errorf("parsed %q", bad)
		}
	}
}
