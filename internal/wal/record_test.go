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

// decodeBatches decodes a run of frames of a segment in the given format
// version, as readSegment does but without interpreting marks: every record
// of every batch, in order. The error is errTorn for an unreadable frame and
// ErrCorrupt for a checksummed batch that does not decode.
func decodeBatches(b []byte, version byte) ([]Record, error) {
	var recs []Record
	for len(b) > 0 {
		body, n, err := splitFrame(b)
		if err != nil {
			return recs, err
		}
		for d := readBatch(body, version); d.more(); {
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

// appendV3Batch is appendBatch as version 3 wrote it: every elision but the
// continuation, which an encoder that forgets where each update ended never
// finds.
func appendV3Batch(dst []byte, recs ...Record) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderSize)...)
	var st batchState
	for _, r := range recs {
		st.ends = [2]fileEnd{}
		dst = appendRecord(dst, r, &st)
	}
	sealBatch(dst[start:])
	return dst
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
		{Op: OpAddRef, Block: 9, Inode: 8, Offset: 7, Length: 0, CP: math.MaxUint64},   // Length 0 is not the elided default
		{Op: OpAddRef, Block: 10, Inode: 8, Offset: 7, Length: 1, CP: 3},               // continues a Length-0 update at its offset
		{Op: OpRemoveRef, Block: 11, Inode: 20, Offset: 80, Line: 1, Length: 2, CP: 3}, // continues across everything since
		{Op: OpRemoveRef, Block: 12, Inode: 5, Offset: math.MaxUint64, Length: 1, CP: 3},
		{Op: OpRemoveRef, Block: 13, Inode: 5, Offset: 0, Length: 1, CP: 3}, // continues at the wrapped offset
	}
	one := appendBatch(nil, recs...)
	var each []byte
	for _, r := range recs {
		each = appendBatch(each, r)
	}
	for name, buf := range map[string][]byte{"one batch": one, "a batch per record": each} {
		got, err := decodeBatches(buf, segVersion)
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
// op byte and three identity fields, and one that continues its file where
// the previous update of its op left off costs its op byte and block.
func TestTypicalUpdateSize(t *testing.T) {
	r := Record{Op: OpAddRef, Block: 3000, Inode: 500, Offset: 70, Line: 0, Length: 1, CP: 9}
	var st batchState
	first := appendRecord(nil, r, &st)
	next := appendRecord(nil, r, &st) // the same offset again: no continuation
	r.Block, r.Offset = 3001, 71
	cont := appendRecord(nil, r, &st)
	if len(first) != 7 || len(next) != 6 || len(cont) != 3 {
		t.Fatalf("first record of a batch is %d bytes, a later one %d, a continuing one %d; want 7, 6 and 3",
			len(first), len(next), len(cont))
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
	// Checksummed bodies no encoder produces are corrupt in either readable
	// version. after(...) follows the AddRef above, so the CP and the
	// AddRef's end are there to take.
	after := func(b ...byte) []byte { return append(append([]byte(nil), body...), b...) }
	const upd = flagLineZero | flagLengthOne | flagSameCP
	bad := map[string][]byte{
		"trailing byte":                                  after(0),
		"missing field":                                  body[:len(body)-1],
		"overlong uvarint":                               append([]byte{byte(OpCheckpoint)}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01),
		"unknown op":                                     {15, 1},
		"op zero":                                        {0},
		"elided CP opening a batch":                      {byte(OpCut) | flagSameCP},
		"line flag on a relocate":                        {byte(OpRelocate) | flagLineZero, 1, 2, 3},
		"flag on a segment end":                          {byte(OpSegmentEnd) | flagSameCP},
		"continuation opening a batch":                   {byte(OpAddRef) | flagContinues | flagLineZero | flagLengthOne, 5, 1},
		"continuation of the other op's update":          after(byte(OpRemoveRef)|flagContinues|upd, 5),
		"continuation flag on a relocate":                after(byte(OpRelocate)|flagContinues|flagSameCP, 1, 2),
		"continuation flag on a cut":                     after(byte(OpCut)|flagContinues, 3),
		"continuation flag on a checkpoint":              after(byte(OpCheckpoint) | flagContinues | flagSameCP),
		"continuation flag on a segment end":             after(byte(OpSegmentEnd) | flagContinues),
		"continuation with its inode and offset spelled": after(byte(OpAddRef)|flagContinues|upd, 5, 0, 0),
	}
	for name, body := range bad {
		b := reframe(body)
		for _, version := range []byte{segVersion - 1, segVersion} {
			if _, err := decodeBatches(b, version); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: v%d err = %v, want ErrCorrupt", name, version, err)
			}
		}
	}
	// A continuation is what version 4 adds: in a version-3 segment the same
	// batch is corrupt at the continuing record.
	r := Record{Op: OpAddRef, Block: 1, Inode: 5, Offset: 0, Length: 1, CP: 1}
	s := r
	s.Block, s.Offset = 2, 1
	two := appendBatch(nil, r, s)
	if got, err := decodeBatches(two, segVersion); err != nil || !slices.Equal(got, []Record{r, s}) {
		t.Errorf("continuing batch: v4 decoded %+v (%v)", got, err)
	}
	if got, err := decodeBatches(two, segVersion-1); !errors.Is(err, ErrCorrupt) || !slices.Equal(got, []Record{r}) {
		t.Errorf("continuing batch: v3 decoded %+v (%v), want ErrCorrupt", got, err)
	}
}

// reframe wraps body in a frame with a valid length and checksum, so a test
// reaches the record decoder behind the CRC check.
func reframe(body []byte) []byte {
	b := append(make([]byte, frameHeaderSize), body...)
	sealBatch(b)
	return b
}

// TestBatchReaderAllocatesNothing: decoding is a walk over the input — no
// buffer is sized from a length field, no record is boxed — whatever the
// bytes say.
func TestBatchReaderAllocatesNothing(t *testing.T) {
	good := goldenV4Segment(1)[segHeaderSize:]
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
				for d := readBatch(body, segVersion); d.more(); {
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

// randomStream draws n records of any of the six ops with fields from pool,
// half of the time with the CP a real log's neighbours share, and half of
// the updates continuing the file of their op's previous update, as a file
// written front to back does — from pool offsets and lengths, so that some
// continuations start past a wrap at 2^64.
func randomStream(rng *rand.Rand, pool []uint64, n int) []Record {
	pick := func() uint64 { return pool[rng.Intn(len(pool))] }
	var ends [2]fileEnd
	recs := make([]Record, n)
	for i := range recs {
		cp := pick()
		if rng.Intn(2) == 0 {
			cp = 4
		}
		switch op := Op(1 + rng.Intn(6)); op {
		case OpAddRef, OpRemoveRef:
			r := Record{Op: op, Block: pick(), Inode: pick(), Offset: pick(), Line: pick(), Length: pick(), CP: cp}
			end := &ends[op-OpAddRef]
			if end.set && rng.Intn(2) == 0 {
				r.Inode, r.Offset = end.inode, end.offset
			}
			*end = fileEnd{inode: r.Inode, offset: r.Offset + r.Length, set: true}
			recs[i] = r
		case OpRelocate:
			recs[i] = Record{Op: op, Block: pick(), NewBlock: pick(), CP: cp}
		case OpCheckpoint, OpCut:
			recs[i] = Record{Op: op, CP: cp}
		default:
			recs[i] = Record{Op: OpSegmentEnd}
		}
	}
	return recs
}

// TestBatchRoundtripProperty: any record sequence, split into batches
// anywhere, decodes to itself, and is never longer than version 3 wrote it
// (which still decodes, as version 3, to the same records), so a stream with
// no continuation pays nothing for the flag. No single flipped bit yields a
// different record list: the damaged batch is torn, its predecessors decode
// as before.
func TestBatchRoundtripProperty(t *testing.T) {
	const seed = 20260926
	rng := rand.New(rand.NewSource(seed))
	// The extremes goldenRecords exercises: every varint width and every
	// flag combination comes up.
	var pool []uint64
	for _, g := range goldenRecords() {
		pool = append(pool, g.Block, g.Inode, g.Offset, g.Line, g.Length, g.CP, g.NewBlock)
	}
	saved := 0
	for iter := 0; iter < 200; iter++ {
		recs := randomStream(rng, pool, 1+rng.Intn(40))
		var buf, v3 []byte
		var starts, ends []int // per batch: index of its first record, byte offset one past it
		for at := 0; at < len(recs); {
			n := 1 + rng.Intn(len(recs)-at)
			buf = appendBatch(buf, recs[at:at+n]...)
			v3 = appendV3Batch(v3, recs[at:at+n]...)
			starts = append(starts, at)
			ends = append(ends, len(buf))
			at += n
		}
		got, err := decodeBatches(buf, segVersion)
		if err != nil || !slices.Equal(got, recs) {
			t.Fatalf("seed %d iter %d: decoded %+v (%v), want %+v", seed, iter, got, err, recs)
		}
		if got, err := decodeBatches(v3, segVersion-1); err != nil || !slices.Equal(got, recs) {
			t.Fatalf("seed %d iter %d: the version-3 bytes decoded %+v (%v), want %+v", seed, iter, got, err, recs)
		}
		if len(buf) > len(v3) {
			t.Fatalf("seed %d iter %d: %d bytes, %d in version 3", seed, iter, len(buf), len(v3))
		}
		saved += len(v3) - len(buf)
		for flips := 0; flips < 64; flips++ {
			bit := rng.Intn(len(buf) * 8)
			buf[bit/8] ^= 1 << (bit % 8)
			got, err := decodeBatches(buf, segVersion)
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
	if saved == 0 {
		t.Fatalf("seed %d: no stream saved a byte; the generator does not exercise continuations", seed)
	}
	// A batch of one — what a lone Sync appender writes — has nothing to
	// continue: it is the bytes version 3 wrote.
	for _, r := range randomStream(rng, pool, 200) {
		if a, b := appendBatch(nil, r), appendV3Batch(nil, r); !bytes.Equal(a, b) {
			t.Fatalf("seed %d: %+v alone encodes as %x, in version 3 as %x", seed, r, a, b)
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
