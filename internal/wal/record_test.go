package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/backlogfs/backlog/internal/storage"
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

// appendBatchAs is appendBatch as a format version wrote it. Version 4
// spelled every packed block update as an op byte with flags and a whole
// block; version 3 also forgot where each update ended, so it never found a
// continuation.
func appendBatchAs(dst []byte, version byte, recs ...Record) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderSize)...)
	var st batchState
	for _, r := range recs {
		if version <= 3 {
			st.ends = [2]fileEnd{}
		}
		b := appendRecord(nil, r, &st)
		if version <= 4 {
			b = unpacked(b)
		}
		dst = append(dst, b...)
	}
	sealBatch(dst[start:])
	return dst
}

// unpacked rewrites one record's version-5 encoding as version 4 wrote it.
func unpacked(b []byte) []byte {
	if b[0]&flagPacked == 0 {
		return b
	}
	hi, n := binary.Uvarint(b[1:])
	op := byte(OpAddRef) + b[0]&packedRemove | flagLineZero | flagLengthOne
	if b[0]&packedContinues != 0 {
		op |= flagContinues
	}
	if b[0]&packedSameCP != 0 {
		op |= flagSameCP
	}
	return append(binary.AppendUvarint([]byte{op}, hi<<4|uint64(b[0]>>4)), b[1+n:]...)
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

// TestTypicalUpdateSize pins what the format is for: a block update with
// the usual line, length and a CP shared with its neighbour costs a byte
// that also holds the block's low four bits, the rest of the block, and its
// inode and offset; one that continues its file where the previous update of
// its op left off costs the byte and the rest of the block. On an 18-bit
// block that is a byte less than version 4 spent.
func TestTypicalUpdateSize(t *testing.T) {
	r := Record{Op: OpAddRef, Block: 200000, Inode: 500, Offset: 70, Line: 0, Length: 1, CP: 9}
	var st batchState
	first := appendRecord(nil, r, &st)
	next := appendRecord(nil, r, &st) // the same offset again: no continuation
	r.Block, r.Offset = 200001, 71
	cont := appendRecord(nil, r, &st)
	if len(first) != 7 || len(next) != 6 || len(cont) != 3 {
		t.Fatalf("first record of a batch is %d bytes, a later one %d, a continuing one %d; want 7, 6 and 3",
			len(first), len(next), len(cont))
	}
	for i, b := range [][]byte{first, next, cont} {
		if v4 := unpacked(b); len(v4) != len(b)+1 {
			t.Errorf("record %d: %d bytes, %d in version 4; want one less", i, len(b), len(v4))
		}
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
	// Checksummed bodies no encoder produces are corrupt in every readable
	// version. after(...) follows the AddRef above, so the CP and the
	// AddRef's end are there to take.
	after := func(b ...byte) []byte { return append(append([]byte(nil), body...), b...) }
	const upd = flagLineZero | flagLengthOne | flagSameCP
	bad := map[string][]byte{
		"trailing byte":                                  after(0),
		"missing field":                                  body[:len(body)-1],
		"overlong uvarint":                               append([]byte{byte(OpCheckpoint)}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01),
		"unknown op":                                     {7, 1},
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
		"packed continuation opening a batch":            {flagPacked | packedContinues, 5, 1},
		"packed elided CP opening a batch":               {flagPacked | packedSameCP, 5, 1, 2},
		"packed continuation of the other op's update":   after(flagPacked|packedRemove|packedContinues|packedSameCP, 5),
		"packed block past 64 bits":                      append([]byte{flagPacked | 0xf0}, binary.AppendUvarint(nil, 1<<60)...),
		"packed block missing":                           after(flagPacked | packedContinues | packedSameCP),
	}
	for name, body := range bad {
		b := reframe(body)
		for version := byte(oldestReadable); version <= segVersion; version++ {
			if _, err := decodeBatches(b, version); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: v%d err = %v, want ErrCorrupt", name, version, err)
			}
		}
	}
	// What version 5 adds is corrupt in version 4, at the record that uses
	// it: a packed block update.
	r := Record{Op: OpAddRef, Block: 1, Inode: 5, Offset: 0, Line: 1, Length: 1, CP: 1}
	s := r
	s.Block, s.Offset = 2, 1
	p := s
	p.Line, p.Block, p.Offset = 0, 3, 2
	three := appendBatch(nil, r, s, p)
	if got, err := decodeBatches(three, 5); err != nil || !slices.Equal(got, []Record{r, s, p}) {
		t.Errorf("continuing batch: v5 decoded %+v (%v)", got, err)
	}
	if got, err := decodeBatches(three, 4); !errors.Is(err, ErrCorrupt) || !slices.Equal(got, []Record{r, s}) {
		t.Errorf("continuing batch: v4 decoded %+v (%v), want ErrCorrupt at the packed record", got, err)
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
	good := goldenV5Segment(1)[segHeaderSize:]
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
// anywhere, decodes to itself, and is never longer than version 4 wrote it,
// nor that longer than version 3 did (each still decodes to the same
// records: version 4 as its version, version 3 as version 4, which only
// adds the continuation), so a stream with nothing to pack or continue pays
// nothing for either. No single flipped bit yields a different record list:
// the damaged batch is torn, its predecessors decode as before.
func TestBatchRoundtripProperty(t *testing.T) {
	const seed = 20260926
	rng := rand.New(rand.NewSource(seed))
	// The extremes goldenRecords exercises: every varint width and every
	// flag combination comes up.
	var pool []uint64
	for _, g := range goldenRecords() {
		pool = append(pool, g.Block, g.Inode, g.Offset, g.Line, g.Length, g.CP, g.NewBlock)
	}
	var saved [2]int // bytes version 4 saved on version 3, version 5 on version 4
	for iter := 0; iter < 200; iter++ {
		recs := randomStream(rng, pool, 1+rng.Intn(40))
		var buf, v4, v3 []byte
		var starts, ends []int // per batch: index of its first record, byte offset one past it
		for at := 0; at < len(recs); {
			n := 1 + rng.Intn(len(recs)-at)
			buf = appendBatch(buf, recs[at:at+n]...)
			v4 = appendBatchAs(v4, 4, recs[at:at+n]...)
			v3 = appendBatchAs(v3, 3, recs[at:at+n]...)
			starts = append(starts, at)
			ends = append(ends, len(buf))
			at += n
		}
		for version, b := range map[byte][]byte{segVersion: buf, 4: v4} {
			if got, err := decodeBatches(b, version); err != nil || !slices.Equal(got, recs) {
				t.Fatalf("seed %d iter %d: the version-%d bytes decoded %+v (%v), want %+v", seed, iter, version, got, err, recs)
			}
		}
		if got, err := decodeBatches(v3, 4); err != nil || !slices.Equal(got, recs) {
			t.Fatalf("seed %d iter %d: the version-3 bytes decoded %+v (%v), want %+v", seed, iter, got, err, recs)
		}
		if len(buf) > len(v4) || len(v4) > len(v3) {
			t.Fatalf("seed %d iter %d: %d bytes, %d in version 4, %d in version 3", seed, iter, len(buf), len(v4), len(v3))
		}
		saved[0] += len(v3) - len(v4)
		saved[1] += len(v4) - len(buf)
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
	if saved[0] == 0 || saved[1] == 0 {
		t.Fatalf("seed %d: continuations saved %d bytes and packing %d; the generator does not exercise both", seed, saved[0], saved[1])
	}
	// A batch of one — what a lone Sync appender writes — has nothing to
	// continue: its version-4 bytes are the bytes version 3 wrote.
	for _, r := range randomStream(rng, pool, 200) {
		if a, b := appendBatchAs(nil, 4, r), appendBatchAs(nil, 3, r); !bytes.Equal(a, b) {
			t.Fatalf("seed %d: %+v alone encodes as %x in version 4, as %x in version 3", seed, r, a, b)
		}
	}
}

// TestPackedNeverLonger: over blocks of every width from 0 to 64 bits and
// every variant of the fields around them — Line 0 or not, Length 1 or
// not, the CP of the record before or not, a continuation or not, either
// op — a record's version-5 bytes are never longer than its version-4
// bytes, and each decodes, as its version, back to the record.
func TestPackedNeverLonger(t *testing.T) {
	for width := 0; width <= 64; width++ {
		var blocks []uint64
		if width == 0 {
			blocks = []uint64{0}
		} else {
			blocks = []uint64{1 << (width - 1), math.MaxUint64 >> (64 - width)}
		}
		for _, block := range blocks {
			for _, op := range []Op{OpAddRef, OpRemoveRef} {
				for _, line := range []uint64{0, 1} {
					for _, length := range []uint64{0, 1, 2} {
						for _, sameCP := range []bool{false, true} {
							for _, continues := range []bool{false, true} {
								prev := Record{Op: op, Block: 9, Inode: 40, Offset: 100, Length: 3, CP: 6}
								r := Record{Op: op, Block: block, Inode: 41, Offset: 7, Line: line, Length: length, CP: 7}
								if sameCP {
									r.CP = prev.CP
								}
								if continues {
									r.Inode, r.Offset = prev.Inode, prev.Offset+prev.Length
								}
								var st batchState
								appendRecord(nil, prev, &st)
								v5 := appendRecord(nil, r, &st)
								v4 := unpacked(v5)
								what := fmt.Sprintf("%+v after %+v", r, prev)
								if len(v5) > len(v4) {
									t.Fatalf("%s: %d bytes, %d in version 4", what, len(v5), len(v4))
								}
								if packed := v5[0]&flagPacked != 0; packed != (line == 0 && length == 1) {
									t.Fatalf("%s: packed = %v", what, packed)
								}
								for version, b := range map[byte][]byte{5: v5, 4: v4} {
									got, err := decodeBatches(reframe(append(unpacked(appendRecord(nil, prev, &batchState{})), b...)), version)
									if err != nil || !slices.Equal(got, []Record{prev, r}) {
										t.Fatalf("%s: version %d decoded %+v (%v)", what, version, got, err)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestLogBytesPerUpdate is the byte gate of the log format on a stream
// shaped like bench/'s mixed workload: 64-block files written front to back
// on line 0, 40 % of updates removing a random live reference, blocks drawn
// uniformly over 2^18, one CP. In a Buffered log's 64 KiB batches an update
// costs at most 4.3 bytes (version 4: 5.04), and in batches of two — what
// the group commits of two Sync clients, each taking the blocks of one
// parity, hold — at most 10.9 (version 4: 11.18).
func TestLogBytesPerUpdate(t *testing.T) {
	const n = 64000
	rng := rand.New(rand.NewSource(1))
	recs := make([]Record, n)
	var live []Record
	seq := uint64(0)
	for i := range recs {
		if len(live) > 0 && rng.Intn(10) < 4 {
			j := rng.Intn(len(live))
			r := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			r.Op = OpRemoveRef
			recs[i] = r
			continue
		}
		r := Record{Op: OpAddRef, Block: uint64(rng.Intn(1 << 18)), Inode: 1 + seq>>6, Offset: seq & 63, Length: 1, CP: 3}
		seq++
		live = append(live, r)
		recs[i] = r
	}

	vfs := storage.NewMemFS()
	l, _ := mustOpen(t, vfs, Buffered)
	appendAll(t, l, recs...)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	buffered := float64(l.Stats().Bytes) / n
	// A version-4 log's batches, cut where the log cuts them: at the first
	// record that fills the buffer.
	v4Buffered, batch := 0, 0
	var st batchState
	for _, r := range recs {
		if batch == 0 {
			batch, st = frameHeaderSize, batchState{}
		}
		batch += len(unpacked(appendRecord(nil, r, &st)))
		if batch >= bufferedFlushBytes {
			v4Buffered, batch = v4Buffered+batch, 0
		}
	}
	v4Buffered += batch
	// Two Sync clients split the stream by block, as bench/ does, and each
	// group commit holds the next update of each.
	var client [2][]Record
	for _, r := range recs {
		client[r.Block%2] = append(client[r.Block%2], r)
	}
	var pairs, v4Pairs []byte
	for i := range min(len(client[0]), len(client[1])) {
		pair := []Record{client[0][i], client[1][i]}
		pairs = appendBatch(pairs, pair...)
		v4Pairs = appendBatchAs(v4Pairs, 4, pair...)
	}
	paired := float64(2 * min(len(client[0]), len(client[1])))
	t.Logf("bytes per update: Buffered %.2f (version 4: %.2f), batches of two %.2f (version 4: %.2f)",
		buffered, float64(v4Buffered)/n, float64(len(pairs))/paired, float64(len(v4Pairs))/paired)
	if buffered > 4.3 {
		t.Errorf("a Buffered log costs %.2f bytes per update, want at most 4.3", buffered)
	}
	if perPair := float64(len(pairs)) / paired; perPair > 10.9 {
		t.Errorf("batches of two cost %.2f bytes per update, want at most 10.9", perPair)
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
