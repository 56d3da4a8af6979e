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
// version from its first frame on, as readSegment does but without
// interpreting marks: every record of every batch, in order. The error is
// errTorn for an unreadable frame and ErrCorrupt for a checksummed batch
// that does not decode.
func decodeBatches(b []byte, version byte) ([]Record, error) {
	var recs []Record
	_, err := walkFrames(b, version, func(_ int, r Record) bool {
		recs = append(recs, r)
		return false
	})
	if errors.Is(err, errUndecodable) {
		err = ErrCorrupt
	}
	return recs, err
}

// appendBatch appends recs to dst as a segment's first frame, or any frame
// that starts from an empty elision state, in the current version.
func appendBatch(dst []byte, recs ...Record) []byte {
	return appendFrame(dst, segVersion, &batchState{}, recs...)
}

// appendBatchAs is a frame from an empty elision state as a format version
// wrote it. Versions 3 to 5 share version 5's 8-byte frame header. Version 4
// spelled every packed block update as an op byte with flags and a whole
// block; version 3 also forgot where each update ended, so it never found a
// continuation.
func appendBatchAs(dst []byte, version byte, recs ...Record) []byte {
	if version >= 5 {
		return appendFrame(dst, version, &batchState{}, recs...)
	}
	start := len(dst)
	dst = append(dst, make([]byte, frameReserve)...)
	var st batchState
	for _, r := range recs {
		if version <= 3 {
			st.ends = [2]fileEnd{}
		}
		dst = append(dst, unpacked(appendRecord(nil, r, &st))...)
	}
	frame := sealFrame(dst[start:], 5)
	return append(dst[:start], frame...)
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
	var each, carried, v5 []byte
	var st batchState
	for _, r := range recs {
		each = appendBatch(each, r)
		carried = appendFrame(carried, segVersion, &st, r)
		v5 = appendBatchAs(v5, 5, r)
	}
	for _, c := range []struct {
		name    string
		version byte
		buf     []byte
	}{
		{"one batch", segVersion, appendBatch(nil, recs...)},
		{"a batch per record", segVersion, each},
		{"a batch per record, the state carried", segVersion, carried},
		{"a version-5 batch per record", 5, v5},
	} {
		got, err := decodeBatches(c.buf, c.version)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, recs) {
			t.Fatalf("%s: got %+v, want %+v", c.name, got, recs)
		}
	}
	if len(carried) >= len(each) || len(each) >= len(v5) {
		t.Fatalf("a frame per record: %d bytes with the state carried, %d without, %d in version 5", len(carried), len(each), len(v5))
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

// TestDecodeRejectsDamage: in both readable versions, the states a write
// cut short leaves are torn frames — a zero-filled tail among them, since a
// length of 0 is refused — and a checksummed body no encoder produces is
// corrupt. A frame that takes a field from the one before it decodes only
// in version 6, behind that frame: under version 5, or as a segment's first
// frame, it is corrupt.
func TestDecodeRejectsDamage(t *testing.T) {
	for _, version := range []byte{5, 6} {
		frame := appendBatchAs(nil, version, Record{Op: OpAddRef, Block: 9, Line: 1, CP: 1})
		h := frameHeaderLen(version, 1)
		body := frame[h:]
		torn := map[string][]byte{
			"empty":             nil,
			"short header":      frame[:h-1],
			"truncated body":    frame[:len(frame)-1],
			"zero-filled tail":  make([]byte, 4096),
			"zero-filled frame": make([]byte, len(frame)),
			"flipped bit": func() []byte {
				b := append([]byte(nil), frame...)
				b[h+3] ^= 0x40
				return b
			}(),
			"absurd length": func() []byte {
				b := append([]byte(nil), frame...)
				if version < 6 {
					b[0], b[1] = 0xff, 0xff
					return b
				}
				return append(binary.AppendUvarint(nil, 1<<40), b[1:]...)
			}(),
			"op rewritten under the old checksum": func() []byte {
				b := appendBatchAs(nil, version, Record{Op: OpCheckpoint, CP: 3})
				b[len(b)-2] = 99
				return b
			}(),
		}
		if version == 6 {
			// The same length, one byte longer than it need be.
			torn["length not in its shortest form"] = append([]byte{frame[0] | 0x80, 0}, frame[1:]...)
		}
		for name, b := range torn {
			if _, _, err := splitFrame(b, version); !errors.Is(err, errTorn) {
				t.Errorf("v%d %s: splitFrame err = %v, want errTorn", version, name, err)
			}
		}
		// Checksummed bodies no encoder produces are corrupt. after(...)
		// follows the AddRef above, so the CP and the AddRef's end are there
		// to take.
		after := func(b ...byte) []byte { return append(append([]byte(nil), body...), b...) }
		const upd = flagLineZero | flagLengthOne | flagSameCP
		bad := map[string][]byte{
			"trailing byte":                                  after(0),
			"missing field":                                  body[:len(body)-1],
			"overlong uvarint":                               append([]byte{byte(OpCheckpoint)}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01),
			"unknown op":                                     {7, 1},
			"op zero":                                        {0},
			"elided CP opening a segment":                    {byte(OpCut) | flagSameCP},
			"line flag on a relocate":                        {byte(OpRelocate) | flagLineZero, 1, 2, 3},
			"flag on a segment end":                          {byte(OpSegmentEnd) | flagSameCP},
			"continuation opening a segment":                 {byte(OpAddRef) | flagContinues | flagLineZero | flagLengthOne, 5, 1},
			"continuation of the other op's update":          after(byte(OpRemoveRef)|flagContinues|upd, 5),
			"continuation flag on a relocate":                after(byte(OpRelocate)|flagContinues|flagSameCP, 1, 2),
			"continuation flag on a cut":                     after(byte(OpCut)|flagContinues, 3),
			"continuation flag on a checkpoint":              after(byte(OpCheckpoint) | flagContinues | flagSameCP),
			"continuation flag on a segment end":             after(byte(OpSegmentEnd) | flagContinues),
			"continuation with its inode and offset spelled": after(byte(OpAddRef)|flagContinues|upd, 5, 0, 0),
			"packed continuation opening a segment":          {flagPacked | packedContinues, 5, 1},
			"packed elided CP opening a segment":             {flagPacked | packedSameCP, 5, 1, 2},
			"packed continuation of the other op's update":   after(flagPacked|packedRemove|packedContinues|packedSameCP, 5),
			"packed block past 64 bits":                      append([]byte{flagPacked | 0xf0}, binary.AppendUvarint(nil, 1<<60)...),
			"packed block missing":                           after(flagPacked | packedContinues | packedSameCP),
		}
		for name, body := range bad {
			if _, err := decodeBatches(reframeAs(version, body), version); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: v%d err = %v, want ErrCorrupt", name, version, err)
			}
		}
	}
	// A frame whose records continue the frame before and share its CP.
	r := Record{Op: OpAddRef, Block: 1, Inode: 5, Offset: 0, Line: 1, Length: 1, CP: 1}
	p := r
	p.Line, p.Block, p.Offset = 0, 3, 1
	s := r
	s.Op, s.Block = OpRemoveRef, 2
	q := s
	q.Line, q.Offset = 0, 1
	var st batchState
	first := appendFrame(nil, segVersion, &st, r, s)
	second := appendFrame(nil, segVersion, &st, p, q)
	if got, err := decodeBatches(append(first, second...), segVersion); err != nil || !slices.Equal(got, []Record{r, s, p, q}) {
		t.Errorf("frames that carry the state: decoded %+v (%v)", got, err)
	}
	if got, err := decodeBatches(second, segVersion); !errors.Is(err, ErrCorrupt) || len(got) != 0 {
		t.Errorf("a segment opening with the second frame: decoded %+v (%v), want ErrCorrupt", got, err)
	}
	_, n, _ := splitFrame(first, segVersion)
	secondV5 := reframeAs(5, second[frameHeaderLen(segVersion, 1):])
	if n != len(first) || len(secondV5) != len(second)+3 {
		t.Fatalf("reframing: %d of %d bytes, %d of %d", n, len(first), len(secondV5), len(second))
	}
	if got, err := decodeBatches(append(appendBatchAs(nil, 5, r, s), secondV5...), 5); !errors.Is(err, ErrCorrupt) || !slices.Equal(got, []Record{r, s}) {
		t.Errorf("the second frame's body in version 5: decoded %+v (%v), want ErrCorrupt after the first frame", got, err)
	}
}

// reframeAs wraps body in a frame of a format version with a valid length
// and checksum, so a test reaches the record decoder behind the CRC check.
func reframeAs(version byte, body []byte) []byte {
	return sealFrame(append(make([]byte, frameReserve), body...), version)
}

// reframe is reframeAs in the current version.
func reframe(body []byte) []byte { return reframeAs(segVersion, body) }

// TestBatchReaderAllocatesNothing: decoding is a walk over the input — no
// buffer is sized from a length field, no record is boxed — whatever the
// bytes say.
func TestBatchReaderAllocatesNothing(t *testing.T) {
	good := goldenV6Segment(1)[segHeaderSize:]
	huge := binary.AppendUvarint(nil, 1<<31)
	garbage := reframe(bytes.Repeat([]byte{0xff}, 4096))
	var sink Record
	for name, b := range map[string][]byte{"golden": good, "absurd length": huge, "garbage body": garbage} {
		allocs := testing.AllocsPerRun(10, func() {
			walkFrames(b, segVersion, func(_ int, r Record) bool {
				sink = r
				return false
			})
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

// TestBatchRoundtripProperty: any record sequence, split into frames
// anywhere, decodes to itself, and is never longer than version 5 wrote it,
// that never longer than version 4, nor that than version 3 (each still
// decodes to the same records: version 5 as its version, versions 4 and 3
// under version 5's framing, which they share and whose decoder only adds
// to theirs), so a stream with nothing to carry, pack or continue pays
// nothing for any of it. No single flipped bit yields a different record
// list: the damaged frame is torn, its predecessors decode as before.
func TestBatchRoundtripProperty(t *testing.T) {
	const seed = 20260926
	rng := rand.New(rand.NewSource(seed))
	// The extremes goldenRecords exercises: every varint width and every
	// flag combination comes up.
	var pool []uint64
	for _, g := range goldenRecords() {
		pool = append(pool, g.Block, g.Inode, g.Offset, g.Line, g.Length, g.CP, g.NewBlock)
	}
	var saved [3]int // bytes version 4 saved on version 3, 5 on 4, 6 on 5
	for iter := 0; iter < 200; iter++ {
		recs := randomStream(rng, pool, 1+rng.Intn(40))
		var buf, v5, v4, v3 []byte
		var st batchState
		var starts, ends []int // per frame: index of its first record, byte offset one past it
		for at := 0; at < len(recs); {
			n := 1 + rng.Intn(len(recs)-at)
			buf = appendFrame(buf, segVersion, &st, recs[at:at+n]...)
			v5 = appendBatchAs(v5, 5, recs[at:at+n]...)
			v4 = appendBatchAs(v4, 4, recs[at:at+n]...)
			v3 = appendBatchAs(v3, 3, recs[at:at+n]...)
			starts = append(starts, at)
			ends = append(ends, len(buf))
			at += n
		}
		for _, c := range []struct {
			version, as byte
			b           []byte
		}{{segVersion, segVersion, buf}, {5, 5, v5}, {4, 5, v4}, {3, 5, v3}} {
			if got, err := decodeBatches(c.b, c.as); err != nil || !slices.Equal(got, recs) {
				t.Fatalf("seed %d iter %d: the version-%d bytes decoded %+v (%v), want %+v", seed, iter, c.version, got, err, recs)
			}
		}
		if len(buf) > len(v5) || len(v5) > len(v4) || len(v4) > len(v3) {
			t.Fatalf("seed %d iter %d: %d bytes, %d in version 5, %d in version 4, %d in version 3", seed, iter, len(buf), len(v5), len(v4), len(v3))
		}
		saved[0] += len(v3) - len(v4)
		saved[1] += len(v4) - len(v5)
		saved[2] += len(v5) - len(buf)
		for flips := 0; flips < 64; flips++ {
			bit := rng.Intn(len(buf) * 8)
			buf[bit/8] ^= 1 << (bit % 8)
			got, err := decodeBatches(buf, segVersion)
			buf[bit/8] ^= 1 << (bit % 8)
			frame := 0
			for ends[frame] <= bit/8 {
				frame++
			}
			if !errors.Is(err, errTorn) || !slices.Equal(got, recs[:starts[frame]]) {
				t.Fatalf("seed %d iter %d: flipping bit %d (frame %d) decoded %d records (%v), want the %d before the frame and errTorn",
					seed, iter, bit, frame, len(got), err, starts[frame])
			}
		}
	}
	if saved[0] == 0 || saved[1] == 0 || saved[2] == 0 {
		t.Fatalf("seed %d: continuations saved %d bytes, packing %d and the carried state and short header %d; the generator does not exercise each", seed, saved[0], saved[1], saved[2])
	}
	// A batch of one from an empty state has nothing to continue: its
	// version-4 bytes are the bytes version 3 wrote.
	for _, r := range randomStream(rng, pool, 200) {
		if a, b := appendBatchAs(nil, 4, r), appendBatchAs(nil, 3, r); !bytes.Equal(a, b) {
			t.Fatalf("seed %d: %+v alone encodes as %x in version 4, as %x in version 3", seed, r, a, b)
		}
	}
}

// TestPackedNeverLonger: over blocks of every width from 0 to 64 bits and
// every variant of the fields around them — Line 0 or not, Length 1 or
// not, the CP of the record before or not, a continuation or not, either
// op — a record's packed bytes are never longer than its version-4 bytes,
// and each decodes back to the record.
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
								for form, b := range map[string][]byte{"packed": v5, "version-4": v4} {
									got, err := decodeBatches(reframe(append(unpacked(appendRecord(nil, prev, &batchState{})), b...)), segVersion)
									if err != nil || !slices.Equal(got, []Record{prev, r}) {
										t.Fatalf("%s: the %s bytes decoded %+v (%v)", what, form, got, err)
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
// costs at most 4.3 bytes (4.09, as in version 5: the header is noise
// there), and in batches of two — what the group commits of two Sync
// clients, each taking the blocks of one parity, hold — at most 8.5 (7.95;
// version 5: 10.24), the 5-byte header and the state carried from the batch
// before both counting.
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
	// A version-5 log's batches, cut where the log cuts them: at the first
	// record that fills the buffer.
	v5Buffered, batch := 0, 0
	var st batchState
	for _, r := range recs {
		if batch == 0 {
			batch, st = frameHeaderLen(5, 0), batchState{}
		}
		batch += len(appendRecord(nil, r, &st))
		if batch >= bufferedFlushBytes {
			v5Buffered, batch = v5Buffered+batch, 0
		}
	}
	v5Buffered += batch
	// Two Sync clients split the stream by block, as bench/ does, and each
	// group commit holds the next update of each.
	var client [2][]Record
	for _, r := range recs {
		client[r.Block%2] = append(client[r.Block%2], r)
	}
	var pairs, v5Pairs []byte
	st = batchState{}
	for i := range min(len(client[0]), len(client[1])) {
		pair := []Record{client[0][i], client[1][i]}
		pairs = appendFrame(pairs, segVersion, &st, pair...)
		v5Pairs = appendBatchAs(v5Pairs, 5, pair...)
	}
	paired := float64(2 * min(len(client[0]), len(client[1])))
	t.Logf("bytes per update: Buffered %.2f (version 5: %.2f), batches of two %.2f (version 5: %.2f)",
		buffered, float64(v5Buffered)/n, float64(len(pairs))/paired, float64(len(v5Pairs))/paired)
	if buffered > 4.3 {
		t.Errorf("a Buffered log costs %.2f bytes per update, want at most 4.3", buffered)
	}
	if perPair := float64(len(pairs)) / paired; perPair > 8.5 {
		t.Errorf("batches of two cost %.2f bytes per update, want at most 8.5", perPair)
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
