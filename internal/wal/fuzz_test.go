package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/backlogfs/backlog/internal/storage"
)

// FuzzDecodeFrame: whatever the bytes, reading a frame stays inside the
// input. It either reports a torn frame or walks a checksummed batch to its
// end or to its first undecodable record, never past it, in every readable
// version; none panics, and none sizes anything from a length field
// (TestBatchReaderAllocatesNothing pins that decoding allocates nothing at
// all). What version 4 decodes, version 5 decodes to the same records,
// since it only adds to version 4. A packed block update is what version 5
// adds: a batch whose version-5 walk reaches one is ErrCorrupt in version
// 4, never a tear. Under a version-3 header, which the version-3 goldens'
// frames were written under, the same frame is refused by name: recovery
// reads no frame of a retired version. What version 5 decodes
// survives a re-encode that is no longer than the frame it came from: the
// encoder elides whatever the decoder could have taken from a record's
// predecessors, and packs what it can.
func FuzzDecodeFrame(f *testing.F) {
	for _, prefix := range []string{"v3-", "v4-", "v5-"} {
		for _, index := range []uint64{1, 2} {
			seg := goldenFile(f, prefix, index)
			f.Add(seg[segHeaderSize:])
			f.Add(seg[segHeaderSize+3:])
		}
	}
	f.Add(reframe([]byte{byte(OpCheckpoint), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}))
	f.Add(reframe([]byte{byte(OpCut) | flagSameCP}))
	f.Add(binary.BigEndian.AppendUint32(nil, 1<<31))
	f.Add(reframe([]byte{byte(OpRemoveRef) | flagContinues | flagLineZero | flagLengthOne, 1, 1}))
	// Every packed kind in one batch, each behind a record of the other
	// form, so that packed and version-4 records alternate.
	var mixed []Record
	for kind := range 8 {
		op := OpAddRef + Op(kind&packedRemove)
		cp := uint64(3 + kind/packedSameCP%2)
		mixed = append(mixed,
			Record{Op: op, Block: uint64(kind) << 13, Inode: 9, Offset: uint64(kind) * 4, Line: 2, Length: 1, CP: 4},
			Record{Op: op, Block: uint64(kind) << 30, Inode: 9, Offset: uint64(kind)*4 + 2 - uint64(kind/packedContinues%2), Length: 1, CP: cp})
	}
	f.Add(appendBatch(nil, mixed...))
	f.Add(reframe([]byte{flagPacked | packedContinues, 1, 2}))
	f.Add(reframe(append([]byte{flagPacked | 0xf0}, binary.AppendUvarint(nil, 1<<60)...)))
	f.Fuzz(func(t *testing.T, b []byte) {
		body, n, err := splitFrame(b)
		if err != nil {
			if !errors.Is(err, errTorn) || n != 0 || body != nil {
				t.Fatalf("err = %v, n = %d, %d body bytes", err, n, len(body))
			}
			return
		}
		if n <= frameHeaderSize || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if int(binary.BigEndian.Uint32(b)) != n-frameHeaderSize {
			t.Fatalf("consumed %d bytes, length field says %d", n, binary.BigEndian.Uint32(b))
		}
		if crc32.Checksum(b[frameHeaderSize:n], crcTable) != binary.BigEndian.Uint32(b[4:]) {
			t.Fatalf("decoded a frame whose checksum fails")
		}
		var recs [segVersion + 1][]Record
		var errs [segVersion + 1]error
		for v := byte(oldestReadable); v <= segVersion; v++ {
			recs[v], errs[v] = decodeBatches(b[:n], v)
			if len(recs[v]) > len(body) {
				t.Fatalf("v%d: %d records out of %d bytes", v, len(recs[v]), len(body))
			}
			for _, r := range recs[v] {
				if r.Op < OpAddRef || r.Op > OpCut {
					t.Fatalf("v%d decoded unknown op %d", v, r.Op)
				}
			}
			if errs[v] != nil && !errors.Is(errs[v], ErrCorrupt) {
				t.Fatalf("v%d: checksummed batch failed with %v", v, errs[v])
			}
			if v > oldestReadable && errs[v-1] == nil && (errs[v] != nil || !slices.Equal(recs[v-1], recs[v])) {
				t.Fatalf("v%d decoded %+v, v%d %+v (%v)", v-1, recs[v-1], v, recs[v], errs[v])
			}
		}
		if reachesPacked(body) && !errors.Is(errs[4], ErrCorrupt) {
			t.Fatalf("a packed block update read as v4: %+v (%v), want ErrCorrupt", recs[4], errs[4])
		}
		retired := storage.NewMemFS()
		plantSegment(t, retired, 1, append(withVersion(encodeSegHeader(1), 3), b[:n]...))
		if _, err := Recover(retired); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "format version 3") {
			t.Fatalf("the frame under a version-3 header: %v, want the version refused by name", err)
		}
		if errs[segVersion] != nil {
			return
		}
		back := appendBatch(nil, recs[segVersion]...)
		if got, err := decodeBatches(back, segVersion); err != nil || !slices.Equal(got, recs[segVersion]) {
			t.Fatalf("re-encoding %+v decodes to %+v (%v)", recs[segVersion], got, err)
		}
		if len(back) > n {
			t.Fatalf("re-encoding %d records took %d bytes, the frame %d", len(recs[segVersion]), len(back), n)
		}
	})
}

// reachesPacked reports whether a version-5 walk over body reaches a packed
// byte, whether or not the record behind it decodes.
func reachesPacked(body []byte) bool {
	for d := readBatch(body, segVersion); d.more(); {
		if d.u.b[0]&flagPacked != 0 {
			return true
		}
		if _, ok := d.next(); !ok {
			return false
		}
	}
	return false
}

// FuzzRecover: whatever two consecutive segment files hold, recovery ends
// in a clean (possibly empty) tail or ErrCorrupt — never a panic, never
// another error — and a log that recovers also opens, seals its tear, and
// recovers to the same records again.
func FuzzRecover(f *testing.F) {
	// testdata/fuzz/FuzzRecover holds whole tails: the version-2 golden pair,
	// its version-3 rewrite, one of each (all refused now), and a regression
	// input. The seeds here add version 4 with its continuations and version
	// 5 with its packed block updates: the golden pairs, an older tail
	// continued by a torn newer segment, and version-5 bytes under a
	// version-4 header.
	f.Add(goldenFile(f, "v3-", 1)[:40], goldenFile(f, "v3-", 2))
	f.Add(goldenFile(f, "v2-", 2)[:7], []byte{})
	f.Add(goldenFile(f, "v4-", 1), goldenFile(f, "v4-", 2))
	f.Add(goldenFile(f, "v3-", 1), goldenFile(f, "v4-", 1)[:60])
	f.Add(goldenFile(f, "v5-", 1), goldenFile(f, "v5-", 2))
	f.Add(goldenFile(f, "v4-", 1), goldenFile(f, "v5-", 1)[:70])
	f.Add(goldenFile(f, "v3-", 2), withVersion(goldenFile(f, "v5-", 1), 4))
	f.Fuzz(func(t *testing.T, seg1, seg2 []byte) {
		vfs := storage.NewMemFS()
		plantSegment(t, vfs, 1, seg1)
		plantSegment(t, vfs, 2, seg2)
		rec, err := Recover(vfs)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("recovery failed with an untyped error: %v", err)
			}
			return
		}
		l, rec2, err := Open(vfs, Options{Durability: Buffered})
		if err != nil {
			t.Fatalf("recoverable log does not open: %v", err)
		}
		if err := l.Append(addRec(1)); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		rec3, err := Recover(vfs)
		if err != nil {
			t.Fatalf("recovery after a sealed reopen: %v", err)
		}
		want := append(append([]Record(nil), rec.Records...), addRec(1))
		if !reflect.DeepEqual(rec2.Records, rec.Records) || !reflect.DeepEqual(rec3.Records, want) {
			t.Fatalf("records changed across reopen: %d, then %d, then %d", len(rec.Records), len(rec2.Records), len(rec3.Records))
		}
	})
}
