package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/backlogfs/backlog/internal/storage"
)

// rec48 builds a 48-byte six-column record shaped like the From table's:
// ascending block numbers with small, correlated trailing columns.
func rec48(i uint64) []byte {
	r := make([]byte, 48)
	be := binary.BigEndian
	be.PutUint64(r[0:], i/4)        // block: ~4 refs per block
	be.PutUint64(r[8:], 100+i%512)  // inode
	be.PutUint64(r[16:], (i%64)*8)  // offset
	be.PutUint64(r[24:], i%16)      // line
	be.PutUint64(r[32:], 1)         // length
	be.PutUint64(r[40:], 7000+i%32) // cp
	return r
}

func sortedRecords48(n int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = rec48(uint64(i))
	}
	sort.Slice(recs, func(i, j int) bool { return bytes.Compare(recs[i], recs[j]) < 0 })
	// Drop the (rare) duplicates the modular columns could produce.
	out := recs[:1]
	for _, r := range recs[1:] {
		if !bytes.Equal(r, out[len(out)-1]) {
			out = append(out, r)
		}
	}
	return out
}

func buildRunFormat(t testing.TB, fs storage.VFS, name string, recSize int, format Format, recs [][]byte) storage.File {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriterFormat(f, recSize, format)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(nil); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDeltaRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 100, 5000, 50000} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			fs := storage.NewMemFS()
			recs := sortedRecords(n, 3)
			f := buildRunFormat(t, fs, "run", 8, FormatDelta, recs)
			r, err := Open(f, NewCacheBytes(64*storage.PageSize))
			if err != nil {
				t.Fatal(err)
			}
			if r.Format() != FormatDelta {
				t.Fatalf("Format = %v, want delta", r.Format())
			}
			if r.RecordCount() != uint64(n) {
				t.Fatalf("RecordCount = %d, want %d", r.RecordCount(), n)
			}
			if size, _ := f.Size(); size != shortHeaderLen+int64(r.h.RootPage-1)*storage.PageSize+int64(r.h.RootLen) || r.SizeBytes() != size {
				t.Fatalf("a %d-byte file for %d pages and a root of %d bytes", size, r.h.RootPage, r.h.RootLen)
			}
			it, err := r.First()
			if err != nil {
				t.Fatal(err)
			}
			got := iterAll(t, it)
			if len(got) != n {
				t.Fatalf("iterated %d records, want %d", len(got), n)
			}
			for i := range recs {
				if !bytes.Equal(got[i], recs[i]) {
					t.Fatalf("record %d mismatch", i)
				}
			}
		})
	}
}

// TestDeltaWideRoundTrip: six-column records, the From table's width,
// round-trip through a delta run of many pages.
func TestDeltaWideRoundTrip(t *testing.T) {
	fs := storage.NewMemFS()
	recs := sortedRecords48(20000)
	f := buildRunFormat(t, fs, "run", 48, FormatDelta, recs)
	r, err := Open(f, NewCacheBytes(256*storage.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	it, err := r.First()
	if err != nil {
		t.Fatal(err)
	}
	got := iterAll(t, it)
	if len(got) != len(recs) {
		t.Fatalf("iterated %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestDeltaSeekGEExhaustive(t *testing.T) {
	fs := storage.NewMemFS()
	var keys []uint64
	rng := rand.New(rand.NewSource(7))
	seen := map[uint64]bool{}
	for len(keys) < 20000 {
		k := uint64(rng.Intn(100000))
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	recs := make([][]byte, len(keys))
	for i, k := range keys {
		recs[i] = rec8(k)
	}
	f := buildRunFormat(t, fs, "run", 8, FormatDelta, recs)
	r, err := Open(f, NewCacheBytes(1024*storage.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	for probe := uint64(0); probe < 100010; probe++ {
		it, err := r.SeekGE(rec8(probe))
		if err != nil {
			t.Fatal(err)
		}
		rec, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		idx := sort.Search(len(keys), func(i int) bool { return keys[i] >= probe })
		if idx == len(keys) {
			if ok {
				t.Fatalf("probe %d: got %d, want none", probe, binary.BigEndian.Uint64(rec))
			}
			continue
		}
		if !ok || binary.BigEndian.Uint64(rec) != keys[idx] {
			t.Fatalf("probe %d: got ok=%v rec=%v, want %d", probe, ok, rec, keys[idx])
		}
	}
}

func TestDeltaSmallerThanRaw(t *testing.T) {
	fs := storage.NewMemFS()
	recs := sortedRecords48(50000)
	fRaw := buildRunFormat(t, fs, "raw", 48, FormatRaw, recs)
	fDelta := buildRunFormat(t, fs, "delta", 48, FormatDelta, recs)
	rRaw, err := Open(fRaw, nil)
	if err != nil {
		t.Fatal(err)
	}
	rDelta, err := Open(fDelta, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rDelta.SizeBytes()*3 > rRaw.SizeBytes() {
		t.Fatalf("delta run %d bytes, raw %d bytes: want >= 3x smaller",
			rDelta.SizeBytes(), rRaw.SizeBytes())
	}
}

func TestDeltaCorruptionDetected(t *testing.T) {
	// A flipped byte inside a compressed leaf page must fail the CRC.
	fs := storage.NewMemFS()
	recs := sortedRecords48(50000)
	f := buildRunFormat(t, fs, "run", 48, FormatDelta, recs)
	var b [1]byte
	if _, err := f.ReadAt(b[:], 2*storage.PageSize+100); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], 2*storage.PageSize+100); err != nil {
		t.Fatal(err)
	}
	r, err := Open(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	it, err := r.First()
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := it.Next()
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
			return
		}
		if !ok {
			t.Fatal("iterated over corrupt page without error")
		}
	}
}

func TestDeltaForgedCountDetected(t *testing.T) {
	// Inflate a leaf's record count and recompute the CRC, so the checksum
	// passes and only the decoder can notice: the page's zero padding would
	// decode into duplicates of the last record. The decoder must surface
	// ErrCorrupt, never silently wrong records.
	fs := storage.NewMemFS()
	recs := sortedRecords48(100) // single partial leaf page
	built, err := Open(buildRunFormat(t, fs, "run", 48, FormatDelta, recs), nil)
	if err != nil {
		t.Fatal(err)
	}
	payload, count, err := built.readPageRaw(new([storage.PageSize]byte), 1)
	if err != nil {
		t.Fatal(err)
	}
	f := forgeLeaf(t, 48, FormatDelta, payload, uint16(count+5))

	r, err := Open(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.First(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged count: got %v, want ErrCorrupt", err)
	}
}

func TestDeltaDecodedPageCached(t *testing.T) {
	// A warm point query on a delta run must neither hit storage nor
	// repeat the validating pass: the cache holds the verified payload
	// with its parsed header.
	fs := storage.NewMemFS()
	recs := sortedRecords48(50000)
	f := buildRunFormat(t, fs, "run", 48, FormatDelta, recs)
	cache := NewCacheBytes(10000 * storage.PageSize)
	r, err := Open(f, cache)
	if err != nil {
		t.Fatal(err)
	}
	var decodes int
	r.SetDecodeObserver(func(time.Duration) { decodes++ })
	probe := recs[25000]
	if _, err := r.SeekGE(probe); err != nil {
		t.Fatal(err)
	}
	if decodes == 0 {
		t.Fatal("cold seek decoded no pages")
	}
	coldDecodes := decodes
	before := fs.Stats()
	if _, err := r.SeekGE(probe); err != nil {
		t.Fatal(err)
	}
	if d := fs.Stats().Sub(before); d.PageReads != 0 {
		t.Fatalf("warm seek read %d pages, want 0", d.PageReads)
	}
	if decodes != coldDecodes {
		t.Fatalf("warm seek re-decoded (%d -> %d decodes)", coldDecodes, decodes)
	}
	hits, _ := cache.Stats()
	if hits == 0 {
		t.Fatal("cache recorded no hits")
	}
}

func TestDeltaRejectsBadRecordSize(t *testing.T) {
	fs := storage.NewMemFS()
	f, _ := fs.Create("run")
	for _, c := range []struct {
		recSize int
		format  Format
	}{
		{12, FormatDelta}, // not a row of u64 columns
		{72, FormatDelta}, // nine columns: more than a delta run holds
		{8, Format(9)},    // no such format
	} {
		if _, err := NewWriterFormat(f, c.recSize, c.format); err == nil {
			t.Errorf("writer accepted %d-byte records in format %v", c.recSize, c.format)
		}
	}
	if _, err := NewWriterFormat(f, MaxDeltaRecordSize, FormatDelta); err != nil {
		t.Fatalf("writer refused %d-byte delta records: %v", MaxDeltaRecordSize, err)
	}
}

func BenchmarkCompressedRun(b *testing.B) {
	recs := sortedRecords48(200000)
	for _, f := range []Format{FormatRaw, FormatDelta} {
		format := f
		b.Run("build/"+format.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fs := storage.NewMemFS()
				file, _ := fs.Create("run")
				w, err := NewWriterFormat(file, 48, format)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range recs {
					if err := w.Append(r); err != nil {
						b.Fatal(err)
					}
				}
				if err := w.Finish(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, f := range []Format{FormatRaw, FormatDelta} {
		format := f
		fs := storage.NewMemFS()
		file, _ := fs.Create("run")
		w, err := NewWriterFormat(file, 48, format)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Append(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Finish(nil); err != nil {
			b.Fatal(err)
		}
		r, err := Open(file, NewCacheBytes(64<<20))
		if err != nil {
			b.Fatal(err)
		}
		b.Run("point/"+format.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				it, err := r.SeekGE(rec48(uint64(rng.Intn(len(recs)))))
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := it.Next(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("range/"+format.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				it, err := r.First()
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for {
					_, ok, err := it.Next()
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
					n++
				}
				if n != len(recs) {
					b.Fatalf("scanned %d records, want %d", n, len(recs))
				}
			}
		})
	}
}
