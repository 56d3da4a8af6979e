package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/backlogfs/backlog/internal/bloom"
	"github.com/backlogfs/backlog/internal/storage"
)

// rec8 builds an 8-byte big-endian record from a uint64, so numeric order
// equals bytes.Compare order.
func rec8(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

func buildRun(t *testing.T, fs storage.VFS, name string, recSize int, recs [][]byte, bloomBytes []byte) storage.File {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f, recSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(bloomBytes); err != nil {
		t.Fatal(err)
	}
	return f
}

func sortedRecords(n int, gap uint64) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = rec8(uint64(i) * gap)
	}
	return recs
}

func iterAll(t *testing.T, it *Iterator) [][]byte {
	t.Helper()
	var out [][]byte
	for {
		rec, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, append([]byte(nil), rec...))
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 100, 511, 512, 5000, 50000} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			fs := storage.NewMemFS()
			recs := sortedRecords(n, 3)
			f := buildRun(t, fs, "run", 8, recs, nil)
			r, err := Open(f, nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.RecordCount() != uint64(n) {
				t.Fatalf("RecordCount = %d, want %d", r.RecordCount(), n)
			}
			if minKey, maxKey := headerKeys(t, f); !bytes.Equal(minKey, recs[0]) || !bytes.Equal(maxKey, recs[n-1]) {
				t.Fatal("min/max key mismatch")
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

func TestSeekGE(t *testing.T) {
	fs := storage.NewMemFS()
	// Records 0, 10, 20, ..., 49990.
	recs := sortedRecords(5000, 10)
	f := buildRun(t, fs, "run", 8, recs, nil)
	r, err := Open(f, nil)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		seek uint64
		want uint64 // first record returned
		none bool
	}{
		{0, 0, false},
		{1, 10, false},
		{10, 10, false},
		{25, 30, false},
		{49990, 49990, false},
		{49991, 0, true},
		{1 << 62, 0, true},
	}
	for _, c := range cases {
		it, err := r.SeekGE(rec8(c.seek))
		if err != nil {
			t.Fatalf("SeekGE(%d): %v", c.seek, err)
		}
		rec, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if c.none {
			if ok {
				t.Fatalf("SeekGE(%d) found %x, want none", c.seek, rec)
			}
			continue
		}
		if !ok {
			t.Fatalf("SeekGE(%d) found nothing, want %d", c.seek, c.want)
		}
		if got := binary.BigEndian.Uint64(rec); got != c.want {
			t.Fatalf("SeekGE(%d) = %d, want %d", c.seek, got, c.want)
		}
	}
}

func TestSeekGEExhaustive(t *testing.T) {
	// Verify SeekGE against a reference on a smaller run, for every
	// possible probe position.
	fs := storage.NewMemFS()
	var keys []uint64
	rng := rand.New(rand.NewSource(11))
	seen := map[uint64]bool{}
	for len(keys) < 2000 {
		k := uint64(rng.Intn(10000))
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
	f := buildRun(t, fs, "run", 8, recs, nil)
	r, err := Open(f, NewCacheBytes(1024*storage.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	for probe := uint64(0); probe < 10005; probe += 7 {
		it, err := r.SeekGE(rec8(probe))
		if err != nil {
			t.Fatal(err)
		}
		rec, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		// Reference: first key >= probe.
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

func TestWriterRejectsDisorder(t *testing.T) {
	fs := storage.NewMemFS()
	f, _ := fs.Create("run")
	w, err := NewWriter(f, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec8(5)); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec8(5)); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := w.Append(rec8(4)); err == nil {
		t.Fatal("out-of-order accepted")
	}
}

func TestWriterRejectsEmptyAndBadSizes(t *testing.T) {
	fs := storage.NewMemFS()
	f, _ := fs.Create("run")
	if _, err := NewWriter(f, 0); err == nil {
		t.Fatal("record size 0 accepted")
	}
	if _, err := NewWriter(f, MaxRecordSize+1); err == nil {
		t.Fatal("oversized record accepted")
	}
	w, err := NewWriter(f, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(make([]byte, 7)); err == nil {
		t.Fatal("short record accepted")
	}
	if err := w.Finish(nil); err == nil {
		t.Fatal("empty run accepted")
	}
}

func TestBloomRoundTrip(t *testing.T) {
	fs := storage.NewMemFS()
	fl := bloom.New(1024, 4)
	recs := sortedRecords(100, 1)
	for i := uint64(0); i < 100; i++ {
		fl.Add(i)
	}
	f := buildRun(t, fs, "run", 8, recs, fl.Marshal())
	r, err := Open(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := r.BloomBytes()
	if err != nil {
		t.Fatal(err)
	}
	fl2, err := bloom.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		if !fl2.MayContain(i) {
			t.Fatalf("bloom lost key %d", i)
		}
	}
	// A run with no bloom returns nil.
	f2 := buildRun(t, fs, "run2", 8, recs, nil)
	r2, err := Open(f2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if data, err := r2.BloomBytes(); err != nil || data != nil {
		t.Fatalf("no-bloom run returned %v, %v", data, err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	fs := storage.NewMemFS()
	recs := sortedRecords(5000, 1)
	f := buildRun(t, fs, "run", 8, recs, nil)

	// Flip one byte in a leaf page (page 2).
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
		t.Fatal(err) // header is intact
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

func TestCorruptHeaderDetected(t *testing.T) {
	fs := storage.NewMemFS()
	f := buildRun(t, fs, "run", 8, sortedRecords(10, 1), nil)
	var b [1]byte
	if _, err := f.ReadAt(b[:], 20); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b[:], 20); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(f, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on corrupt header: %v", err)
	}
}

func TestWiderRecords(t *testing.T) {
	// 40-byte records, as used by the From/To tables in the btrfs port.
	fs := storage.NewMemFS()
	const rs = 40
	n := 3000
	recs := make([][]byte, n)
	for i := range recs {
		r := make([]byte, rs)
		binary.BigEndian.PutUint64(r, uint64(i))
		for j := 8; j < rs; j++ {
			r[j] = byte(i % 251)
		}
		recs[i] = r
	}
	f := buildRun(t, fs, "run", rs, recs, nil)
	r, err := Open(f, NewCacheBytes(64*storage.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	it, err := r.SeekGE(recs[1234])
	if err != nil {
		t.Fatal(err)
	}
	rec, ok, err := it.Next()
	if err != nil || !ok || !bytes.Equal(rec, recs[1234]) {
		t.Fatalf("SeekGE exact: ok=%v err=%v", ok, err)
	}
}

func TestCacheReducesReads(t *testing.T) {
	fs := storage.NewMemFS()
	recs := sortedRecords(50000, 1)
	f := buildRun(t, fs, "run", 8, recs, nil)
	cache := NewCacheBytes(10000 * storage.PageSize)
	r, err := Open(f, cache)
	if err != nil {
		t.Fatal(err)
	}
	probe := rec8(25000)
	if _, err := r.SeekGE(probe); err != nil {
		t.Fatal(err)
	}
	before := fs.Stats()
	if _, err := r.SeekGE(probe); err != nil {
		t.Fatal(err)
	}
	if d := fs.Stats().Sub(before); d.PageReads != 0 {
		t.Fatalf("second identical seek read %d pages, want 0", d.PageReads)
	}
	hits, _ := cache.Stats()
	if hits == 0 {
		t.Fatal("cache recorded no hits")
	}
	cache.Clear()
	before = fs.Stats()
	if _, err := r.SeekGE(probe); err != nil {
		t.Fatal(err)
	}
	if d := fs.Stats().Sub(before); d.PageReads == 0 {
		t.Fatal("seek after Clear performed no reads")
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCacheBytes(2 * storage.PageSize)
	p1 := make([]byte, storage.PageSize)
	c.put(1, 1, &page{payload: p1, count: 1})
	c.put(1, 2, &page{payload: p1, count: 1})
	c.put(1, 3, &page{payload: p1, count: 1}) // exceeds the two-page budget, evicts (1,1)
	if c.get(1, 1) != nil {
		t.Fatal("evicted page still present")
	}
	if c.get(1, 3) == nil {
		t.Fatal("recent page missing")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// Zero-capacity cache stores nothing.
	z := NewCacheBytes(0)
	z.put(1, 1, &page{payload: p1, count: 1})
	if z.Len() != 0 {
		t.Fatal("zero-capacity cache stored a page")
	}
}

func TestCacheByteBudget(t *testing.T) {
	// Entries are charged by size: a budget of two pages holds one
	// two-page entry alongside nothing else.
	c := NewCacheBytes(2 * storage.PageSize)
	big := make([]byte, 2*storage.PageSize)
	small := make([]byte, 100)
	c.put(1, 1, &page{payload: small, count: 1})
	c.put(1, 2, &page{payload: big, count: 1}) // 2*PageSize + 100 > budget: evicts (1,1)
	if c.get(1, 1) != nil {
		t.Fatal("small entry survived over-budget insert")
	}
	if c.get(1, 2) == nil {
		t.Fatal("big entry missing")
	}
	if got := c.SizeBytes(); got != int64(len(big)) {
		t.Fatalf("SizeBytes = %d, want %d", got, len(big))
	}
	// An entry larger than the whole budget is kept alone rather than
	// thrashing: put never evicts the entry just inserted.
	huge := make([]byte, 3*storage.PageSize)
	c.put(1, 3, &page{payload: huge, count: 1})
	if c.get(1, 3) == nil {
		t.Fatal("oversized entry not retained")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestBuildNeverReads(t *testing.T) {
	// The paper: "writing the I files requires no disk reads."
	fs := storage.NewMemFS()
	f, _ := fs.Create("run")
	w, err := NewWriter(f, 8)
	if err != nil {
		t.Fatal(err)
	}
	before := fs.Stats()
	for i := 0; i < 100000; i++ {
		if err := w.Append(rec8(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(nil); err != nil {
		t.Fatal(err)
	}
	if d := fs.Stats().Sub(before); d.PageReads != 0 {
		t.Fatalf("building a run performed %d page reads, want 0", d.PageReads)
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: any strictly-ascending record set round-trips exactly and
	// SeekGE agrees with a linear scan.
	f := func(raw []uint32, probe uint32) bool {
		if len(raw) == 0 {
			return true
		}
		set := map[uint64]bool{}
		for _, v := range raw {
			set[uint64(v)] = true
		}
		var keys []uint64
		for k := range set {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		fs := storage.NewMemFS()
		file, _ := fs.Create("r")
		w, err := NewWriter(file, 8)
		if err != nil {
			return false
		}
		for _, k := range keys {
			if err := w.Append(rec8(k)); err != nil {
				return false
			}
		}
		if err := w.Finish(nil); err != nil {
			return false
		}
		r, err := Open(file, nil)
		if err != nil {
			return false
		}
		it, err := r.SeekGE(rec8(uint64(probe)))
		if err != nil {
			return false
		}
		rec, ok, err := it.Next()
		if err != nil {
			return false
		}
		idx := sort.Search(len(keys), func(i int) bool { return keys[i] >= uint64(probe) })
		if idx == len(keys) {
			return !ok
		}
		return ok && binary.BigEndian.Uint64(rec) == keys[idx]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
