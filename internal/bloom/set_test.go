package bloom

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// setLayouts names the exact-set layouts.
var setLayouts = map[byte]string{layoutBitmap: "bitmap", layoutEliasFano: "ef"}

// setOf builds the exact set of keys, which ascend, in layout.
func setOf(layout byte, keys []uint64) *Filter {
	return built(newSet(layout, uint64(len(keys)), keys[0], keys[len(keys)-1]-keys[0]), keys)
}

// built adds keys to b and returns its set.
func built(b SetBuilder, keys []uint64) *Filter {
	for _, k := range keys {
		b.Add(k)
	}
	return b.Filter()
}

// elements returns the keys the set holds, read from its bits as the
// decoder's checks read them.
func (s *exactSet) elements() []uint64 {
	var out []uint64
	for p := uint64(0); uint64(len(out)) < s.n && p < uint64(len(s.upper))*64; p++ {
		if s.upper[p>>6]>>(p&63)&1 == 0 {
			continue
		}
		if s.layout == layoutBitmap {
			out = append(out, s.first+p)
		} else {
			i := uint64(len(out))
			out = append(out, s.first+((p-i)<<s.l|s.lowAt(i)))
		}
	}
	return out
}

// randomKeys returns n distinct ascending keys from first, at about one
// key in every gap blocks.
func randomKeys(rng *rand.Rand, n int, first, gap uint64) []uint64 {
	keys := make([]uint64, n)
	k := first
	for i := range keys {
		keys[i] = k
		k += 1 + uint64(rng.Int63n(int64(2*gap-1)))
	}
	return keys
}

// TestExactSetsAnswerExactly: in either layout a set holds every key it
// was built from and no other, before and after a marshal round trip that
// gives back its bytes; NewSet picks the smaller layout, whose bytes
// SetSize predicts.
func TestExactSetsAnswerExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := [][]uint64{
		{0}, {5}, {math.MaxUint64}, {0, math.MaxUint64}, {1, 2, 3, 4},
		{math.MaxUint64 - 70, math.MaxUint64 - 3, math.MaxUint64},
	}
	for _, c := range []struct{ n, first, gap uint64 }{
		{1000, 0, 1}, {1000, 7, 2}, {5000, 1 << 20, 17}, {15450, 3, 17},
		{300, 0, 64}, {2000, 1 << 40, 1000}, {70, 10, 7}, {3000, 1 << 62, 1 << 40},
	} {
		cases = append(cases, randomKeys(rng, int(c.n), c.first, c.gap))
	}
	for _, keys := range cases {
		present := map[uint64]bool{}
		for _, k := range keys {
			present[k] = true
		}
		first, last := keys[0], keys[len(keys)-1]
		for layout, name := range setLayouts {
			if layout == layoutBitmap && last-first > 1<<24 {
				continue // a bitmap that large is never chosen
			}
			f := setOf(layout, keys)
			g, err := Unmarshal(f.Marshal())
			if err != nil {
				t.Fatalf("%s of %d keys from %d to %d: %v", name, len(keys), first, last, err)
			}
			if !bytes.Equal(g.Marshal(), f.Marshal()) || g.Added() != uint64(len(keys)) || g.SizeBytes() != f.SizeBytes() || g.EstimatedFPR() != 0 {
				t.Fatalf("%s of %d keys: the round trip changed it", name, len(keys))
			}
			if lo, hi, exact := g.Range(); !exact || lo != first || hi != last {
				t.Fatalf("%s: Range %d–%d %v, want %d–%d", name, lo, hi, exact, first, last)
			}
			if got := g.set.elements(); !slices.Equal(got, keys) {
				t.Fatalf("%s of %d keys enumerates %d", name, len(keys), len(got))
			}
			for _, h := range []*Filter{f, g} {
				for _, k := range keys {
					if !h.MayContain(k) {
						t.Fatalf("%s of %d keys: false negative for %d", name, len(keys), k)
					}
				}
				for range 20000 {
					k := rng.Uint64()
					if last-first < math.MaxUint64 {
						k = first + k%(last-first+1)
					}
					if h.MayContain(k) != present[k] {
						t.Fatalf("%s of %d keys: %d answered %v", name, len(keys), k, !present[k])
					}
				}
				for _, k := range []uint64{first - 1, last + 1, 0, math.MaxUint64} {
					if (k < first || k > last) && h.MayContain(k) {
						t.Fatalf("%s of %d keys from %d to %d holds %d", name, len(keys), first, last, k)
					}
				}
			}
		}
		f := built(NewSet(len(keys), first, last), keys)
		if uint64(len(f.Marshal())) != SetSize(len(keys), first, last) {
			t.Fatalf("%d keys from %d to %d: NewSet marshals %d bytes, SetSize says %d", len(keys), first, last, len(f.Marshal()), SetSize(len(keys), first, last))
		}
		if last-first < 1<<24 && len(setOf(1-f.set.layout, keys).Marshal()) < len(f.Marshal()) {
			t.Fatalf("%d keys from %d to %d: NewSet chose the larger layout", len(keys), first, last)
		}
	}
}

// TestSetSizeNearTheWholeRange: sizing a set over any range up to 2^64
// blocks neither overflows nor panics, and a sparse set over a huge range
// is larger than the Bloom filter its keys would get.
func TestSetSizeNearTheWholeRange(t *testing.T) {
	for _, c := range []struct {
		n           int
		first, last uint64
	}{
		{1, 0, math.MaxUint64}, {2, 0, math.MaxUint64}, {1004, 5, math.MaxUint64}, {1 << 30, 0, math.MaxUint64},
		{1, math.MaxUint64, math.MaxUint64}, {1 << 20, 1 << 63, 1<<63 + 1<<20 - 1},
	} {
		size := SetSize(c.n, c.first, c.last)
		if size < setHeaderLen || size > setHeaderLen+bitmapBytes(c.last-c.first) {
			t.Fatalf("%d keys from %d to %d: SetSize %d", c.n, c.first, c.last, size)
		}
		if c.last-c.first > 1<<40 && c.n > 1 && size <= FilterSize(c.n) {
			t.Fatalf("%d keys over 2^64 blocks: a set of %d bytes beats a BLF2 of %d", c.n, size, FilterSize(c.n))
		}
	}
	if got := SetSize(1<<20, 1<<63, 1<<63+1<<20-1); got != setHeaderLen+1<<17 {
		t.Fatalf("a full range of 2^20 blocks: %d bytes, want the bitmap's %d", got, setHeaderLen+1<<17)
	}
}

// TestSelectInWord: selectInWord finds every set bit of random words.
func TestSelectInWord(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for range 2000 {
		w := rng.Uint64() & rng.Uint64()
		r := uint64(0)
		for p := uint64(0); p < 64; p++ {
			if w>>p&1 == 1 {
				if got := selectInWord(w, r); got != p {
					t.Fatalf("bit %d of %#x at %d, want %d", r, w, got, p)
				}
				r++
			}
		}
	}
}

// payload returns a set's payload: its bytes past its header.
func payload(f *Filter) []byte {
	s := &f.set
	return f.Marshal()[len(appendSetHeader(nil, s.layout, s.n, s.first, s.span)):]
}

// reheaded returns f's payload under a header of the given numbers.
func reheaded(f *Filter, layout byte, n, first, span uint64) []byte {
	return append(appendSetHeader(nil, layout, n, first, span), payload(f)...)
}

// flipped returns f's bytes with payload bits i (of the section that
// starts at byte from) flipped.
func flipped(f *Filter, from int, i ...int) []byte {
	p := payload(f)
	for _, i := range i {
		p[from+i/8] ^= 1 << (i % 8)
	}
	s := &f.set
	return append(appendSetHeader(nil, s.layout, s.n, s.first, s.span), p...)
}

// hostileSets are exact sets the decoder must refuse, each with what its
// error says: one row a check.
func hostileSets() map[string]struct {
	data []byte
	want string
} {
	// Offsets 0 1 3 4 7 8 9 11: a bitmap of 2 bytes.
	dense := []uint64{10, 11, 13, 14, 17, 18, 19, 21}
	// 11 keys over 201 blocks: 4 low bits each, 44 bits in 6 bytes, and
	// 23 upper bits in 3; the last one is bit 22.
	sparse := []uint64{100, 117, 140, 151, 170, 190, 220, 230, 260, 290, 300}
	bitmap, ef := setOf(layoutBitmap, dense), setOf(layoutEliasFano, sparse)
	const lowBytes = 6
	efBytes := ef.Marshal()
	type row = struct {
		data []byte
		want string
	}
	return map[string]row{
		"set truncated header":            {efBytes[:setHeaderLen-1], "an exact set of 31 bytes"},
		"set reserved byte":               {append([]byte("BLS1\x01\x00\x01\x00"), efBytes[8:]...), "reserved bytes"},
		"set truncated payload":           {efBytes[:len(efBytes)-1], "an Elias–Fano list of 8 bytes"},
		"set with bytes past its payload": {append(bytes.Clone(efBytes), 0), "an Elias–Fano list of 10 bytes"},
		"set layout 2":                    {reheaded(ef, 2, 11, 100, 200), "layout 2"},
		"set of no keys":                  {reheaded(bitmap, layoutBitmap, 0, 10, 11), "0 keys"},
		"set of more keys than blocks":    {reheaded(bitmap, layoutBitmap, 12, 10, 2), "12 keys over 2+1 blocks"},
		"set past 2^64":                   {reheaded(ef, layoutEliasFano, 11, math.MaxUint64-100, 200), "spanning 200 more"},
		"bitmap sized for another span":   {reheaded(bitmap, layoutBitmap, 8, 10, 40), "a bitmap of 2 bytes over 40+1"},
		"bitmap popcount not its count":   {reheaded(bitmap, layoutBitmap, 7, 10, 11), "a bitmap of 7 keys sets 8 bits"},
		"bitmap first bit clear":          {flipped(bitmap, 0, 0, 2), "first or last block is clear"},
		"bitmap last bit clear":           {flipped(bitmap, 0, 11, 10), "first or last block is clear"},
		"bitmap bit past its last block":  {flipped(bitmap, 0, 15, 9), "bits past its last block"},
		"EF sized for another count":      {reheaded(ef, layoutEliasFano, 10, 100, 200), "an Elias–Fano list of 9 bytes for 10 keys"},
		"EF declaring 2^40 keys":          {reheaded(ef, layoutEliasFano, 1<<40, 100, 1<<50), "an Elias–Fano list of 9 bytes for 1099511627776 keys"},
		"bitmap declaring 2^50 blocks":    {reheaded(bitmap, layoutBitmap, 8, 10, 1<<50), "a bitmap of 2 bytes over 1125899906842624+1"},
		"EF upper bits with n-1 ones":     {flipped(ef, lowBytes, 22), "11 keys with 10 ones"},
		"EF upper bits with n+1 ones":     {flipped(ef, lowBytes, 23), "more ones"},
		"EF keys not ascending":           {setOf(layoutEliasFano, []uint64{100, 109, 105, 151, 170, 190, 220, 230, 260, 290, 300}).Marshal(), "do not ascend"},
		"EF repeated key":                 {setOf(layoutEliasFano, []uint64{100, 117, 117, 151, 170, 190, 220, 230, 260, 290, 300}).Marshal(), "do not ascend"},
		"EF first key not its first":      {built(newSet(layoutEliasFano, 11, 99, 201), sparse).Marshal(), "first key is not its first block"},
		"EF last key not its last":        {built(newSet(layoutEliasFano, 11, 100, 201), sparse).Marshal(), "last key is not its last block"},
		"EF key past its last":            {flipped(ef, 0, 40), "a key past its last block"},
		"EF low bit past its last key":    {flipped(ef, 0, 47), "low bits past its last key"},
	}
}

// TestProbesAllocateNothing: a probe of any encoding allocates nothing.
func TestProbesAllocateNothing(t *testing.T) {
	keys := randomKeys(rand.New(rand.NewSource(1)), 2000, 50, 9)
	filters := map[string]*Filter{"BLF1": NewPow2(2048, DefaultHashes), "BLF2": New(2000, DefaultHashes)}
	for _, k := range keys {
		filters["BLF1"].Add(k)
		filters["BLF2"].Add(k)
	}
	for layout, name := range setLayouts {
		filters[name] = setOf(layout, keys)
	}
	for name, f := range filters {
		k := uint64(0)
		if n := testing.AllocsPerRun(1000, func() { f.MayContain(k); k += 7 }); n != 0 {
			t.Errorf("%s: %v allocations a probe", name, n)
		}
	}
}

// BenchmarkProbe times a probe of each encoding over the keys of a
// checkpoint's From run on the query workload (about 15 450 blocks over a
// range of 262 100), of its To run (9 800) and of a merged From run
// (90 817 over 262 141), for blocks the run lacks — most of a query's
// probes — and for blocks it holds. At these densities NewSet picks the
// Elias–Fano list for the first two and the bitmap for the third.
func BenchmarkProbe(b *testing.B) {
	for _, c := range []struct {
		name   string
		n, gap int
	}{{"checkpoint-from", 15450, 17}, {"checkpoint-to", 9800, 27}, {"merged", 90817, 3}} {
		rng := rand.New(rand.NewSource(1))
		keys := randomKeys(rng, c.n, 1000, uint64(c.gap)/2+1)
		present := map[uint64]bool{}
		for _, k := range keys {
			present[k] = true
		}
		probes := map[string][]uint64{}
		for len(probes["absent"]) < 4096 {
			if k := keys[0] + rng.Uint64()%(keys[len(keys)-1]-keys[0]); !present[k] {
				probes["absent"] = append(probes["absent"], k)
			}
		}
		for range 4096 {
			probes["present"] = append(probes["present"], keys[rng.Intn(len(keys))])
		}
		blf2 := New(len(keys), DefaultHashes)
		for _, k := range keys {
			blf2.Add(k)
		}
		set := built(NewSet(len(keys), keys[0], keys[len(keys)-1]), keys)
		for _, kind := range []string{"absent", "present"} {
			for _, name := range []string{"BLF2", setLayouts[set.set.layout]} {
				f := map[string]*Filter{"BLF2": blf2, setLayouts[set.set.layout]: set}[name]
				b.Run(c.name+"/"+kind+"/"+name, func(b *testing.B) {
					hits, p := 0, probes[kind]
					for i := range b.N {
						if f.MayContain(p[i&4095]) {
							hits++
						}
					}
					if kind == "present" && hits != b.N {
						b.Fatalf("%d of %d held keys passed", hits, b.N)
					}
				})
			}
		}
	}
}

// BenchmarkBuild times building each encoding over a checkpoint's keys:
// four hashed writes a key for a BLF2, a bit or two a key for an exact set.
func BenchmarkBuild(b *testing.B) {
	keys := randomKeys(rand.New(rand.NewSource(1)), 15450, 1000, 9)
	b.Run("BLF2", func(b *testing.B) {
		for range b.N {
			f := New(len(keys), DefaultHashes)
			for _, k := range keys {
				f.Add(k)
			}
		}
	})
	b.Run("ef", func(b *testing.B) {
		for range b.N {
			built(NewSet(len(keys), keys[0], keys[len(keys)-1]), keys)
		}
	})
}
