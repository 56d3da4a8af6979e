package bloom

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// encodings builds an empty filter of each encoding at about sizeBytes.
var encodings = map[string]func(sizeBytes int) *Filter{
	"BLF1": func(n int) *Filter { return NewPow2(n, DefaultHashes) },
	"BLF2": func(n int) *Filter { return New(n, DefaultHashes) },
}

func TestNoFalseNegatives(t *testing.T) {
	for name, mk := range encodings {
		f := mk(DefaultFilterBytes)
		rng := rand.New(rand.NewSource(1))
		keys := make([]uint64, 32000)
		for i := range keys {
			keys[i] = rng.Uint64()
			f.Add(keys[i])
		}
		for _, k := range keys {
			if !f.MayContain(k) {
				t.Fatalf("%s: false negative for key %d", name, k)
			}
		}
	}
}

// TestNoFalseNegativesAtEverySize: a BLF2 filter of any length from 8 bytes
// up, at 8 bits per key, answers every key it holds.
func TestNoFalseNegativesAtEverySize(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for size := minBytes; size <= 4096; size++ {
		f := New(size, DefaultHashes)
		keys := make([]uint64, size)
		for i := range keys {
			keys[i] = rng.Uint64() >> uint(rng.Intn(64))
			f.Add(keys[i])
		}
		if f.SizeBytes() != size {
			t.Fatalf("New(%d) is %d bytes", size, f.SizeBytes())
		}
		g, err := Unmarshal(f.Marshal())
		if err != nil {
			t.Fatalf("%d bytes: %v", size, err)
		}
		for _, k := range keys {
			if !f.MayContain(k) || !g.MayContain(k) {
				t.Fatalf("%d bytes: false negative for key %d", size, k)
			}
		}
	}
}

// fpRate adds n random keys to f and returns the share of 100 000 other
// random keys it passes.
func fpRate(f *Filter, n int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	present := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		k := rng.Uint64()
		present[k] = true
		f.Add(k)
	}
	trials, fp := 0, 0
	for trials < 100000 {
		k := rng.Uint64()
		if present[k] {
			continue
		}
		trials++
		if f.MayContain(k) {
			fp++
		}
	}
	return float64(fp) / float64(trials)
}

// TestFalsePositiveRateNearExpectation: the paper's operating point — 8
// bits per key, 4 hashes — passes ≈2.4 % of absent keys, in either
// encoding: BLF1 at the paper's 32 KB for 32 000 keys, and BLF2 at one
// byte a key for key counts no power of two fits.
func TestFalsePositiveRateNearExpectation(t *testing.T) {
	for _, c := range []struct {
		name string
		f    *Filter
		keys int
	}{
		{"BLF1", NewPow2(DefaultFilterBytes, DefaultHashes), 32000},
		{"BLF2", New(3000, DefaultHashes), 3000},
		{"BLF2", New(20000, DefaultHashes), 20000},
		{"BLF2", New(50001, DefaultHashes), 50001},
	} {
		rate := fpRate(c.f, c.keys, int64(c.keys))
		if rate < 0.018 || rate > 0.031 {
			t.Errorf("%s of %d bytes, %d keys: false-positive rate %.4f, want ≈%.3f", c.name, c.f.SizeBytes(), c.keys, rate, targetFPR)
		}
		if est := c.f.EstimatedFPR(); est < rate/1.5 || est > rate*1.5 {
			t.Errorf("%s: EstimatedFPR %.4f far from observed %.4f", c.name, est, rate)
		}
	}
}

// fold is the paper's shrink of a power-of-two filter: bit i of the half is
// the OR of bits i and i + m/2 (Broder & Mitzenmacher).
func fold(f *Filter) *Filter {
	half := len(f.bits) / 2
	b := make([]byte, half)
	for i := range b {
		b[i] = f.bits[i] | f.bits[i+half]
	}
	return shaped(b, f.k, f.nAdded, true)
}

// TestPow2BytesIsTheFoldedSize: a BLF1 filter built at Pow2Bytes holds the
// bits of one built at the starting power of two and folded in half while
// its keys kept the target — the rule raw runs were written by.
func TestPow2BytesIsTheFoldedSize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for range 300 {
		n, expect, limit := 1+rng.Intn(5000), 1+rng.Intn(20000), []int{0, 64, 1000, 4096, DefaultFilterBytes}[rng.Intn(5)]
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		if limit <= 0 {
			limit = MaxFilterBytes
		}
		folded := NewPow2(min(expect, limit), DefaultHashes)
		for _, k := range keys {
			folded.Add(k)
		}
		for folded.SizeBytes() > 64 && estimateFPR(DefaultHashes, uint64(n), folded.nbits/2) <= targetFPR {
			folded = fold(folded)
		}
		direct := NewPow2(Pow2Bytes(n, expect, limit), DefaultHashes)
		for _, k := range keys {
			direct.Add(k)
		}
		if !bytes.Equal(direct.Marshal(), folded.Marshal()) {
			t.Fatalf("%d keys, %d expected, cap %d: Pow2Bytes gives %d bytes, folding %d, or their bits differ",
				n, expect, limit, direct.SizeBytes(), folded.SizeBytes())
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	for name, mk := range encodings {
		f := mk(1000)
		for i := uint64(0); i < 200; i++ {
			f.Add(i * 31)
		}
		data := f.Marshal()
		if string(data[:4]) != name {
			t.Fatalf("%s marshals as %q", name, data[:4])
		}
		g, err := Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		if g.Added() != 200 || g.SizeBytes() != f.SizeBytes() || !bytes.Equal(g.Marshal(), data) {
			t.Fatalf("%s: metadata mismatch: added=%d size=%d", name, g.Added(), g.SizeBytes())
		}
		for i := uint64(0); i < 200; i++ {
			if !g.MayContain(i * 31) {
				t.Fatalf("%s: false negative after round trip for %d", name, i*31)
			}
		}
	}
}

// withSize returns a copy of a marshalled filter declaring n bytes.
func withSize(data []byte, n uint64) []byte {
	d := bytes.Clone(data)
	binary.LittleEndian.PutUint64(d[16:], n)
	return d
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	f := NewPow2(256, 4)
	f.Add(7)
	blf1 := f.Marshal()
	g := New(300, 4)
	g.Add(7)
	blf2 := g.Marshal()

	cases := map[string][]byte{
		"empty":                  {},
		"bad magic":              append([]byte("XXXX"), blf1[4:]...),
		"BLF3":                   append([]byte("BLF3"), blf2[4:]...),
		"truncated header":       blf1[:20],
		"BLF1 short bits":        blf1[:len(blf1)-10],
		"BLF1 not a power of 2":  withSize(blf1, 200),
		"BLF1 under 64 bytes":    withSize(blf1, 32)[:headerLen+32],
		"BLF2 of length 0":       withSize(blf2, 0)[:headerLen],
		"BLF2 under 8 bytes":     withSize(blf2, 7)[:headerLen+7],
		"BLF2 truncated":         blf2[:len(blf2)-1],
		"BLF2 beyond its data":   withSize(blf2, 301),
		"BLF2 length wraps":      withSize(blf2, 1<<63),
		"BLF2 with no hashes":    append(append([]byte("BLF2"), 0, 0, 0, 0), blf2[8:]...),
		"BLF2 with a 100 hashes": append(append([]byte("BLF2"), 100, 0, 0, 0), blf2[8:]...),
	}
	for name, d := range cases {
		if _, err := Unmarshal(d); err == nil {
			t.Errorf("%s: Unmarshal accepted corrupt input", name)
		}
	}
}

func TestNewRoundsToPowerOfTwo(t *testing.T) {
	for _, c := range []struct {
		f    *Filter
		want int
	}{
		{NewPow2(1000, 4), 1024},
		{NewPow2(1024, 4), 1024},
		{NewPow2(0, 0), 64},
		{New(1000, 4), 1000}, // BLF2 is any length
		{New(0, 0), minBytes},
	} {
		if c.f.SizeBytes() != c.want || c.f.k != DefaultHashes {
			t.Fatalf("size=%d k=%d, want %d bytes and %d hashes", c.f.SizeBytes(), c.f.k, c.want, DefaultHashes)
		}
	}
}

func TestPow2BytesForCapacity(t *testing.T) {
	if got := Pow2Bytes(100, 100, 0); got > 256 {
		t.Fatalf("small filter too big: %d", got)
	}
	if got := Pow2Bytes(10_000_000, 10_000_000, MaxFilterBytes); got != MaxFilterBytes {
		t.Fatalf("capped filter = %d, want %d", got, MaxFilterBytes)
	}
	if got := Pow2Bytes(32000, 32000, 0); got != DefaultFilterBytes {
		t.Fatalf("default-capacity filter = %d, want %d", got, DefaultFilterBytes)
	}
	if got := Pow2Bytes(100, 32000, 0); got > 256 {
		t.Fatalf("100 keys' filter = %d, want it shrunk", got)
	}
}

func TestMembershipProperty(t *testing.T) {
	// Property: for any key set, every added key is reported present, both
	// before and after a marshal round trip, in either encoding.
	f := func(keys []uint64, size uint16) bool {
		for _, mk := range encodings {
			fl := mk(int(size))
			for _, k := range keys {
				fl.Add(k)
			}
			fl2, err := Unmarshal(fl.Marshal())
			if err != nil {
				return false
			}
			for _, k := range keys {
				if !fl.MayContain(k) || !fl2.MayContain(k) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// FuzzUnmarshal: arbitrary bytes decode to a filter or an error, never a
// panic, and a filter keeps the size its header declares and answers
// probes.
func FuzzUnmarshal(f *testing.F) {
	for _, mk := range encodings {
		for _, size := range []int{8, 64, 300, 1024} {
			fl := mk(size)
			fl.Add(uint64(size))
			f.Add(fl.Marshal())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fl, err := Unmarshal(data)
		if err != nil {
			return
		}
		if want := binary.LittleEndian.Uint64(data[16:]); uint64(fl.SizeBytes()) != want {
			t.Fatalf("decoded %d bytes, declared %d", fl.SizeBytes(), want)
		}
		for k := uint64(0); k < 64; k++ {
			fl.MayContain(k * 0x9e3779b97f4a7c15)
		}
		fl.Add(1)
		if !fl.MayContain(1) {
			t.Fatal("false negative")
		}
	})
}

func BenchmarkAdd(b *testing.B) {
	f := New(DefaultFilterBytes, DefaultHashes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Add(uint64(i))
	}
}
