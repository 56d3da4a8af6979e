package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(DefaultFilterBytes, DefaultHashes)
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 32000)
	for i := range keys {
		keys[i] = rng.Uint64()
		f.Add(keys[i])
	}
	for _, k := range keys {
		if !f.MayContain(k) {
			t.Fatalf("false negative for key %d", k)
		}
	}
}

func TestFalsePositiveRateNearExpectation(t *testing.T) {
	// The paper's operating point: 32 KB filter, 4 hashes, 32,000 keys →
	// expected FPR up to ~2.4%.
	f := New(DefaultFilterBytes, DefaultHashes)
	rng := rand.New(rand.NewSource(2))
	present := make(map[uint64]bool, 32000)
	for i := 0; i < 32000; i++ {
		k := rng.Uint64()
		present[k] = true
		f.Add(k)
	}
	trials, fp := 100000, 0
	for i := 0; i < trials; i++ {
		k := rng.Uint64()
		if present[k] {
			continue
		}
		if f.MayContain(k) {
			fp++
		}
	}
	rate := float64(fp) / float64(trials)
	if rate > 0.035 {
		t.Fatalf("false positive rate %.4f exceeds 3.5%% bound (expected ≈2.4%%)", rate)
	}
	est := f.EstimatedFPR()
	if est < rate/3 || est > rate*3 {
		t.Errorf("EstimatedFPR %.4f far from observed %.4f", est, rate)
	}
}

func TestHalvePreservesMembership(t *testing.T) {
	f := New(4096, DefaultHashes)
	rng := rand.New(rand.NewSource(3))
	keys := make([]uint64, 500)
	for i := range keys {
		keys[i] = rng.Uint64()
		f.Add(keys[i])
	}
	for rounds := 0; rounds < 4; rounds++ {
		f.Halve()
		for _, k := range keys {
			if !f.MayContain(k) {
				t.Fatalf("false negative after %d halvings", rounds+1)
			}
		}
	}
}

func TestHalveFloor(t *testing.T) {
	f := New(64, DefaultHashes)
	f.Add(42)
	f.Halve() // should be a no-op at the 64-byte floor
	if f.SizeBytes() != 64 {
		t.Fatalf("halved below floor: %d bytes", f.SizeBytes())
	}
	if !f.MayContain(42) {
		t.Fatal("lost key at floor size")
	}
}

func TestShrinkToFit(t *testing.T) {
	f := New(DefaultFilterBytes, DefaultHashes)
	for i := uint64(0); i < 100; i++ {
		f.Add(i)
	}
	size := f.ShrinkToFit(0.024)
	if size >= DefaultFilterBytes {
		t.Fatalf("filter with 100 keys did not shrink (size %d)", size)
	}
	for i := uint64(0); i < 100; i++ {
		if !f.MayContain(i) {
			t.Fatalf("false negative after shrink for %d", i)
		}
	}
	if fpr := f.EstimatedFPR(); fpr > 0.024 {
		t.Fatalf("shrunk filter FPR %.4f exceeds requested bound", fpr)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f := New(1024, 5)
	for i := uint64(0); i < 200; i++ {
		f.Add(i * 31)
	}
	g, err := Unmarshal(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if g.Added() != 200 || g.SizeBytes() != f.SizeBytes() {
		t.Fatalf("metadata mismatch: added=%d size=%d", g.Added(), g.SizeBytes())
	}
	for i := uint64(0); i < 200; i++ {
		if !g.MayContain(i * 31) {
			t.Fatalf("false negative after round trip for %d", i*31)
		}
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	f := New(256, 4)
	f.Add(7)
	data := f.Marshal()

	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("XXXX"), data[4:]...),
		"truncated": data[:20],
		"short bits": func() []byte {
			d := append([]byte(nil), data...)
			return d[:len(d)-10]
		}(),
	}
	for name, d := range cases {
		if _, err := Unmarshal(d); err == nil {
			t.Errorf("%s: Unmarshal accepted corrupt input", name)
		}
	}
}

func TestNewRoundsToPowerOfTwo(t *testing.T) {
	f := New(1000, 4)
	if f.SizeBytes() != 1024 {
		t.Fatalf("size = %d, want 1024", f.SizeBytes())
	}
	f = New(0, 0)
	if f.SizeBytes() != 64 || f.k != DefaultHashes {
		t.Fatalf("defaults: size=%d k=%d", f.SizeBytes(), f.k)
	}
}

func TestNewForCapacity(t *testing.T) {
	small := NewForCapacity(100, 0)
	if small.SizeBytes() > 256 {
		t.Fatalf("small filter too big: %d", small.SizeBytes())
	}
	big := NewForCapacity(10_000_000, MaxFilterBytes)
	if big.SizeBytes() != MaxFilterBytes {
		t.Fatalf("capped filter = %d, want %d", big.SizeBytes(), MaxFilterBytes)
	}
	def := NewForCapacity(32000, 0)
	if def.SizeBytes() != DefaultFilterBytes {
		t.Fatalf("default-capacity filter = %d, want %d", def.SizeBytes(), DefaultFilterBytes)
	}
}

func TestMembershipProperty(t *testing.T) {
	// Property: for any key set, every added key is reported present, both
	// before and after halving and a marshal round trip.
	f := func(keys []uint64) bool {
		fl := New(2048, 4)
		for _, k := range keys {
			fl.Add(k)
		}
		fl.Halve()
		data := fl.Marshal()
		fl2, err := Unmarshal(data)
		if err != nil {
			return false
		}
		for _, k := range keys {
			if !fl.MayContain(k) || !fl2.MayContain(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	f := New(DefaultFilterBytes, DefaultHashes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Add(uint64(i))
	}
}
