// Package bloom implements the Bloom filters Backlog attaches to every
// read-store run (paper Section 5.1).
//
// Query processing consults the filter of each run before opening it, so
// queries touch only runs that may contain the requested physical block.
// The paper's operating point — four hash functions and 8 bits per key, a
// 32 KB filter for a run of 32,000 operations (≈2.4 % expected
// false-positive rate), shrink-by-halving for smaller runs, and growth up
// to 1 MB for larger ones — is reproduced here. The paper grows only the
// Combined read store's filter; here every run's filter is sized by its
// keys, so a compacted From run keeps the 2.4 % target too.
//
// Keys are physical block numbers (uint64): queries are always by block, so
// filters index only the block column of each record.
package bloom

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// DefaultHashes is the number of hash functions (k) used by the paper.
const DefaultHashes = 4

// DefaultFilterBytes is the paper's filter size for a From or To read-store
// run, chosen for 32,000 operations per CP (Section 5.1). The paper-figure
// experiments pin it as those tables' cap.
const DefaultFilterBytes = 32 << 10

// MaxFilterBytes is the default cap on any run's filter (the paper's limit
// for the Combined read store).
const MaxFilterBytes = 1 << 20

// Filter is a classic Bloom filter over uint64 keys. The zero value is not
// usable; construct with New or NewForCapacity.
type Filter struct {
	bits   []byte
	k      int
	nAdded uint64
}

// New creates a filter with the given size in bytes (rounded up to a
// power of two, minimum 64 bytes) and number of hash functions.
func New(sizeBytes, hashes int) *Filter {
	if sizeBytes < 64 {
		sizeBytes = 64
	}
	if sizeBytes&(sizeBytes-1) != 0 {
		sizeBytes = 1 << bits.Len(uint(sizeBytes))
	}
	if hashes <= 0 {
		hashes = DefaultHashes
	}
	return &Filter{bits: make([]byte, sizeBytes), k: hashes}
}

// NewForCapacity sizes a filter for n expected keys at roughly the paper's
// operating point (m/n ≈ 8 bits per key with k = 4), clamped to
// [64 B, maxBytes]. Passing maxBytes <= 0 uses MaxFilterBytes.
func NewForCapacity(n int, maxBytes int) *Filter {
	if maxBytes <= 0 {
		maxBytes = MaxFilterBytes
	}
	sizeBytes := n // 8 bits per expected key
	if sizeBytes > maxBytes {
		sizeBytes = maxBytes
	}
	return New(sizeBytes, DefaultHashes)
}

// nBits returns the filter size in bits (always a power of two).
func (f *Filter) nBits() uint64 { return uint64(len(f.bits)) * 8 }

// hash2 derives two independent 64-bit hashes of the key; the k probe
// positions use double hashing h1 + i*h2 (Kirsch–Mitzenmacher), which
// preserves the false-positive asymptotics of k independent hashes.
func hash2(key uint64) (uint64, uint64) {
	// SplitMix64 finalizer for h1.
	x := key + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	h1 := x ^ (x >> 31)
	// A second, differently-seeded mix for h2.
	y := key ^ 0xc2b2ae3d27d4eb4f
	y = (y ^ (y >> 33)) * 0xff51afd7ed558ccd
	y = (y ^ (y >> 33)) * 0xc4ceb9fe1a85ec53
	h2 := y ^ (y >> 33)
	// Double hashing degenerates if h2 is even (cycles through a coset);
	// force it odd.
	return h1, h2 | 1
}

// Add inserts a key.
func (f *Filter) Add(key uint64) {
	h1, h2 := hash2(key)
	mask := f.nBits() - 1
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) & mask
		f.bits[bit>>3] |= 1 << (bit & 7)
	}
	f.nAdded++
}

// MayContain reports whether the key may have been added. False means
// definitely absent.
func (f *Filter) MayContain(key uint64) bool {
	h1, h2 := hash2(key)
	mask := f.nBits() - 1
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) & mask
		if f.bits[bit>>3]&(1<<(bit&7)) == 0 {
			return false
		}
	}
	return true
}

// Added returns the number of keys inserted.
func (f *Filter) Added() uint64 { return f.nAdded }

// SizeBytes returns the filter's bit-array size in bytes.
func (f *Filter) SizeBytes() int { return len(f.bits) }

// Halve folds the filter to half its size in linear time (Broder &
// Mitzenmacher): bit i of the result is the OR of bits i and i+m/2. The
// halved filter answers MayContain identically for all previously added keys
// (no false negatives) at a higher false-positive rate. Halving below 64
// bytes is a no-op. This implements the paper's "shrink its Bloom filter to
// save memory" for runs with few records.
func (f *Filter) Halve() {
	if len(f.bits) <= 64 {
		return
	}
	half := len(f.bits) / 2
	for i := 0; i < half; i++ {
		f.bits[i] |= f.bits[i+half]
	}
	f.bits = f.bits[:half:half]
}

// ShrinkToFit repeatedly halves the filter while doing so keeps the
// estimated false-positive rate under maxFPR. It returns the final size.
func (f *Filter) ShrinkToFit(maxFPR float64) int {
	for len(f.bits) > 64 {
		// Estimate the FPR the filter would have at half size.
		if estimateFPR(f.k, f.nAdded, f.nBits()/2) > maxFPR {
			break
		}
		f.Halve()
	}
	return len(f.bits)
}

// EstimatedFPR returns the expected false-positive probability given the
// number of keys added so far.
func (f *Filter) EstimatedFPR() float64 {
	return estimateFPR(f.k, f.nAdded, f.nBits())
}

func estimateFPR(k int, n, mBits uint64) float64 {
	if n == 0 {
		return 0
	}
	return math.Pow(1-math.Exp(-float64(k)*float64(n)/float64(mBits)), float64(k))
}

// Marshal serializes the filter. Layout:
//
//	magic "BLF1" | k uint32 | nAdded uint64 | nBytes uint64 | bits
func (f *Filter) Marshal() []byte {
	out := make([]byte, 4+4+8+8+len(f.bits))
	copy(out, "BLF1")
	binary.LittleEndian.PutUint32(out[4:], uint32(f.k))
	binary.LittleEndian.PutUint64(out[8:], f.nAdded)
	binary.LittleEndian.PutUint64(out[16:], uint64(len(f.bits)))
	copy(out[24:], f.bits)
	return out
}

// Unmarshal reconstructs a filter serialized by Marshal.
func Unmarshal(data []byte) (*Filter, error) {
	if len(data) < 24 || string(data[:4]) != "BLF1" {
		return nil, fmt.Errorf("bloom: bad filter header")
	}
	k := int(binary.LittleEndian.Uint32(data[4:]))
	nAdded := binary.LittleEndian.Uint64(data[8:])
	n := binary.LittleEndian.Uint64(data[16:])
	if uint64(len(data)-24) < n {
		return nil, fmt.Errorf("bloom: truncated filter: have %d bytes, want %d", len(data)-24, n)
	}
	if n < 64 || n&(n-1) != 0 {
		return nil, fmt.Errorf("bloom: invalid filter size %d", n)
	}
	if k <= 0 || k > 32 {
		return nil, fmt.Errorf("bloom: invalid hash count %d", k)
	}
	f := &Filter{bits: append([]byte(nil), data[24:24+n]...), k: k, nAdded: nAdded}
	return f, nil
}
