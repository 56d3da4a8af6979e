// Package bloom implements the Bloom filters Backlog attaches to every
// read-store run (paper Section 5.1).
//
// Query processing consults the filter of each run before opening it, so
// queries touch only runs that may contain the requested physical block.
// The paper's operating point is four hash functions and 8 bits per key: a
// 32 KB filter for a run of 32,000 operations, ≈2.4 % false positives.
// The paper grows only the Combined read store's filter; here every run's
// filter is sized by its keys, so a compacted From run keeps the 2.4 %
// target too.
//
// A filter has one of two encodings, and Unmarshal reads both:
//
//   - BLF2, which a delta run carries, may be any length of at least 8
//     bytes: the run builder gives it one byte per distinct block, capped.
//     A probe position is the multiply-shift reduction (Lemire) of the
//     double hash to the filter's bits.
//   - BLF1, which a raw run carries, is a power of two of at least 64
//     bytes, and a probe position is the double hash's low bits. Its size
//     is the paper's rule: a power of two for the records the run expects,
//     halved while its keys still meet 2.4 % ("If an RS contains a smaller
//     number of records, we appropriately shrink its Bloom filter"), which
//     Pow2Bytes computes directly.
//
// A probe takes its encoding's loop once, not a branch per position.
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

// targetFPR is the paper's false-positive target, which 8 bits per key
// with four hashes meets.
const targetFPR = 0.024

// minBytes is the smallest BLF2 filter.
const minBytes = 8

const headerLen = 24

// Filter is a classic Bloom filter over uint64 keys. The zero value is not
// usable; construct with New or NewPow2.
type Filter struct {
	bits   []byte
	k      int
	nAdded uint64
	nbits  uint64
	pow2   bool // BLF1
}

// New returns an empty BLF2 filter of sizeBytes bytes (at least minBytes).
func New(sizeBytes, hashes int) *Filter {
	return newFilter(max(sizeBytes, minBytes), hashes, false)
}

// NewPow2 returns an empty BLF1 filter: sizeBytes rounded up to a power of
// two, at least 64 bytes.
func NewPow2(sizeBytes, hashes int) *Filter {
	return newFilter(pow2Bytes(sizeBytes), hashes, true)
}

func newFilter(sizeBytes, hashes int, pow2 bool) *Filter {
	if hashes <= 0 {
		hashes = DefaultHashes
	}
	return shaped(make([]byte, sizeBytes), hashes, 0, pow2)
}

// shaped returns the filter over b.
func shaped(b []byte, k int, nAdded uint64, pow2 bool) *Filter {
	return &Filter{bits: b, k: k, nAdded: nAdded, nbits: uint64(len(b)) * 8, pow2: pow2}
}

func pow2Bytes(n int) int {
	if n <= 64 {
		return 64
	}
	return 1 << bits.Len(uint(n-1))
}

// Pow2Bytes returns the size of a raw run's BLF1 filter for n distinct
// keys when the run was expected to hold expect records: the power of two
// NewPow2 makes of min(expect, maxBytes) (MaxFilterBytes if maxBytes <= 0),
// halved while the half keeps n keys at targetFPR, down to 64 bytes. It is
// the size a filter built at that power of two and then folded in half
// while the target held would reach, with the same bits.
func Pow2Bytes(n, expect, maxBytes int) int {
	if maxBytes <= 0 {
		maxBytes = MaxFilterBytes
	}
	size := pow2Bytes(min(expect, maxBytes))
	for size > 64 && estimateFPR(DefaultHashes, uint64(n), uint64(size/2)*8) <= targetFPR {
		size /= 2
	}
	return size
}

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

// position reduces the double hash g to a bit of the filter.
func (f *Filter) position(g uint64) uint64 {
	if f.pow2 {
		return g & (f.nbits - 1)
	}
	hi, _ := bits.Mul64(g, f.nbits)
	return hi
}

// Add inserts a key.
func (f *Filter) Add(key uint64) {
	h1, h2 := hash2(key)
	for i := 0; i < f.k; i++ {
		bit := f.position(h1 + uint64(i)*h2)
		f.bits[bit>>3] |= 1 << (bit & 7)
	}
	f.nAdded++
}

// MayContain reports whether the key may have been added. False means
// definitely absent.
func (f *Filter) MayContain(key uint64) bool {
	h1, h2 := hash2(key)
	if f.pow2 {
		mask := f.nbits - 1
		for i := 0; i < f.k; i++ {
			bit := (h1 + uint64(i)*h2) & mask
			if f.bits[bit>>3]&(1<<(bit&7)) == 0 {
				return false
			}
		}
		return true
	}
	// At 8 bits a key about 39 % of a BLF2's bits are set, so a branch
	// per position would often mispredict: every position is read, the
	// reads independent of one another.
	in := byte(1)
	for i := 0; i < f.k; i++ {
		bit, _ := bits.Mul64(h1+uint64(i)*h2, f.nbits)
		in &= f.bits[bit>>3] >> (bit & 7)
	}
	return in&1 != 0
}

// Added returns the number of keys inserted.
func (f *Filter) Added() uint64 { return f.nAdded }

// SizeBytes returns the filter's bit-array size in bytes.
func (f *Filter) SizeBytes() int { return len(f.bits) }

// EstimatedFPR returns the expected false-positive probability given the
// number of keys added so far.
func (f *Filter) EstimatedFPR() float64 {
	return estimateFPR(f.k, f.nAdded, f.nbits)
}

func estimateFPR(k int, n, mBits uint64) float64 {
	if n == 0 {
		return 0
	}
	return math.Pow(1-math.Exp(-float64(k)*float64(n)/float64(mBits)), float64(k))
}

// Marshal serializes the filter. Layout, the magic naming the encoding:
//
//	magic "BLF1" or "BLF2" | k uint32 | nAdded uint64 | nBytes uint64 | bits
func (f *Filter) Marshal() []byte {
	out := make([]byte, headerLen+len(f.bits))
	copy(out, "BLF2")
	if f.pow2 {
		copy(out, "BLF1")
	}
	binary.LittleEndian.PutUint32(out[4:], uint32(f.k))
	binary.LittleEndian.PutUint64(out[8:], f.nAdded)
	binary.LittleEndian.PutUint64(out[16:], uint64(len(f.bits)))
	copy(out[headerLen:], f.bits)
	return out
}

// Unmarshal reconstructs a filter serialized by Marshal, in either
// encoding.
func Unmarshal(data []byte) (*Filter, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("bloom: a filter of %d bytes", len(data))
	}
	var pow2 bool
	switch string(data[:4]) {
	case "BLF1":
		pow2 = true
	case "BLF2":
	default:
		return nil, fmt.Errorf("bloom: bad filter header")
	}
	k := int(binary.LittleEndian.Uint32(data[4:]))
	nAdded := binary.LittleEndian.Uint64(data[8:])
	n := binary.LittleEndian.Uint64(data[16:])
	if uint64(len(data)-headerLen) < n {
		return nil, fmt.Errorf("bloom: truncated filter: have %d bytes, want %d", len(data)-headerLen, n)
	}
	if pow2 && (n < 64 || n&(n-1) != 0) || n < minBytes {
		return nil, fmt.Errorf("bloom: invalid %s filter size %d", data[:4], n)
	}
	if k <= 0 || k > 32 {
		return nil, fmt.Errorf("bloom: invalid hash count %d", k)
	}
	return shaped(append([]byte(nil), data[headerLen:headerLen+n]...), k, nAdded, pow2), nil
}
