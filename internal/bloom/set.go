package bloom

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// setMagic names the exact-set encoding.
const setMagic = "BLS1"

// setHeaderLen is the length of an exact set's header:
//
//	magic "BLS1" | layout uint8 | 3 zero bytes | n uint64 | first uint64 | span uint64
//
// n is the key count, first the smallest key and span the largest key
// less first, so a range of 2^64 blocks is written. The payload is exactly
// as long as its layout makes n keys over span+1 blocks, and every bit
// past its last key is clear: a set's bytes are canonical.
const setHeaderLen = 32

// appendSetHeader appends a set's header to dst.
func appendSetHeader(dst []byte, layout byte, n, first, span uint64) []byte {
	dst = append(append(dst, setMagic...), layout, 0, 0, 0)
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(dst, n), first), span)
}

// The layouts of an exact set's payload, its header's fifth byte.
const (
	// layoutBitmap is span+1 bits: bit v is set when first+v is a key.
	layoutBitmap = 0
	// layoutEliasFano is the keys less first as an Elias–Fano list: the
	// low l bits of each, packed, then the upper bits, where the i-th key
	// sets bit i + (its value >> l). l is lowWidth(n, span).
	layoutEliasFano = 1
)

// sampleEvery is how many zeros of an Elias–Fano list's upper bits lie
// between two entries of its select sample.
const sampleEvery = 32

// exactSet is an immutable set of keys in [first, first+span]: a bitmap or
// an Elias–Fano list.
type exactSet struct {
	layout      byte
	n           uint64
	first, span uint64
	// l is the Elias–Fano low-bit width, lowMask its mask.
	l       uint
	lowMask uint64
	// upper is the bitmap, or the upper bits of an Elias–Fano list, whose
	// packed low bits low holds. A list's two parts each have two zero
	// words past their last bit, so that 64 bits from any bit can be read.
	low, upper []uint64
	// sample[j] is the position in upper of its zero number
	// j*sampleEvery, and bit h of occupied is set when some key's upper
	// bits are h (Elias–Fano; buildIndex).
	sample   []uint32
	occupied []uint64
}

// lowWidth is the low-bit width of an Elias–Fano list of n keys over
// span+1 values: ⌊log2(span/n)⌋, or 0 when the keys are that dense.
func lowWidth(n, span uint64) uint {
	if q := span / n; q > 0 {
		return uint(bits.Len64(q) - 1)
	}
	return 0
}

// bitmapBytes is a bitmap's payload over span+1 values.
func bitmapBytes(span uint64) uint64 { return span/8 + 1 }

// efBits returns the low-bit width of an Elias–Fano list of n keys over
// span+1 values, and how many bits its low and upper parts take. The upper
// bits are fewer than 3n+2, since span>>l < 2(n+1).
func efBits(n, span uint64) (l uint, lowBits, upperBits uint64) {
	l = lowWidth(n, span)
	return l, n * uint64(l), n + span>>l
}

// efBytes is an Elias–Fano list's payload, or MaxUint64 for a list whose
// upper bits a uint32 select sample cannot address.
func efBytes(n, span uint64) uint64 {
	if n > math.MaxUint32 {
		return math.MaxUint64
	}
	_, lowBits, upperBits := efBits(n, span)
	if upperBits > math.MaxUint32 {
		return math.MaxUint64
	}
	return (lowBits+7)/8 + (upperBits+7)/8
}

// SetSize returns the bytes Marshal gives the exact set of n distinct keys
// from first to last, in the smaller of its layouts.
func SetSize(n int, first, last uint64) uint64 {
	span := last - first
	return setHeaderLen + min(bitmapBytes(span), efBytes(uint64(n), span))
}

// FilterSize returns the bytes Marshal gives the BLF2 filter New(sizeBytes, k)
// makes.
func FilterSize(sizeBytes int) uint64 {
	return headerLen + uint64(max(sizeBytes, minBytes))
}

// SetBuilder builds an exact set from its keys, given ascending. It
// writes each key's bits in place, the packed low bits a word at a time.
type SetBuilder struct {
	f    *Filter
	acc  uint64 // the fill low bits not yet stored
	fill uint
	w    int    // the low word acc goes to
	i    uint64 // keys added
}

// NewSet returns the builder of the exact set of the n distinct keys from
// first to last, in the smaller of its layouts (the bitmap on a tie). It
// allocates the filter and its words; Filter allocates an Elias–Fano
// list's index (buildIndex).
func NewSet(n int, first, last uint64) SetBuilder {
	layout := byte(layoutEliasFano)
	if span := last - first; bitmapBytes(span) <= efBytes(uint64(n), span) {
		layout = layoutBitmap
	}
	return newSet(layout, uint64(n), first, last-first)
}

func newSet(layout byte, n, first, span uint64) SetBuilder {
	f := &Filter{exact: true, set: exactSet{layout: layout, n: n, first: first, span: span}}
	s := &f.set
	if layout == layoutBitmap {
		s.upper = make([]uint64, span/64+1)
		return SetBuilder{f: f}
	}
	l, lowBits, upperBits := efBits(n, span)
	words := make([]uint64, lowBits/64+2+upperBits/64+2)
	s.l, s.lowMask = l, 1<<l-1
	s.low, s.upper = words[:lowBits/64+2], words[lowBits/64+2:]
	return SetBuilder{f: f}
}

// Add adds the next key.
func (b *SetBuilder) Add(key uint64) {
	s := &b.f.set
	v := key - s.first
	if s.layout == layoutBitmap {
		s.upper[v>>6] |= 1 << (v & 63)
		return
	}
	if s.l > 0 {
		lo := v & s.lowMask
		b.acc |= lo << b.fill
		if b.fill += s.l; b.fill >= 64 {
			s.low[b.w] = b.acc
			b.w++
			b.fill -= 64
			b.acc = lo >> (s.l - b.fill) // 0 when nothing is left over
		}
	}
	p := v>>s.l + b.i
	s.upper[p>>6] |= 1 << (p & 63)
	b.i++
}

// Filter returns the set, once every key is in.
func (b *SetBuilder) Filter() *Filter {
	if s := &b.f.set; s.layout == layoutEliasFano {
		if b.fill > 0 {
			s.low[b.w] = b.acc
		}
		s.buildIndex()
	}
	return b.f
}

// buildIndex makes what an Elias–Fano probe reads besides the list: the
// select sample, where every sampleEvery-th zero of the upper bits lies
// (they hold span>>l zeros before their last one), and the occupied
// buckets, one bit a bucket. It lives only in memory.
func (s *exactSet) buildIndex() {
	s.sample = make([]uint32, (s.span>>s.l+sampleEvery-1)/sampleEvery)
	s.occupied = make([]uint64, s.span>>s.l/64+1)
	j, ones, zeros := 0, uint64(0), uint64(0) // entries made, bits before the word
	for wi, w := range s.upper {
		at := uint64(wi) * 64
		for o := w; o != 0; o &= o - 1 {
			h := at + uint64(bits.TrailingZeros64(o)) - ones // key number ones's upper bits
			s.occupied[h>>6] |= 1 << (h & 63)
			ones++
		}
		z := ^w
		c := uint64(bits.OnesCount64(z))
		for ; j < len(s.sample) && uint64(j)*sampleEvery < zeros+c; j++ {
			s.sample[j] = uint32(at + selectInWord(z, uint64(j)*sampleEvery-zeros))
		}
		zeros += c
		if ones == s.n && j == len(s.sample) {
			return
		}
	}
}

// selectInByte[b | r<<8] is the position of byte b's set bit number r.
var selectInByte = func() (t [8 << 8]uint8) {
	for b := range 256 {
		r := 0
		for p := range 8 {
			if b>>p&1 == 1 {
				t[b|r<<8] = uint8(p)
				r++
			}
		}
	}
	return t
}()

// selectInWord returns the position of w's set bit number r (from 0),
// which w must have. It is Vigna's broadword select: the bytes' running
// popcounts, compared with r all at once, name the byte, and a table the
// bit in it; no branch depends on w.
func selectInWord(w, r uint64) uint64 {
	const l8, h8 = 0x0101010101010101, 0x8080808080808080
	c := w - w>>1&0x5555555555555555
	c = c&0x3333333333333333 + c>>2&0x3333333333333333
	c = (c + c>>4) & 0x0f0f0f0f0f0f0f0f * l8 // byte i: the set bits of bytes 0 to i
	place := uint64(bits.OnesCount64(((r*l8|h8)-c)&h8)) * 8
	rank := r - (c<<8)>>place&0xff
	return place + uint64(selectInByte[w>>place&0xff|rank<<8])
}

// window returns the 64 upper bits from position p on.
func (s *exactSet) window(p uint64) uint64 {
	wi, off := p>>6, p&63
	return s.upper[wi]>>off | s.upper[wi+1]<<(63-off)<<1
}

// select0 returns the position of the upper bits' zero number k (from 0):
// from the sampled zero at or before it, 64 bits at a time, which at a
// zero in every two bits or more is almost always once.
func (s *exactSet) select0(k uint64) uint64 {
	p, r := uint64(s.sample[k/sampleEvery]), k%sampleEvery
	for {
		z := ^s.window(p)
		c := uint64(bits.OnesCount64(z))
		if r < c {
			return p + selectInWord(z, r)
		}
		p, r = p+64, r-c
	}
}

// lowAt returns the low bits of key number i.
func (s *exactSet) lowAt(i uint64) uint64 {
	p := i * uint64(s.l)
	w, off := p>>6, p&63
	return (s.low[w]>>off | s.low[w+1]<<(63-off)<<1) & s.lowMask
}

// contains reports whether key is in the set: a bit test for a bitmap; for
// an Elias–Fano list, a bit test of key's bucket, and when some key shares
// its upper bits, those keys lie between two zeros of the upper bits, which
// the select sample finds, and the low bits of those few are compared.
func (s *exactSet) contains(key uint64) bool {
	v := key - s.first
	if key < s.first || v > s.span {
		return false
	}
	if s.layout == layoutBitmap {
		return s.upper[v>>6]>>(v&63)&1 != 0
	}
	h := v >> s.l
	if s.occupied[h>>6]>>(h&63)&1 == 0 {
		return false // most absent keys, with no select
	}
	var p uint64 // the bucket of keys whose upper bits are h starts at p
	if h > 0 {
		p = s.select0(h-1) + 1
	}
	want := v & s.lowMask
	for i := p - h; s.upper[p>>6]>>(p&63)&1 != 0; i, p = i+1, p+1 {
		if lo := s.lowAt(i); lo >= want {
			return lo == want
		}
	}
	return false
}

// lowBytes is an Elias–Fano payload's low part, which the upper bits
// follow.
func (s *exactSet) lowBytes() uint64 { return (s.n*uint64(s.l) + 7) / 8 }

// payloadBytes is what the set's layout takes on disk.
func (s *exactSet) payloadBytes() uint64 {
	if s.layout == layoutBitmap {
		return bitmapBytes(s.span)
	}
	return efBytes(s.n, s.span)
}

func (s *exactSet) marshal() []byte {
	out := appendSetHeader(make([]byte, 0, setHeaderLen+s.payloadBytes()), s.layout, s.n, s.first, s.span)
	out = out[:cap(out)]
	p := out[setHeaderLen:]
	if s.layout == layoutEliasFano {
		putWords(p[:s.lowBytes()], s.low)
		p = p[s.lowBytes():]
	}
	putWords(p, s.upper)
	return out
}

// putWords writes the little-endian bytes of words that dst has room for.
func putWords(dst []byte, words []uint64) {
	var w [8]byte
	for i := 0; i < len(dst); i += 8 {
		binary.LittleEndian.PutUint64(w[:], words[i/8])
		copy(dst[i:], w[:])
	}
}

// wordAt returns the little-endian word at byte i of b, zeros past its end.
func wordAt(b []byte, i uint64) uint64 {
	if i+8 <= uint64(len(b)) {
		return binary.LittleEndian.Uint64(b[i:])
	}
	var w [8]byte
	copy(w[:], b[i:])
	return binary.LittleEndian.Uint64(w[:])
}

// words returns b as the little-endian words of a slice with pad zero
// words past its last byte.
func words(b []byte, pad int) []uint64 {
	out := make([]uint64, len(b)/8+pad)
	for i := 0; i*8 < len(b); i++ {
		out[i] = wordAt(b, uint64(i)*8)
	}
	return out
}

// unmarshalSet decodes an exact set. Everything is checked against the
// bytes before anything is allocated: the header's numbers, the payload's
// length against the one its layout gives n keys over span+1 blocks, a bitmap's popcount and end bits,
// and that an Elias–Fano list's upper bits hold n ones spelling keys that
// ascend strictly from first to first+span. So a set decoded from hostile
// bytes holds first and first+span and never has a key outside them.
func unmarshalSet(data []byte) (*Filter, error) {
	if len(data) < setHeaderLen {
		return nil, fmt.Errorf("bloom: an exact set of %d bytes", len(data))
	}
	layout := data[4]
	n := binary.LittleEndian.Uint64(data[8:])
	first := binary.LittleEndian.Uint64(data[16:])
	span := binary.LittleEndian.Uint64(data[24:])
	payload := data[setHeaderLen:]
	size := uint64(len(payload))
	if data[5]|data[6]|data[7] != 0 {
		return nil, fmt.Errorf("bloom: an exact set's reserved bytes are % x", data[5:8])
	}
	switch {
	case layout > layoutEliasFano:
		return nil, fmt.Errorf("bloom: exact-set layout %d", layout)
	case n == 0 || n-1 > span:
		return nil, fmt.Errorf("bloom: an exact set of %d keys over %d+1 blocks", n, span)
	case first+span < first:
		return nil, fmt.Errorf("bloom: an exact set from block %d spanning %d more", first, span)
	case layout == layoutBitmap && size != bitmapBytes(span):
		return nil, fmt.Errorf("bloom: a bitmap of %d bytes over %d+1 blocks", size, span)
	case layout == layoutEliasFano && (n > 8*size || size != efBytes(n, span)):
		return nil, fmt.Errorf("bloom: an Elias–Fano list of %d bytes for %d keys over %d+1 blocks", size, n, span)
	}
	set := exactSet{layout: layout, n: n, first: first, span: span}
	if layout == layoutBitmap {
		if err := checkBitmap(payload, n, span); err != nil {
			return nil, err
		}
		set.upper = words(payload, 1)
	} else {
		set.l = lowWidth(n, span)
		set.lowMask = 1<<set.l - 1
		low, upper := payload[:set.lowBytes()], payload[set.lowBytes():]
		if err := checkEliasFano(low, upper, n, span, set.l); err != nil {
			return nil, err
		}
		set.low, set.upper = words(low, 2), words(upper, 2)
		set.buildIndex()
	}
	return &Filter{exact: true, set: set}, nil
}

// checkBitmap holds a bitmap over span+1 blocks to its key count: n bits
// set, the first and the last of them, none past the last.
func checkBitmap(b []byte, n, span uint64) error {
	var ones uint64
	for i := uint64(0); i < uint64(len(b)); i += 8 {
		ones += uint64(bits.OnesCount64(wordAt(b, i)))
	}
	last := b[len(b)-1] >> (span & 7)
	switch {
	case ones != n:
		return fmt.Errorf("bloom: a bitmap of %d keys sets %d bits", n, ones)
	case b[0]&1 == 0 || last&1 == 0:
		return fmt.Errorf("bloom: a bitmap whose first or last block is clear")
	case last>>1 != 0:
		return fmt.Errorf("bloom: a bitmap with bits past its last block")
	}
	return nil
}

// checkEliasFano holds an Elias–Fano list to its header: exactly n ones in
// the upper bits, spelling keys that ascend strictly from 0 to span, and
// no low bit past the last key's.
func checkEliasFano(low, upper []byte, n, span uint64, l uint) error {
	var i, prev uint64
	for at := uint64(0); at < uint64(len(upper)); at += 8 {
		for w := wordAt(upper, at); w != 0; w &= w - 1 {
			if i == n {
				return fmt.Errorf("bloom: an Elias–Fano list of %d keys with more ones in its upper bits", n)
			}
			h := at*8 + uint64(bits.TrailingZeros64(w)) - i
			if h > span>>l {
				return fmt.Errorf("bloom: an Elias–Fano list with a key past its last block")
			}
			v := h<<l | bitsAt(low, i*uint64(l), l)
			switch {
			case v > span:
				return fmt.Errorf("bloom: an Elias–Fano list with a key past its last block")
			case i == 0 && v != 0:
				return fmt.Errorf("bloom: an Elias–Fano list whose first key is not its first block")
			case i > 0 && v <= prev:
				return fmt.Errorf("bloom: an Elias–Fano list whose keys do not ascend")
			}
			prev = v
			i++
		}
	}
	switch {
	case i != n:
		return fmt.Errorf("bloom: an Elias–Fano list of %d keys with %d ones in its upper bits", n, i)
	case prev != span:
		return fmt.Errorf("bloom: an Elias–Fano list whose last key is not its last block")
	case n*uint64(l)&7 != 0 && low[len(low)-1]>>(n*uint64(l)&7) != 0:
		return fmt.Errorf("bloom: an Elias–Fano list with low bits past its last key")
	}
	return nil
}

// bitsAt returns the width-bit field at bit offset at of b, which holds
// it.
func bitsAt(b []byte, at uint64, width uint) uint64 {
	if width == 0 {
		return 0
	}
	i, s := at>>3, uint(at&7)
	v := wordAt(b, i) >> s
	if s+width > 64 {
		v |= uint64(b[i+8]) << (64 - s)
	}
	return v & (1<<width - 1)
}
