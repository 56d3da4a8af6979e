package core

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"github.com/backlogfs/backlog/internal/lsm"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := FromRec{Ref: Ref{Block: 100, Inode: 2, Offset: 0, Line: 0, Length: 1}, From: 4}
	if got := DecodeFrom(EncodeFrom(f)); got != f {
		t.Fatalf("From round trip: %+v", got)
	}
	to := ToRec{Ref: Ref{Block: 101, Inode: 2, Offset: 1, Line: 0, Length: 1}, To: 7}
	if got := DecodeTo(EncodeTo(to)); got != to {
		t.Fatalf("To round trip: %+v", got)
	}
	c := CombinedRec{Ref: Ref{Block: 103, Inode: 4, Offset: 0, Line: 3, Length: 2}, From: 10, To: 12}
	if got := DecodeCombined(EncodeCombined(c)); got != c {
		t.Fatalf("Combined round trip: %+v", got)
	}
}

func TestRecordSizes(t *testing.T) {
	if len(EncodeFrom(FromRec{})) != FromRecSize {
		t.Fatal("From record size")
	}
	if len(EncodeTo(ToRec{})) != ToRecSize {
		t.Fatal("To record size")
	}
	if len(EncodeCombined(CombinedRec{})) != CombinedSize {
		t.Fatal("Combined record size")
	}
}

// TestEncodingOrderMatchesComparator is the property that makes both the
// run format and the write store work: for the records of every table, the
// write-store comparator on the padded records, bytes.Compare on the
// encodings, and field order (identity, then the CP fields) all agree.
func TestEncodingOrderMatchesComparator(t *testing.T) {
	// Few distinct values force ties; large ones make byte order and word
	// order differ from the order of the values' low bytes.
	vals := []uint64{0, 1, 2, 255, 256, 1 << 32, 1 << 63, Infinity}
	fields := func(r *Ref, cps ...*uint64) []*uint64 {
		return append([]*uint64{&r.Block, &r.Inode, &r.Offset, &r.Line, &r.Length}, cps...)
	}
	// order draws both records' fields from vals, b's first tie of them
	// equal to a's, so that every field decides some comparisons; it
	// reports whether the comparator, bytes.Compare and field order agree.
	order := func(fa, fb []*uint64, tie uint8, enc func() ([]byte, []byte)) bool {
		var va, vb []uint64
		for j := range fa {
			*fa[j], *fb[j] = vals[*fa[j]%uint64(len(vals))], vals[*fb[j]%uint64(len(vals))]
			if j < int(tie)%(len(fa)+1) {
				*fb[j] = *fa[j]
			}
			va, vb = append(va, *fa[j]), append(vb, *fb[j])
		}
		ea, eb := enc()
		want := slices.Compare(va, vb) < 0
		return lessRec(wsRecOf(ea), wsRecOf(eb)) == want && (bytes.Compare(ea, eb) < 0) == want
	}
	from := func(a, b FromRec, tie uint8) bool {
		return order(fields(&a.Ref, &a.From), fields(&b.Ref, &b.From), tie,
			func() ([]byte, []byte) { return EncodeFrom(a), EncodeFrom(b) })
	}
	to := func(a, b ToRec, tie uint8) bool {
		return order(fields(&a.Ref, &a.To), fields(&b.Ref, &b.To), tie,
			func() ([]byte, []byte) { return EncodeTo(a), EncodeTo(b) })
	}
	combined := func(a, b CombinedRec, tie uint8) bool {
		return order(fields(&a.Ref, &a.From, &a.To), fields(&b.Ref, &b.From, &b.To), tie,
			func() ([]byte, []byte) { return EncodeCombined(a), EncodeCombined(b) })
	}
	for name, f := range map[string]any{"from": from, "to": to, "combined": combined} {
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestNextGroupSplitsOnEveryIdentityField: records that differ in any one
// identity field, Length included, are two owners, whichever tables hold
// them, and each group carries its records' CP fields.
func TestNextGroupSplitsOnEveryIdentityField(t *testing.T) {
	base := Ref{Block: 1, Inode: 2, Offset: 3, Line: 4, Length: 5}
	for j, field := range []*uint64{&base.Block, &base.Inode, &base.Offset, &base.Line, &base.Length} {
		lo := base
		*field++
		hi := base
		*field--
		streams := [3]recStream{
			{it: lsm.NewSliceIter([][]byte{EncodeFrom(FromRec{Ref: lo, From: 7})})},
			{it: lsm.NewSliceIter([][]byte{EncodeTo(ToRec{Ref: lo, To: 8}), EncodeTo(ToRec{Ref: hi, To: 9})})},
			{it: lsm.NewSliceIter([][]byte{EncodeCombined(CombinedRec{Ref: hi, From: 1, To: 2})})},
		}
		for i := range streams {
			if err := streams[i].advance(); err != nil {
				t.Fatal(err)
			}
		}
		var got []groupRecs
		for {
			g, ok, err := nextGroup(&streams[0], &streams[1], &streams[2])
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, g)
		}
		want := []groupRecs{
			{id: lo, froms: []uint64{7}, tos: []uint64{8}},
			{id: hi, tos: []uint64{9}, combineds: []interval{{from: 1, to: 2}}},
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("field %d: groups %+v, want %+v", j, got, want)
		}
	}
}

func TestJoinGroupPaperExample(t *testing.T) {
	// Section 4.2.1: block 103 of inode 4 allocated at 10, truncated at
	// 12, reallocated at 16, removed at 20; later allocated to inode 5 at
	// 30 (separate group).
	ivs := joinGroup([]uint64{10, 16}, []uint64{12, 20})
	want := []interval{{from: 10, to: 12}, {from: 16, to: 20}}
	if len(ivs) != len(want) {
		t.Fatalf("join = %+v", ivs)
	}
	ivs = dedupeIntervals(ivs)
	for i := range want {
		if ivs[i].from != want[i].from || ivs[i].to != want[i].to {
			t.Fatalf("join[%d] = %+v, want %+v", i, ivs[i], want[i])
		}
	}

	// The third From (inode 5) has no To: joins implicit infinity.
	ivs = joinGroup([]uint64{30}, nil)
	if len(ivs) != 1 || ivs[0].from != 30 || ivs[0].to != Infinity {
		t.Fatalf("open join = %+v", ivs)
	}

	// An unmatched To joins the implicit from = 0 (clone override,
	// Section 4.2.2).
	ivs = joinGroup(nil, []uint64{43})
	if len(ivs) != 1 || ivs[0].from != 0 || ivs[0].to != 43 {
		t.Fatalf("override join = %+v", ivs)
	}
}

func TestJoinGroupMixedOverride(t *testing.T) {
	// Inherited reference COWed at 5, re-added at 8, removed at 12,
	// re-added at 20 (still live).
	ivs := dedupeIntervals(joinGroup([]uint64{8, 20}, []uint64{5, 12}))
	want := []interval{{0, 5, false}, {8, 12, false}, {20, Infinity, false}}
	if len(ivs) != len(want) {
		t.Fatalf("join = %+v", ivs)
	}
	for i := range want {
		if ivs[i].from != want[i].from || ivs[i].to != want[i].to {
			t.Fatalf("join[%d] = %+v, want %+v", i, ivs[i], want[i])
		}
	}
}

// TestJoinGroupProperty: for random disjoint alloc/free event sequences,
// joining the shuffled tables reconstructs the original intervals.
func TestJoinGroupProperty(t *testing.T) {
	f := func(seed []byte) bool {
		// Build a plausible event history: alternating add/remove with
		// increasing CPs; maybe trailing open interval.
		cp := uint64(1)
		var froms, tos []uint64
		var want []interval
		for i := 0; i+1 < len(seed); i += 2 {
			f := cp + uint64(seed[i]%5)
			tv := f + 1 + uint64(seed[i+1]%5)
			froms = append(froms, f)
			tos = append(tos, tv)
			want = append(want, interval{from: f, to: tv})
			cp = tv + 1
		}
		if len(seed)%2 == 1 {
			froms = append(froms, cp)
			want = append(want, interval{from: cp, to: Infinity})
		}
		got := dedupeIntervals(joinGroup(froms, tos))
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].from != want[i].from || got[i].to != want[i].to {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
