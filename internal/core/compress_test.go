package core

import (
	"testing"
)

func TestCompressionEstimate(t *testing.T) {
	env := newTestEnv(t, Options{})
	e := env.eng
	// A realistic pattern: many files with sequential blocks, so sorted
	// records have tiny per-column deltas.
	cp := uint64(1)
	for f := uint64(0); f < 50; f++ {
		for b := uint64(0); b < 40; b++ {
			e.AddRef(Ref{Block: f*1000 + b, Inode: 100 + f, Offset: b, Line: 0, Length: 1}, cp)
		}
	}
	mustCheckpoint(t, e, cp)
	if err := env.cat.CreateSnapshot(0, cp); err != nil {
		t.Fatal(err)
	}
	// Remove half so the Combined table gets populated at compaction.
	cp = 2
	for f := uint64(0); f < 25; f++ {
		for b := uint64(0); b < 40; b++ {
			e.RemoveRef(Ref{Block: f*1000 + b, Inode: 100 + f, Offset: b, Line: 0, Length: 1}, cp)
		}
	}
	mustCheckpoint(t, e, cp)
	mustCompact(t, e)

	for _, table := range []string{TableFrom, TableCombined} {
		est, err := e.EstimateCompression(table)
		if err != nil {
			t.Fatal(err)
		}
		if est.Records == 0 {
			t.Fatalf("%s: no records", table)
		}
		if est.RawBytes != int64(est.Records)*int64(len(EncodeFrom(FromRec{}))) &&
			table == TableFrom {
			t.Fatalf("%s raw bytes mismatch: %d for %d records", table, est.RawBytes, est.Records)
		}
		// The paper's expectation: highly compressible by columns.
		if est.Ratio < 3 {
			t.Fatalf("%s: compression ratio %.2f, expected >= 3 (paper §8: highly compressible)", table, est.Ratio)
		}
		// One entry per column and a last one for the presence bitmaps, a
		// byte per record; together they are the whole payload.
		cols := int(est.RawBytes/int64(est.Records)) / 8
		if len(est.PerColumnBytes) != cols+1 || est.PerColumnBytes[cols] != int64(est.Records) {
			t.Fatalf("%s: per-column entries %v, want %d columns then %d bitmap bytes", table, est.PerColumnBytes, cols, est.Records)
		}
		var sum int64
		for _, c := range est.PerColumnBytes {
			sum += c
		}
		if sum != est.CompressedBytes {
			t.Fatalf("%s: per-column and bitmap bytes sum to %d != total %d", table, sum, est.CompressedBytes)
		}
	}

	if _, err := e.EstimateCompression("nope"); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestVarintZigzag(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 1}, {1, 1}, {-1, 1}, {63, 1}, {64, 2}, {-64, 1}, {-65, 2},
		{1 << 20, 4}, {-(1 << 20), 3}, // zigzag(-2^20) = 2^21-1: 3 bytes

	}
	for _, c := range cases {
		if got := varintLen(zigzag(c.v)); got != c.want {
			t.Errorf("varintLen(zigzag(%d)) = %d, want %d", c.v, got, c.want)
		}
	}
}
