package core

import (
	"testing"

	"github.com/backlogfs/backlog/internal/storage"
)

// TestCompressionEstimate: a table's projection is the pages the FormatDelta
// writer produces for the table's records, one file per partition with the
// tables as its sections — here those of the compacted runs themselves,
// which a whole merge wrote that way — and on a store large enough that
// the header, root and index pages are a small share of those pages the
// ratio is the paper's "highly compressible".
func TestCompressionEstimate(t *testing.T) {
	env := newTestEnv(t, Options{})
	e := env.eng
	// A realistic pattern: many files with sequential blocks, so sorted
	// records have tiny per-column deltas.
	const files, blocks = 64, 400
	cp := uint64(1)
	for f := uint64(0); f < files; f++ {
		for b := uint64(0); b < blocks; b++ {
			e.AddRef(Ref{Block: f*1000 + b, Inode: 100 + f, Offset: b, Line: 0, Length: 1}, cp)
		}
	}
	mustCheckpoint(t, e, cp)
	if err := env.cat.CreateSnapshot(0, cp); err != nil {
		t.Fatal(err)
	}
	// Remove half so the Combined table gets populated at compaction.
	cp = 2
	for f := uint64(0); f < files/2; f++ {
		for b := uint64(0); b < blocks; b++ {
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
		if est.Records != files/2*blocks {
			t.Fatalf("%s: %d records, want %d", table, est.Records, files/2*blocks)
		}
		rs := int64(e.db.Table(table).RecordSize())
		if est.RawBytes != int64(est.Records)*rs {
			t.Fatalf("%s raw bytes mismatch: %d for %d records", table, est.RawBytes, est.Records)
		}
		// The compacted table is one run per partition, a section of the
		// merge's file: its pages are its bytes less its filter.
		var pages int64
		v := e.db.AcquireView()
		for p := 0; p < e.db.Partitions(); p++ {
			for _, r := range v.Runs(table, p) {
				pages += r.SizeBytes() - int64(r.Header().FilterLen)
			}
		}
		v.Release()
		if est.CompressedBytes != pages {
			t.Fatalf("%s: projected %d bytes, the merge wrote %d", table, est.CompressedBytes, pages)
		}
		t.Logf("%s: %d records, %d raw bytes, %d projected, ratio %.2f", table, est.Records, est.RawBytes, est.CompressedBytes, est.Ratio)
		// The root and index pages are two of the eight pages here.
		if n := est.CompressedBytes / storage.PageSize; n < 8 {
			t.Fatalf("%s: projection of %d pages, want enough that two of them do not decide the ratio", table, n)
		}
		// The paper's expectation: highly compressible by columns.
		if est.Ratio < 3 {
			t.Fatalf("%s: compression ratio %.2f, expected >= 3 (paper §8: highly compressible)", table, est.Ratio)
		}
	}

	if _, err := e.EstimateCompression("nope"); err == nil {
		t.Fatal("unknown table accepted")
	}
}
