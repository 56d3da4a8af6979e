package core

import (
	"fmt"

	"github.com/backlogfs/backlog/internal/btree"
	"github.com/backlogfs/backlog/internal/storage"
)

// This file holds the compression knob and the measurement side of the
// paper's compression direction (Section 8): "Our tables of back reference
// records appear to be highly compressible, especially if we compress
// them by columns." Runs are actually stored bit-packed by column when
// Options.Compression is CompressionDelta (the default; see
// btree.FormatDelta), and EstimateCompression sizes a migration to v5 for
// a database still holding runs in an older format — raw v1, or the v3 or
// v4 delta formats, which a maintenance pass rewrites — by running
// the run writer itself over a discarding file, so the projection is what
// a rewrite would write.

// Compression selects the on-disk run format; see Options.Compression.
type Compression int

const (
	// CompressionDelta (the default) writes format-v5 runs: each leaf
	// bit-packs its records, the block as a delta from the previous
	// record's and every other column as its offset from the page
	// minimum, at the width the column spans on the page.
	CompressionDelta Compression = iota
	// CompressionNone writes raw fixed-stride format-v1 runs — the paper's
	// original layout, and the pinned setting of the deterministic
	// paper-figure experiments.
	CompressionNone
)

// runFormat maps the knob onto the btree leaf format.
func (c Compression) runFormat() btree.Format {
	if c == CompressionNone {
		return btree.FormatRaw
	}
	return btree.FormatDelta
}

// String returns "delta" or "none".
func (c Compression) String() string {
	switch c {
	case CompressionDelta:
		return "delta"
	case CompressionNone:
		return "none"
	default:
		return fmt.Sprintf("compression(%d)", int(c))
	}
}

// CompressionEstimate reports the projected effect of column compression
// on one table.
type CompressionEstimate struct {
	Table           string
	Records         uint64
	RawBytes        int64
	CompressedBytes int64
	// Ratio is RawBytes / CompressedBytes (>1 means compressible).
	Ratio float64
}

// EstimateCompression streams each partition's merged records of the named
// table (TableFrom, TableTo, or TableCombined) through a FormatDelta run
// writer over a file that discards what it is given, and reports the pages
// those writers produce: header, leaves and index, one run per partition,
// Bloom filters excluded. RawBytes is the records' decoded size. Runs are
// already sorted, so consecutive records share long key prefixes and each
// column spans few bits on a page — exactly the property the paper expects
// to exploit. Its use is sizing a migration to v5: what the rewrite of a
// table still in raw or older delta runs would write, but for the header
// page, which a rewrite keeps only for its file's first section.
//
// The structural lock is held shared only long enough to pin a view (the
// query-path pattern); the scan itself — the expensive part — streams the
// pinned run set with no lock held, so writers and checkpoints never stall
// behind an estimate.
func (e *Engine) EstimateCompression(table string) (CompressionEstimate, error) {
	e.mu.RLock()
	if e.db.Table(table) == nil {
		e.mu.RUnlock()
		return CompressionEstimate{}, fmt.Errorf("core: unknown table %q", table)
	}
	rs := e.db.Table(table).RecordSize()
	v := e.db.AcquireView()
	e.mu.RUnlock()
	defer v.Release()

	est := CompressionEstimate{Table: table}
	sink := storage.NewMemFS()
	for p := 0; p < e.db.Partitions(); p++ {
		it, err := v.MergedIter(table, p)
		if err != nil {
			return CompressionEstimate{}, err
		}
		var w *btree.Writer // created on the partition's first record
		for {
			rec, ok, err := it.Next()
			if err != nil {
				return CompressionEstimate{}, err
			}
			if !ok {
				break
			}
			if w == nil {
				if w, err = btree.NewWriterFormat(sink.CreateSink(table), rs, btree.FormatDelta); err != nil {
					return CompressionEstimate{}, err
				}
			}
			if err := w.Append(rec); err != nil {
				return CompressionEstimate{}, err
			}
		}
		if w == nil {
			continue
		}
		if err := w.Finish(nil); err != nil {
			return CompressionEstimate{}, err
		}
		est.Records += w.Count()
		est.CompressedBytes += w.SizeBytes()
	}
	est.RawBytes = int64(est.Records) * int64(rs)
	if est.CompressedBytes > 0 {
		est.Ratio = float64(est.RawBytes) / float64(est.CompressedBytes)
	}
	return est, nil
}
