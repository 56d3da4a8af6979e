package core

import (
	"fmt"
	"slices"

	"github.com/backlogfs/backlog/internal/btree"
	"github.com/backlogfs/backlog/internal/lsm"
	"github.com/backlogfs/backlog/internal/storage"
)

// This file holds the compression knob and the measurement side of the
// paper's compression direction (Section 8): "Our tables of back reference
// records appear to be highly compressible, especially if we compress
// them by columns." Runs are actually stored bit-packed by column when
// Options.Compression is CompressionDelta (the default; see
// btree.FormatDelta), and EstimateCompression sizes a migration to v6 for
// a database still holding runs in an older format — raw v1, or the v5
// delta format, which a maintenance pass rewrites — by running the
// run writer itself over a discarding file, laid out as a merge lays its
// file out, so the projection is what a rewrite would write.

// Compression selects the on-disk run format; see Options.Compression.
type Compression int

const (
	// CompressionDelta (the default) writes format-v6 runs: each leaf
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

// EstimateCompression projects the pages a rewrite into the current
// format would write for the named table (TableFrom, TableTo, or
// TableCombined): it streams each partition's merged records through the
// run writer as a merge lays them out — one FileWriter per partition over
// a file that discards what it is given, the tables its sections in From,
// To, Combined order — and reports the bytes of the named table's sections:
// the file's header if its section is the file's first, leaves, index and
// root, Bloom filters excluded. The tables before the named one are written
// too, since whether its section is the file's first depends on them; the
// tables after it cannot change its bytes and are not read. RawBytes is the
// records' decoded size. Runs are already sorted, so consecutive records
// share long key prefixes and each column spans few bits on a page —
// exactly the property the paper expects to exploit. Its use is sizing a
// migration to v6: what the rewrite of a table still in raw or older delta
// runs would write.
//
// The structural lock is held shared only long enough to pin a view (the
// query-path pattern); the scan itself — the expensive part — streams the
// pinned run set with no lock held, so writers and checkpoints never stall
// behind an estimate.
func (e *Engine) EstimateCompression(table string) (CompressionEstimate, error) {
	slot := slices.Index(tables[:], table)
	if slot < 0 {
		return CompressionEstimate{}, fmt.Errorf("core: unknown table %q", table)
	}
	e.mu.RLock()
	v := e.db.AcquireView()
	e.mu.RUnlock()
	defer v.Release()

	est := CompressionEstimate{Table: table}
	sink := storage.NewMemFS()
	for p := 0; p < e.db.Partitions(); p++ {
		fw := btree.NewFileWriter(sink.CreateSink(table), slot+1)
		var w *btree.Writer // the named table's section, if it has records
		for s, name := range tables[:slot+1] {
			sw, err := e.projectSection(v, fw, s, name, p)
			if err != nil {
				return CompressionEstimate{}, err
			}
			if s == slot {
				w = sw
			}
		}
		if w == nil {
			continue
		}
		if _, err := fw.Place(); err != nil {
			return CompressionEstimate{}, err
		}
		est.Records += w.Count()
		est.CompressedBytes += w.SizeBytes()
	}
	est.RawBytes = int64(est.Records) * int64(e.db.Table(table).RecordSize())
	if est.CompressedBytes > 0 {
		est.Ratio = float64(est.RawBytes) / float64(est.CompressedBytes)
	}
	return est, nil
}

// projectSection writes table's merged records of partition p as section
// slot of fw and seals it with no filter, or skips the slot and returns nil
// when the table has none there.
func (e *Engine) projectSection(v *lsm.View, fw *btree.FileWriter, slot int, table string, p int) (*btree.Writer, error) {
	it, err := v.MergedIter(table, p)
	if err != nil {
		return nil, err
	}
	var w *btree.Writer // created on the partition's first record
	for {
		rec, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if w == nil {
			if w, err = fw.Section(slot, e.db.Table(table).RecordSize(), btree.FormatDelta); err != nil {
				return nil, err
			}
		}
		if err := w.Append(rec); err != nil {
			return nil, err
		}
	}
	if w == nil {
		fw.Skip(slot)
		return nil, nil
	}
	return w, w.Finish(nil)
}
