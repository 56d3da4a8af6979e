package core

import (
	"fmt"

	"github.com/backlogfs/backlog/internal/btree"
)

// This file holds the compression knob and the measurement side of the
// paper's compression direction (Section 8): "Our tables of back reference
// records appear to be highly compressible, especially if we compress
// them by columns." Runs are actually stored column-delta encoded when
// Options.Compression is CompressionDelta (the default; see
// btree.FormatDelta), and EstimateCompression projects the effect for
// databases still holding runs in an older format — raw v1, or the v2
// delta encoding that spent a byte on every unchanged column — using the
// same btree codec the writer uses, so the estimate and the actual encoded
// size cannot drift.

// Compression selects the on-disk run format; see Options.Compression.
type Compression int

const (
	// CompressionDelta (the default) writes format-v3 runs: each leaf
	// record flags the columns that differ from the previous record and
	// carries their delta + zigzag + LEB128 varints only, restarting at
	// every 4 KB page boundary.
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
	// PerColumnBytes breaks the compressed size down: one entry per column
	// (block, inode, offset, line, length, cp fields...) and a last one
	// for the records' presence bitmaps. The entries sum to
	// CompressedBytes.
	PerColumnBytes []int64
}

// EstimateCompression streams all runs of the named table (TableFrom,
// TableTo, or TableCombined) and computes the leaf-payload size their
// records would occupy under the v3 column-delta encoding, page restarts
// included. Runs are already sorted, so consecutive records share long key
// prefixes and the per-column deltas are small — exactly the property the
// paper expects to exploit.
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

	sim, err := btree.NewDeltaEstimator(rs)
	if err != nil {
		return CompressionEstimate{}, err
	}
	for p := 0; p < e.db.Partitions(); p++ {
		it, err := v.MergedIter(table, p)
		if err != nil {
			return CompressionEstimate{}, err
		}
		// Each partition's runs are encoded independently.
		sim.Restart()
		for {
			rec, ok, err := it.Next()
			if err != nil {
				return CompressionEstimate{}, err
			}
			if !ok {
				break
			}
			sim.Add(rec)
		}
	}
	est := CompressionEstimate{
		Table:           table,
		Records:         sim.Records(),
		RawBytes:        int64(sim.Records()) * int64(rs),
		CompressedBytes: int64(sim.EncodedBytes()),
	}
	for _, b := range sim.PerColumnBytes() {
		est.PerColumnBytes = append(est.PerColumnBytes, int64(b))
	}
	if est.CompressedBytes > 0 {
		est.Ratio = float64(est.RawBytes) / float64(est.CompressedBytes)
	}
	return est, nil
}

// zigzag and varintLen delegate to the shared btree codec, kept as local
// names for the estimator's unit tests.
func zigzag(v int64) uint64 { return btree.Zigzag(v) }

// varintLen returns the LEB128 length of v.
func varintLen(v uint64) int { return btree.VarintLen(v) }
