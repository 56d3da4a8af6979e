package core

import "github.com/backlogfs/backlog/internal/btree"

// Compression selects the on-disk run format; see Options.Compression.
// The paper's compression direction (Section 8): "Our tables of back
// reference records appear to be highly compressible, especially if we
// compress them by columns." Runs are stored bit-packed by column under
// CompressionDelta, the default (see btree.FormatDelta).
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
