package experiments

import (
	"fmt"
	"time"

	"github.com/backlogfs/backlog/internal/btree"
	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/storage"
)

// CompressConfig parameterizes the run-format experiment. It is not a
// paper figure: the paper only remarks (Section 8) that back-reference
// tables "appear to be highly compressible, especially if we compress
// them by columns". The experiment quantifies the format-v2 column-delta
// encoding against the paper's raw layout — two identical deterministic
// workloads, one per format, metered for on-disk size, checkpoint write
// bytes, and cold/warm point-query latency.
type CompressConfig struct {
	// CPs is the number of consistency points ingested.
	CPs int
	// OpsPerCP is the number of AddRef operations per consistency point.
	OpsPerCP int
	// Blocks is the physical block space.
	Blocks int
	// Queries is the number of point queries timed per cold/warm pass.
	Queries int
}

// DefaultCompressConfig returns the small-scale default.
func DefaultCompressConfig() CompressConfig {
	return CompressConfig{CPs: 10, OpsPerCP: 4000, Blocks: 1 << 14, Queries: 2000}
}

// CompressPoint is one format's measured costs.
type CompressPoint struct {
	Format string // "raw" or "delta"
	// TableBytes is the on-disk run size per table after compaction.
	TableBytes map[string]int64
	// RunBytes is the total on-disk size of all runs.
	RunBytes int64
	// CheckpointWriteBytes is the bytes written by the ingest phase's
	// checkpoints (the only disk writer under checkpoint-only durability).
	CheckpointWriteBytes int64
	// ColdQueryUS and WarmQueryUS are mean point-query latencies with the
	// page cache dropped and primed, respectively.
	ColdQueryUS float64
	WarmQueryUS float64
}

// CompressResult is the experiment's output.
type CompressResult struct {
	Points []CompressPoint
	// CombinedRatio is the raw format's Combined-table bytes divided by
	// the delta format's (the paper's "highly compressible" claim).
	CombinedRatio float64
	// TotalRatio is the same over all tables' runs.
	TotalRatio float64
	// WriteRatio compares checkpoint write bytes (raw / delta).
	WriteRatio float64
	// WarmSlowdown is delta's warm query latency over raw's — the price
	// of stream-decoding from a cached page's nearest restart point.
	WarmSlowdown float64
}

// compressRef is the deterministic reference for global op number op:
// a dense re-referenced region with a sparse far tail, so runs carry
// realistic per-column deltas rather than a single arithmetic
// progression.
func compressRef(cfg CompressConfig, op int) core.Ref {
	blk := uint64(op % cfg.Blocks)
	if op%7 == 0 {
		blk = uint64(cfg.Blocks) + uint64(op%(cfg.Blocks*16))
	}
	return core.Ref{
		Block:  blk,
		Inode:  uint64(2 + op%512),
		Offset: uint64(op % 4096),
		Line:   0,
		Length: 1,
	}
}

// compressWorkload ingests the deterministic workload into a fresh
// engine of the given format and measures it. Each consistency point
// adds OpsPerCP references, removes half of the previous CP's, and
// retains a snapshot — so compaction precomputes a populated Combined
// table (the removed references' intervals) alongside the live From
// residue, like a file system that overwrites under periodic snapshots.
func compressWorkload(cfg CompressConfig, comp core.Compression) (CompressPoint, error) {
	format := "delta"
	if comp == core.CompressionNone {
		format = "raw"
	}
	pt := CompressPoint{Format: format, TableBytes: map[string]int64{}}
	fs := storage.NewMemFS()
	cat := core.NewMemCatalog()
	eng, err := core.Open(core.Options{
		VFS:         fs,
		Catalog:     cat,
		Compression: comp,
		WriteShards: 1,
	})
	if err != nil {
		return pt, err
	}
	defer eng.Close()

	ingestFrom := fs.Stats()
	for cp := 1; cp <= cfg.CPs; cp++ {
		if err := cat.CreateSnapshot(0, uint64(cp)); err != nil {
			return pt, err
		}
		for i := 0; i < cfg.OpsPerCP; i++ {
			eng.AddRef(compressRef(cfg, (cp-1)*cfg.OpsPerCP+i), uint64(cp))
		}
		if cp > 1 {
			for i := 0; i < cfg.OpsPerCP; i += 2 {
				eng.RemoveRef(compressRef(cfg, (cp-2)*cfg.OpsPerCP+i), uint64(cp))
			}
		}
		if err := eng.Checkpoint(uint64(cp)); err != nil {
			return pt, err
		}
	}
	pt.CheckpointWriteBytes = fs.Stats().Sub(ingestFrom).BytesWritten

	// Compact so each format is measured on its steady state: merged runs
	// with the Combined table precomputed.
	if err := eng.Compact(); err != nil {
		return pt, err
	}
	for _, ri := range eng.RunInfos() {
		pt.TableBytes[ri.Table] += ri.SizeBytes
		pt.RunBytes += ri.SizeBytes
	}

	queryBlocks := make([]uint64, cfg.Queries)
	for i := range queryBlocks {
		queryBlocks[i] = uint64((i * 97) % cfg.Blocks)
	}
	timeQueries := func() (float64, error) {
		t0 := time.Now()
		for _, b := range queryBlocks {
			if _, err := eng.Query(b); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0).Microseconds()) / float64(len(queryBlocks)), nil
	}
	// Cold: drop the page cache.
	eng.ClearCaches()
	if pt.ColdQueryUS, err = timeQueries(); err != nil {
		return pt, err
	}
	// Warm: the same blocks again, served from cached (still encoded) pages.
	if pt.WarmQueryUS, err = timeQueries(); err != nil {
		return pt, err
	}
	return pt, nil
}

// RunCompress measures the raw and column-delta run formats on identical
// workloads.
func RunCompress(cfg CompressConfig) (CompressResult, error) {
	var res CompressResult
	raw, err := compressWorkload(cfg, core.CompressionNone)
	if err != nil {
		return res, fmt.Errorf("compress: %s: %w", btree.FormatRaw, err)
	}
	delta, err := compressWorkload(cfg, core.CompressionDelta)
	if err != nil {
		return res, fmt.Errorf("compress: %s: %w", btree.FormatDelta, err)
	}
	res.Points = []CompressPoint{raw, delta}
	if d := delta.TableBytes[core.TableCombined]; d > 0 {
		res.CombinedRatio = float64(raw.TableBytes[core.TableCombined]) / float64(d)
	}
	if delta.RunBytes > 0 {
		res.TotalRatio = float64(raw.RunBytes) / float64(delta.RunBytes)
	}
	if delta.CheckpointWriteBytes > 0 {
		res.WriteRatio = float64(raw.CheckpointWriteBytes) / float64(delta.CheckpointWriteBytes)
	}
	if raw.WarmQueryUS > 0 {
		res.WarmSlowdown = delta.WarmQueryUS / raw.WarmQueryUS
	}
	return res, nil
}
