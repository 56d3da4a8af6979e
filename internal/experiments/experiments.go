// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6). Each experiment has a Config with paper-faithful
// defaults plus a scale knob, and returns structured series that
// cmd/fsimbench and cmd/btrfsbench print and that the root-level benchmarks
// assert on.
//
// Absolute numbers differ from the paper (the substrate is a simulator,
// not the authors' testbed); the shapes — flat maintenance overhead,
// sawtooth space overhead, query-performance cliffs by run length and
// staleness, Backlog ≈ native btrfs — are the reproduction targets.
// EXPERIMENTS.md records paper-vs-measured values for each experiment.
package experiments

import (
	"time"

	"github.com/backlogfs/backlog/internal/bloom"
	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/fsim"
	"github.com/backlogfs/backlog/internal/storage"
)

// Env bundles a simulated file system wired to a Backlog engine over a
// metered in-memory disk.
type Env struct {
	VFS *storage.MemFS
	Cat *core.MemCatalog
	Eng *core.Engine
	FS  *fsim.FS
}

// EnvConfig configures NewEnv.
type EnvConfig struct {
	DedupRate  float64
	Seed       int64
	CacheBytes int64
}

// NewEnv builds the standard experimental environment: MemFS with the
// paper's disk model, a Backlog engine with a 32 MB cache, and an fsim
// instance with 10% deduplication unless overridden.
func NewEnv(cfg EnvConfig) (*Env, error) {
	vfs := storage.NewMemFS()
	cat := core.NewMemCatalog()
	eng, err := core.Open(core.Options{
		VFS:        vfs,
		Catalog:    cat,
		CacheBytes: cfg.CacheBytes,
		// The paper's single write store. The figures assume one run per
		// table per consistency point, which a checkpoint writes at any
		// shard count; one shard spares the single-threaded drivers the
		// merge.
		WriteShards: 1,
		// Pinned off: the figures' space and I/O series assume the paper's
		// raw v1 run layout, and must stay byte-identical as the delta
		// default evolves.
		Compression: core.CompressionNone,
		// And the paper's fixed 32 KB From/To filter: by default a filter
		// grows with its run's keys up to the Combined table's 1 MB.
		BloomMaxBytes: bloom.DefaultFilterBytes,
	})
	if err != nil {
		return nil, err
	}
	fs := fsim.New(fsim.Config{
		Tracker:   eng,
		Catalog:   cat,
		DedupRate: cfg.DedupRate,
		Seed:      cfg.Seed,
	})
	return &Env{VFS: vfs, Cat: cat, Eng: eng, FS: fs}, nil
}

// measured captures wall time plus modeled disk time over a region.
type measured struct {
	start     time.Time
	statsFrom storage.Stats
	vfs       *storage.MemFS
}

func startMeasure(vfs *storage.MemFS) measured {
	return measured{start: time.Now(), statsFrom: vfs.Stats(), vfs: vfs}
}

// stop returns (cpuNanos, diskNanos, ioStats delta).
func (m measured) stop() (int64, int64, storage.Stats) {
	d := m.vfs.Stats().Sub(m.statsFrom)
	return time.Since(m.start).Nanoseconds(), d.DiskNanos, d
}
