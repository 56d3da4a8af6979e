package experiments

import (
	"fmt"
	"time"

	"github.com/backlogfs/backlog/internal/btrfssim"
	"github.com/backlogfs/backlog/internal/obs"
	"github.com/backlogfs/backlog/internal/wal"
)

// Table1Config parameterizes the btrfs benchmarks (Table 1).
type Table1Config struct {
	// MicroFiles is the file count for the create/delete microbenchmarks.
	MicroFiles int
	// DbenchOps, VarmailIters, PostmarkTx size the application workloads.
	DbenchOps    int
	VarmailIters int
	PostmarkTx   int
	Seed         int64
	// WriteShards configures the Backlog engine's write-store sharding
	// (0 = engine default of GOMAXPROCS).
	WriteShards int
	// Durability configures the Backlog engine's write-ahead logging
	// (default wal.CheckpointOnly, the paper's configuration — Table 1
	// numbers are only comparable to the paper in that mode).
	Durability wal.Durability
	// Metrics, if non-nil, registers each Backlog-mode engine's metrics
	// — btrfsbench's -debug-addr serves them live during a run.
	Metrics *obs.Registry
}

// DefaultTable1Config returns the scaled default.
func DefaultTable1Config() Table1Config {
	return Table1Config{
		MicroFiles:   8192,
		DbenchOps:    20000,
		VarmailIters: 3000,
		PostmarkTx:   20000,
		Seed:         1,
	}
}

// Table1Row is one benchmark across the three configurations. Values are
// ms/op for microbenchmarks and throughput (MB/s or ops/s) for the
// application benchmarks; Unit says which.
type Table1Row struct {
	Name     string
	Unit     string
	Base     float64
	Original float64
	Backlog  float64
	// OverheadPct is Backlog's overhead relative to Base, oriented so
	// that positive = Backlog worse, matching the paper's Overhead
	// column.
	OverheadPct float64
}

// RunTable1 executes every row of Table 1.
func RunTable1(cfg Table1Config) ([]Table1Row, error) {
	var rows []Table1Row
	type spec struct {
		name    string
		unit    string
		higher  bool // true when larger values are better (throughput)
		measure func(mode btrfssim.Mode) (float64, error)
	}
	newFS := func(mode btrfssim.Mode, opsPerTx int) (*btrfssim.FS, error) {
		return btrfssim.New(btrfssim.Config{Mode: mode, OpsPerTransaction: opsPerTx, WriteShards: cfg.WriteShards, Durability: cfg.Durability, Metrics: cfg.Metrics})
	}
	msPerOp := func(fs *btrfssim.FS, start time.Time, startDisk int64, ops int) float64 {
		elapsed := time.Since(start).Nanoseconds() + fs.VFS().Stats().DiskNanos - startDisk
		return float64(elapsed) / 1e6 / float64(ops)
	}

	micro := func(name string, opsPerTx, sizeBlocks int, del bool) spec {
		return spec{
			name: name, unit: "ms/op",
			measure: func(mode btrfssim.Mode) (float64, error) {
				fs, err := newFS(mode, opsPerTx)
				if err != nil {
					return 0, err
				}
				defer fs.Close()
				if !del {
					start := time.Now()
					d0 := fs.VFS().Stats().DiskNanos
					if _, err := btrfssim.RunCreateFiles(fs, cfg.MicroFiles, sizeBlocks); err != nil {
						return 0, err
					}
					return msPerOp(fs, start, d0, cfg.MicroFiles), nil
				}
				inos, err := btrfssim.RunCreateFiles(fs, cfg.MicroFiles, sizeBlocks)
				if err != nil {
					return 0, err
				}
				start := time.Now()
				d0 := fs.VFS().Stats().DiskNanos
				if err := btrfssim.RunDeleteFiles(fs, inos); err != nil {
					return 0, err
				}
				return msPerOp(fs, start, d0, cfg.MicroFiles), nil
			},
		}
	}

	specs := []spec{
		micro("Creation of a 4 KB file (2048 ops. per CP)", 2048, 1, false),
		micro("Creation of a 64 KB file (2048 ops. per CP)", 2048, 16, false),
		micro("Deletion of a 4 KB file (2048 ops. per CP)", 2048, 1, true),
		micro("Creation of a 4 KB file (8192 ops. per CP)", 8192, 1, false),
		micro("Creation of a 64 KB file (8192 ops. per CP)", 8192, 16, false),
		micro("Deletion of a 4 KB file (8192 ops. per CP)", 8192, 1, true),
		{
			name: "DBench CIFS workload, 4 users", unit: "MB/s", higher: true,
			measure: func(mode btrfssim.Mode) (float64, error) {
				fs, err := newFS(mode, 2048)
				if err != nil {
					return 0, err
				}
				defer fs.Close()
				start := time.Now()
				d0 := fs.VFS().Stats().DiskNanos
				bytes, err := btrfssim.RunDbench(fs, cfg.DbenchOps, cfg.Seed)
				if err != nil {
					return 0, err
				}
				elapsed := time.Since(start).Nanoseconds() + fs.VFS().Stats().DiskNanos - d0
				return float64(bytes) / (1 << 20) / (float64(elapsed) / 1e9), nil
			},
		},
		{
			name: "FileBench /var/mail, 16 threads", unit: "ops/s", higher: true,
			measure: func(mode btrfssim.Mode) (float64, error) {
				fs, err := newFS(mode, 2048)
				if err != nil {
					return 0, err
				}
				defer fs.Close()
				start := time.Now()
				d0 := fs.VFS().Stats().DiskNanos
				ops, err := btrfssim.RunVarmail(fs, 16, cfg.VarmailIters, cfg.Seed)
				if err != nil {
					return 0, err
				}
				elapsed := time.Since(start).Nanoseconds() + fs.VFS().Stats().DiskNanos - d0
				return float64(ops) / (float64(elapsed) / 1e9), nil
			},
		},
		{
			name: "PostMark", unit: "ops/s", higher: true,
			measure: func(mode btrfssim.Mode) (float64, error) {
				fs, err := newFS(mode, 2048)
				if err != nil {
					return 0, err
				}
				defer fs.Close()
				start := time.Now()
				d0 := fs.VFS().Stats().DiskNanos
				tx, err := btrfssim.RunPostmark(fs, cfg.MicroFiles/8, cfg.PostmarkTx, cfg.Seed)
				if err != nil {
					return 0, err
				}
				elapsed := time.Since(start).Nanoseconds() + fs.VFS().Stats().DiskNanos - d0
				return float64(tx) / (float64(elapsed) / 1e9), nil
			},
		},
	}

	for _, s := range specs {
		row := Table1Row{Name: s.name, Unit: s.unit}
		var err error
		if row.Base, err = s.measure(btrfssim.ModeBase); err != nil {
			return nil, fmt.Errorf("%s base: %w", s.name, err)
		}
		if row.Original, err = s.measure(btrfssim.ModeOriginal); err != nil {
			return nil, fmt.Errorf("%s original: %w", s.name, err)
		}
		if row.Backlog, err = s.measure(btrfssim.ModeBacklog); err != nil {
			return nil, fmt.Errorf("%s backlog: %w", s.name, err)
		}
		if row.Base > 0 {
			if s.higher {
				row.OverheadPct = 100 * (row.Base - row.Backlog) / row.Base
			} else {
				row.OverheadPct = 100 * (row.Backlog - row.Base) / row.Base
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}
