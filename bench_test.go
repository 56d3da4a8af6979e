package backlog

// This file holds one testing.B benchmark per table/figure of the paper's
// evaluation, plus the two ablations the paper itself argues from
// (Section 4.1's naive baseline, Section 5.3's horizontal partitioning).
// Figure benches report their headline metric through b.ReportMetric;
// cmd/fsimbench and cmd/btrfsbench print the full series at larger scales.
// Everything else this tree measures is a row of `bash bench/run.sh`.

import (
	"fmt"
	"testing"

	"github.com/backlogfs/backlog/internal/btrfssim"
	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/experiments"
	"github.com/backlogfs/backlog/internal/naive"
	"github.com/backlogfs/backlog/internal/storage"
	"github.com/backlogfs/backlog/internal/workload"
)

// --- Figure 5: synthetic workload maintenance overhead ---

func BenchmarkFig5SyntheticOverhead(b *testing.B) {
	cfg := experiments.Fig5Config{CPs: 40, OpsPerCP: 1000, DedupRate: 0.10, Seed: 1, SampleEvery: 40}
	b.ReportAllocs()
	var writesPerOp, usPerOp float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Samples[len(res.Samples)-1]
		writesPerOp, usPerOp = last.WritesPerOp, last.TimePerOpUS
	}
	b.ReportMetric(writesPerOp, "writes/blockop")
	b.ReportMetric(usPerOp, "µs/blockop")
}

// --- Figure 6: space overhead with and without maintenance ---

func BenchmarkFig6SpaceOverhead(b *testing.B) {
	cfg := experiments.Fig5Config{CPs: 40, OpsPerCP: 1000, DedupRate: 0.10, Seed: 1, SampleEvery: 40}
	var noMaint, maint float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(cfg, []int{0, 10})
		if err != nil {
			b.Fatal(err)
		}
		noMaint = res.Series[0][len(res.Series[0])-1].SpacePct
		maint = res.Series[10][len(res.Series[10])-1].SpacePct
	}
	b.ReportMetric(noMaint, "spacePct_none")
	b.ReportMetric(maint, "spacePct_maint")
}

// --- Figure 7: NFS-trace maintenance overhead ---

func BenchmarkFig7TraceOverhead(b *testing.B) {
	cfg := experiments.Fig7Config{Hours: 24, OpsPerHour: 300, CPsPerHour: 3, DedupRate: 0.10, Seed: 42}
	var writesPerOp float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		var n int
		for _, s := range res.Samples {
			if s.BlockOps > 0 {
				sum += s.WritesPerOp
				n++
			}
		}
		writesPerOp = sum / float64(n)
	}
	b.ReportMetric(writesPerOp, "writes/blockop")
}

// --- Figure 8: NFS-trace space overhead ---

func BenchmarkFig8TraceSpace(b *testing.B) {
	cfg := experiments.Fig7Config{Hours: 24, OpsPerHour: 300, CPsPerHour: 3, DedupRate: 0.10, Seed: 42}
	var none, maint float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig8(cfg, []int{0, 6})
		if err != nil {
			b.Fatal(err)
		}
		none = res.Series[0][len(res.Series[0])-1].SpacePct
		maint = res.Series[6][len(res.Series[6])-1].SpacePct
	}
	b.ReportMetric(none, "spacePct_none")
	b.ReportMetric(maint, "spacePct_maint")
}

// --- Figure 9: query performance by run length and staleness ---

// fig9DB builds one query database per (staleness) configuration.
func fig9DB(b *testing.B, compacted bool) (*experiments.Env, []uint64) {
	b.Helper()
	env, err := experiments.NewEnv(experiments.EnvConfig{DedupRate: 0.10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewSynthetic(env.FS, workload.DefaultSyntheticConfig(800))
	for i := 0; i < 30; i++ {
		if _, _, err := gen.RunCP(); err != nil {
			b.Fatal(err)
		}
	}
	if compacted {
		if err := env.Eng.Compact(); err != nil {
			b.Fatal(err)
		}
	}
	return env, env.FS.AllocatedBlocks()
}

func benchQueries(b *testing.B, env *experiments.Env, blocks []uint64, runLength int) {
	b.Helper()
	env.Eng.ClearCaches()
	before := env.VFS.Stats()
	b.ResetTimer()
	idx := 0
	for i := 0; i < b.N; i++ {
		if i%runLength == 0 {
			idx = (idx + 7919) % len(blocks) // new run start
		}
		blk := blocks[(idx+i%runLength)%len(blocks)]
		if _, err := env.Eng.Query(blk); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	d := env.VFS.Stats().Sub(before)
	b.ReportMetric(float64(d.PageReads)/float64(b.N), "reads/query")
}

func BenchmarkFig9Query(b *testing.B) {
	for _, compacted := range []bool{false, true} {
		env, blocks := fig9DB(b, compacted)
		for _, rl := range []int{1, 100} {
			name := fmt.Sprintf("maintained=%v/run=%d", compacted, rl)
			b.Run(name, func(b *testing.B) {
				benchQueries(b, env, blocks, rl)
			})
		}
	}
}

// --- Figure 10: query performance before/after maintenance over time ---

func BenchmarkFig10QueryOverTime(b *testing.B) {
	cfg := experiments.Fig10Config{
		CPs: 20, MeasureEvery: 10, OpsPerCP: 400, Queries: 128,
		RunLengths: []int{64}, DedupRate: 0.10, Seed: 1,
	}
	var beforeQPS, afterQPS float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		beforeQPS = res.Before[len(res.Before)-1].QueriesPerSec
		afterQPS = res.After[len(res.After)-1].QueriesPerSec
	}
	b.ReportMetric(beforeQPS, "qps_before_maint")
	b.ReportMetric(afterQPS, "qps_after_maint")
}

// --- Table 1: btrfs microbenchmarks ---

func benchTable1Create(b *testing.B, mode btrfssim.Mode, sizeBlocks, opsPerTx int) {
	fs, err := btrfssim.New(btrfssim.Config{Mode: mode, OpsPerTransaction: opsPerTx})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.CreateFile(sizeBlocks); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := fs.Sync(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkTable1Create4K(b *testing.B) {
	for _, mode := range []btrfssim.Mode{btrfssim.ModeBase, btrfssim.ModeOriginal, btrfssim.ModeBacklog} {
		b.Run(mode.String(), func(b *testing.B) {
			benchTable1Create(b, mode, 1, 2048)
		})
	}
}

func BenchmarkTable1Create64K(b *testing.B) {
	for _, mode := range []btrfssim.Mode{btrfssim.ModeBase, btrfssim.ModeOriginal, btrfssim.ModeBacklog} {
		b.Run(mode.String(), func(b *testing.B) {
			benchTable1Create(b, mode, 16, 2048)
		})
	}
}

func BenchmarkTable1Delete4K(b *testing.B) {
	for _, mode := range []btrfssim.Mode{btrfssim.ModeBase, btrfssim.ModeOriginal, btrfssim.ModeBacklog} {
		b.Run(mode.String(), func(b *testing.B) {
			fs, err := btrfssim.New(btrfssim.Config{Mode: mode, OpsPerTransaction: 2048})
			if err != nil {
				b.Fatal(err)
			}
			inos, err := btrfssim.RunCreateFiles(fs, b.N, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, ino := range inos {
				if err := fs.DeleteFile(ino); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := fs.Sync(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkTable1Dbench(b *testing.B) {
	for _, mode := range []btrfssim.Mode{btrfssim.ModeBase, btrfssim.ModeBacklog} {
		b.Run(mode.String(), func(b *testing.B) {
			fs, err := btrfssim.New(btrfssim.Config{Mode: mode, OpsPerTransaction: 2048})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if _, err := btrfssim.RunDbench(fs, b.N, 1); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkTable1Varmail(b *testing.B) {
	for _, mode := range []btrfssim.Mode{btrfssim.ModeBase, btrfssim.ModeBacklog} {
		b.Run(mode.String(), func(b *testing.B) {
			fs, err := btrfssim.New(btrfssim.Config{Mode: mode, OpsPerTransaction: 2048})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if _, err := btrfssim.RunVarmail(fs, 16, b.N, 1); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkTable1Postmark(b *testing.B) {
	for _, mode := range []btrfssim.Mode{btrfssim.ModeBase, btrfssim.ModeBacklog} {
		b.Run(mode.String(), func(b *testing.B) {
			fs, err := btrfssim.New(btrfssim.Config{Mode: mode, OpsPerTransaction: 2048})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if _, err := btrfssim.RunPostmark(fs, 64, b.N, 1); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// --- Ablation: naive read-modify-write baseline (Section 4.1) ---

func BenchmarkAblationNaiveBaseline(b *testing.B) {
	b.Run("naive", func(b *testing.B) {
		vfs := storage.NewMemFS()
		tr, err := naive.New(vfs, 256<<10)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.AddRef(core.Ref{Block: uint64(i*131) % 1_000_000, Inode: uint64(i), Length: 1}, uint64(i/2000+1))
			if i%2000 == 1999 {
				if err := tr.Checkpoint(uint64(i/2000) + 1); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("backlog", func(b *testing.B) {
		vfs := storage.NewMemFS()
		eng, err := core.Open(core.Options{VFS: vfs, Catalog: core.NewMemCatalog(), CacheBytes: 256 << 10})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.AddRef(core.Ref{Block: uint64(i*131) % 1_000_000, Inode: uint64(i), Length: 1}, uint64(i/2000+1))
			if i%2000 == 1999 {
				if err := eng.Checkpoint(uint64(i/2000) + 1); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// --- Ablation: horizontal partitioning (Section 5.3) ---

func BenchmarkAblationPartitions(b *testing.B) {
	for _, parts := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			vfs := storage.NewMemFS()
			opts := core.Options{VFS: vfs, Catalog: core.NewMemCatalog()}
			if parts > 1 {
				opts.Partitions = parts
				opts.PartitionSpan = 1_000_000 / uint64(parts)
			}
			eng, err := core.Open(opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cp := uint64(i/2000 + 1)
				eng.AddRef(core.Ref{Block: uint64(i*7919) % 1_000_000, Inode: uint64(i), Length: 1}, cp)
				if i%2000 == 1999 {
					if err := eng.Checkpoint(cp); err != nil {
						b.Fatal(err)
					}
					// A maintenance pass merges only the partitions past
					// PolicyFull's threshold, exercising selective
					// per-partition maintenance.
					if err := eng.MaintainNow(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
