package experiments

import (
	"fmt"
	"math/rand"

	"github.com/backlogfs/backlog/internal/workload"
)

// Fig9Config parameterizes the query-performance experiments (Figures 9
// and 10). The paper uses a 1000-CP workload, 8,192 queries per
// measurement, run lengths 1..1000+, and maintenance staleness 0..800 CPs;
// defaults here are scaled.
type Fig9Config struct {
	CPs      int
	OpsPerCP int
	Queries  int
	// RunLengths are the sorted-run sizes to measure.
	RunLengths []int
	// StalenessCPs lists "CPs since last maintenance" variants; -1 means
	// never maintained.
	StalenessCPs []int
	DedupRate    float64
	Seed         int64
}

// DefaultFig9Config returns the scaled default.
func DefaultFig9Config() Fig9Config {
	return Fig9Config{
		CPs:          120,
		OpsPerCP:     1500,
		Queries:      2048,
		RunLengths:   []int{1, 10, 100, 1000},
		StalenessCPs: []int{0, 30, 60, 90, -1},
		DedupRate:    0.10,
		Seed:         1,
	}
}

// QueryPoint is one Figure 9 measurement.
type QueryPoint struct {
	RunLength     int
	StalenessCPs  int // -1 = never maintained
	QueriesPerSec float64
	ReadsPerQuery float64
	OwnersPerQry  float64
}

// Fig9Result holds all measured points.
type Fig9Result struct {
	Points []QueryPoint
}

// buildQueryDB runs the synthetic workload for cfg.CPs checkpoints,
// compacting so the database is exactly staleness CPs past its last
// maintenance at the end (staleness < 0 = never compacted). It returns the
// environment and the sorted list of allocated blocks.
func buildQueryDB(cfg Fig9Config, staleness int) (*Env, []uint64, error) {
	env, err := NewEnv(EnvConfig{DedupRate: cfg.DedupRate, Seed: cfg.Seed})
	if err != nil {
		return nil, nil, err
	}
	wcfg := workload.DefaultSyntheticConfig(cfg.OpsPerCP)
	wcfg.Seed = cfg.Seed
	gen := workload.NewSynthetic(env.FS, wcfg)
	compactAt := -1
	if staleness >= 0 {
		compactAt = cfg.CPs - staleness
	}
	for i := 1; i <= cfg.CPs; i++ {
		if _, _, err := gen.RunCP(); err != nil {
			return nil, nil, err
		}
		if i == compactAt {
			if err := env.Eng.Compact(); err != nil {
				return nil, nil, err
			}
		}
	}
	blocks := allocatedBlocks(env)
	if len(blocks) == 0 {
		return nil, nil, fmt.Errorf("experiments: workload left no allocated blocks")
	}
	return env, blocks, nil
}

func allocatedBlocks(env *Env) []uint64 {
	return env.FS.AllocatedBlocks()
}

// measureQueries issues total queries in sorted runs of runLength over the
// allocated-block list, with all caches dropped first (the paper clears
// internal and file system caches before each set, Section 6.4).
func measureQueries(env *Env, blocks []uint64, runLength, total int, seed int64) (QueryPoint, error) {
	env.Eng.ClearCaches()
	rng := rand.New(rand.NewSource(seed))
	m := startMeasure(env.VFS)
	issued := 0
	var owners int
	for issued < total {
		start := rng.Intn(len(blocks))
		for i := 0; i < runLength && issued < total; i++ {
			b := blocks[(start+i)%len(blocks)]
			os, err := env.Eng.Query(b)
			if err != nil {
				return QueryPoint{}, err
			}
			owners += len(os)
			issued++
		}
	}
	cpuNs, diskNs, io := m.stop()
	secs := float64(cpuNs+diskNs) / 1e9
	qp := QueryPoint{
		RunLength:     runLength,
		ReadsPerQuery: float64(io.PageReads) / float64(issued),
		OwnersPerQry:  float64(owners) / float64(issued),
	}
	if secs > 0 {
		qp.QueriesPerSec = float64(issued) / secs
	}
	return qp, nil
}

// RunFig9 measures query throughput and I/O reads per query across run
// lengths and maintenance staleness.
func RunFig9(cfg Fig9Config) (*Fig9Result, error) {
	res := &Fig9Result{}
	for _, stale := range cfg.StalenessCPs {
		env, blocks, err := buildQueryDB(cfg, stale)
		if err != nil {
			return nil, err
		}
		for _, rl := range cfg.RunLengths {
			qp, err := measureQueries(env, blocks, rl, cfg.Queries, cfg.Seed+int64(rl))
			if err != nil {
				return nil, err
			}
			qp.StalenessCPs = stale
			res.Points = append(res.Points, qp)
		}
	}
	return res, nil
}

// Fig10Config parameterizes the query-performance-over-time experiment.
type Fig10Config struct {
	CPs          int // total workload length
	MeasureEvery int // measure + maintain on this cadence
	OpsPerCP     int
	Queries      int
	RunLengths   []int
	DedupRate    float64
	Seed         int64
}

// DefaultFig10Config returns the scaled default.
func DefaultFig10Config() Fig10Config {
	return Fig10Config{
		CPs:          150,
		MeasureEvery: 30,
		OpsPerCP:     1200,
		Queries:      1024,
		RunLengths:   []int{64, 128, 256, 512},
		DedupRate:    0.10,
		Seed:         1,
	}
}

// Fig10Point is one (CP, run length) measurement before or after the
// maintenance run at that CP.
type Fig10Point struct {
	CP            uint64
	RunLength     int
	QueriesPerSec float64
	ReadsPerQuery float64
}

// Fig10Result holds the before/after series.
type Fig10Result struct {
	Before []Fig10Point // measured ~MeasureEvery CPs after last maintenance
	After  []Fig10Point // measured immediately after maintenance
}

// RunFig10 interleaves workload execution, measurement just before
// maintenance, maintenance, and measurement just after — the paper's
// Figure 10 protocol (8,192 queries every 100 CPs around maintenance
// scheduled every 100 CPs).
func RunFig10(cfg Fig10Config) (*Fig10Result, error) {
	env, err := NewEnv(EnvConfig{DedupRate: cfg.DedupRate, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	wcfg := workload.DefaultSyntheticConfig(cfg.OpsPerCP)
	wcfg.Seed = cfg.Seed
	gen := workload.NewSynthetic(env.FS, wcfg)
	res := &Fig10Result{}
	for i := 1; i <= cfg.CPs; i++ {
		cp, _, err := gen.RunCP()
		if err != nil {
			return nil, err
		}
		if i%cfg.MeasureEvery != 0 {
			continue
		}
		blocks := allocatedBlocks(env)
		if len(blocks) == 0 {
			continue
		}
		for _, rl := range cfg.RunLengths {
			qp, err := measureQueries(env, blocks, rl, cfg.Queries, cfg.Seed+int64(rl))
			if err != nil {
				return nil, err
			}
			res.Before = append(res.Before, Fig10Point{
				CP: cp, RunLength: rl,
				QueriesPerSec: qp.QueriesPerSec, ReadsPerQuery: qp.ReadsPerQuery,
			})
		}
		if err := env.Eng.Compact(); err != nil {
			return nil, err
		}
		for _, rl := range cfg.RunLengths {
			qp, err := measureQueries(env, blocks, rl, cfg.Queries, cfg.Seed+int64(rl))
			if err != nil {
				return nil, err
			}
			res.After = append(res.After, Fig10Point{
				CP: cp, RunLength: rl,
				QueriesPerSec: qp.QueriesPerSec, ReadsPerQuery: qp.ReadsPerQuery,
			})
		}
	}
	return res, nil
}
