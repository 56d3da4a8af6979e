package experiments

import (
	"github.com/backlogfs/backlog/internal/workload"
)

// Fig5Config parameterizes Figures 5 and 6 (synthetic workload overhead
// and database size). The paper runs 9,000 CPs of 32,000 ops; defaults
// here are scaled (see EXPERIMENTS.md).
type Fig5Config struct {
	CPs         int
	OpsPerCP    int
	DedupRate   float64
	Seed        int64
	SampleEvery int
	// MaintenanceEvery compacts every N CPs (0 = never) — used by Fig 6.
	MaintenanceEvery int
}

// DefaultFig5Config returns the scaled default.
func DefaultFig5Config() Fig5Config {
	return Fig5Config{CPs: 200, OpsPerCP: 2000, DedupRate: 0.10, Seed: 1, SampleEvery: 5}
}

// CPSample is one Figure 5 data point.
type CPSample struct {
	CP            uint64
	Ops           uint64  // block operations in the sampled window
	WritesPerOp   float64 // 4 KB page writes per block operation
	TimePerOpUS   float64 // total (CPU + modeled disk) microseconds per op
	CPUPerOpUS    float64 // CPU-only microseconds per op
	SpacePct      float64 // DB size as % of physical data (Figure 6)
	DBBytes       int64
	PhysicalBytes int64
}

// Fig5Result is the series for Figures 5 and 6.
type Fig5Result struct {
	Samples []CPSample
	// TotalOps is the total block operations issued.
	TotalOps uint64
}

// RunFig5 runs the synthetic workload and samples maintenance overhead
// (Figure 5) and space overhead (Figure 6, when MaintenanceEvery is set).
func RunFig5(cfg Fig5Config) (*Fig5Result, error) {
	env, err := NewEnv(EnvConfig{DedupRate: cfg.DedupRate, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	wcfg := workload.DefaultSyntheticConfig(cfg.OpsPerCP)
	wcfg.Seed = cfg.Seed
	gen := workload.NewSynthetic(env.FS, wcfg)

	res := &Fig5Result{}
	if cfg.SampleEvery < 1 {
		cfg.SampleEvery = 1
	}
	var winOps uint64
	win := startMeasure(env.VFS)
	for i := 1; i <= cfg.CPs; i++ {
		cp, ops, err := gen.RunCP()
		if err != nil {
			return nil, err
		}
		winOps += ops
		res.TotalOps += ops

		if cfg.MaintenanceEvery > 0 && i%cfg.MaintenanceEvery == 0 {
			if err := env.Eng.Compact(); err != nil {
				return nil, err
			}
		}
		if i%cfg.SampleEvery == 0 {
			cpuNs, diskNs, io := win.stop()
			phys := int64(env.FS.PhysicalBlocks()) * 4096
			db := env.Eng.SizeBytes()
			var spacePct float64
			if phys > 0 {
				spacePct = 100 * float64(db) / float64(phys)
			}
			sample := CPSample{
				CP:            cp,
				Ops:           winOps,
				DBBytes:       db,
				PhysicalBytes: phys,
				SpacePct:      spacePct,
			}
			if winOps > 0 {
				sample.WritesPerOp = float64(io.PageWrites) / float64(winOps)
				sample.CPUPerOpUS = float64(cpuNs) / 1e3 / float64(winOps)
				sample.TimePerOpUS = float64(cpuNs+diskNs) / 1e3 / float64(winOps)
			}
			res.Samples = append(res.Samples, sample)
			winOps = 0
			win = startMeasure(env.VFS)
		}
	}
	return res, nil
}

// Fig6Result groups Figure 6 series by maintenance interval.
type Fig6Result struct {
	// Series maps maintenance interval (0 = none) to its space-overhead
	// samples.
	Series map[int][]CPSample
}

// RunFig6 runs the synthetic workload under several maintenance cadences
// (the paper uses none / every 200 / every 100 CPs).
func RunFig6(cfg Fig5Config, maintenanceEvery []int) (*Fig6Result, error) {
	out := &Fig6Result{Series: map[int][]CPSample{}}
	for _, m := range maintenanceEvery {
		c := cfg
		c.MaintenanceEvery = m
		r, err := RunFig5(c)
		if err != nil {
			return nil, err
		}
		out.Series[m] = r.Samples
	}
	return out, nil
}
