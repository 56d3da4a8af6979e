package experiments

import (
	"github.com/backlogfs/backlog/internal/workload"
)

// Fig7Config parameterizes Figures 7 and 8 (NFS trace overhead and space
// overhead). The paper replays the first 16 days (384 hours) of the
// EECS03 trace with a CP every 10 seconds; the synthesized trace keeps the
// published properties, and CPsPerHour scales the checkpoint cadence.
type Fig7Config struct {
	Hours      int
	OpsPerHour int
	CPsPerHour int
	DedupRate  float64
	Seed       int64
	// MaintenanceEveryHours compacts on this cadence (0 = never) —
	// the paper's Figure 8 uses 8 and 48 hours.
	MaintenanceEveryHours int
}

// DefaultFig7Config returns the scaled default.
func DefaultFig7Config() Fig7Config {
	return Fig7Config{Hours: 96, OpsPerHour: 600, CPsPerHour: 4, DedupRate: 0.10, Seed: 42}
}

// HourSample is one Figure 7/8 data point.
type HourSample struct {
	Hour          int
	BlockOps      uint64
	WritesPerOp   float64
	TimePerOpUS   float64
	CPUPerOpUS    float64
	SpacePct      float64
	DBBytes       int64
	PhysicalBytes int64
}

// Fig7Result is the per-hour series.
type Fig7Result struct {
	Samples  []HourSample
	TotalOps uint64
}

// RunFig7 synthesizes the trace and replays it, sampling per hour.
func RunFig7(cfg Fig7Config) (*Fig7Result, error) {
	env, err := NewEnv(EnvConfig{DedupRate: cfg.DedupRate, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	tcfg := workload.DefaultTraceConfig(cfg.OpsPerHour)
	tcfg.Hours = cfg.Hours
	tcfg.Seed = cfg.Seed
	// Keep the truncate-heavy span inside the configured horizon.
	if tcfg.SetattrSpan[0] >= cfg.Hours {
		tcfg.SetattrSpan = [2]int{cfg.Hours / 2, cfg.Hours/2 + cfg.Hours/8}
	} else if tcfg.SetattrSpan[1] > cfg.Hours {
		tcfg.SetattrSpan[1] = cfg.Hours
	}
	ops := workload.GenerateTrace(tcfg)
	byHour := make([][]workload.TraceOp, cfg.Hours)
	for _, op := range ops {
		byHour[op.Hour] = append(byHour[op.Hour], op)
	}
	player := workload.NewPlayer(env.FS, cfg.CPsPerHour, cfg.Seed)

	res := &Fig7Result{}
	for h := 0; h < cfg.Hours; h++ {
		m := startMeasure(env.VFS)
		hs, err := player.PlayHour(h, byHour[h])
		if err != nil {
			return nil, err
		}
		cpuNs, diskNs, io := m.stop()
		if cfg.MaintenanceEveryHours > 0 && (h+1)%cfg.MaintenanceEveryHours == 0 {
			if err := env.Eng.Compact(); err != nil {
				return nil, err
			}
		}
		phys := int64(env.FS.PhysicalBlocks()) * 4096
		db := env.Eng.SizeBytes()
		sample := HourSample{
			Hour:          h,
			BlockOps:      hs.BlockOps,
			DBBytes:       db,
			PhysicalBytes: phys,
		}
		if phys > 0 {
			sample.SpacePct = 100 * float64(db) / float64(phys)
		}
		if hs.BlockOps > 0 {
			sample.WritesPerOp = float64(io.PageWrites) / float64(hs.BlockOps)
			sample.CPUPerOpUS = float64(cpuNs) / 1e3 / float64(hs.BlockOps)
			sample.TimePerOpUS = float64(cpuNs+diskNs) / 1e3 / float64(hs.BlockOps)
		}
		res.Samples = append(res.Samples, sample)
		res.TotalOps += hs.BlockOps
	}
	return res, nil
}

// Fig8Result groups Figure 8 series by maintenance cadence in hours.
type Fig8Result struct {
	Series map[int][]HourSample
}

// RunFig8 replays the trace under several maintenance cadences (the paper
// uses none / every 48 hours / every 8 hours).
func RunFig8(cfg Fig7Config, maintenanceHours []int) (*Fig8Result, error) {
	out := &Fig8Result{Series: map[int][]HourSample{}}
	for _, m := range maintenanceHours {
		c := cfg
		c.MaintenanceEveryHours = m
		r, err := RunFig7(c)
		if err != nil {
			return nil, err
		}
		out.Series[m] = r.Samples
	}
	return out, nil
}
