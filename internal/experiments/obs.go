package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/obs"
	"github.com/backlogfs/backlog/internal/storage"
)

// ObsConfig parameterizes the observability-overhead experiment: the same
// mixed update/query workload run with instrumentation disabled, with the
// metrics registry enabled, and with a tracer attached on top. It is not
// a paper figure — it exists to hold the instrumentation to its budget:
// enabled metrics must cost at most a few percent, and disabled metrics
// must be unmeasurable (the figure experiments run with observability off
// and must stay byte-identical).
type ObsConfig struct {
	// Ops is the number of AddRef calls per configuration per round.
	Ops int
	// OpsPerCP is the checkpoint cadence (default 50k ops).
	OpsPerCP int
	// QueryEvery issues one Query per this many updates (default 16),
	// so both hot paths carry instrumentation load.
	QueryEvery int
	// Goroutines is the number of concurrent workers (default GOMAXPROCS).
	Goroutines int
	// Rounds interleaves repeated measurements of every configuration
	// (default 5). Throughput is reported from each configuration's best
	// round; overhead is the median of the per-round paired deltas
	// against the same round's disabled run, so drift (thermal, GC
	// pacing, a noisy neighbor) that hits one slice of the run cannot
	// masquerade as instrumentation cost.
	Rounds int
}

// DefaultObsConfig returns the small-scale default. Many short rounds
// beat few long ones here: each paired delta is noisier, but the median
// over 11 pairs is far sturdier against one-off CPU bursts than the
// median over 5.
func DefaultObsConfig() ObsConfig {
	return ObsConfig{Ops: 400_000, OpsPerCP: 50_000, QueryEvery: 16, Rounds: 11}
}

// ObsPoint is one configuration's result.
type ObsPoint struct {
	Name      string
	Ops       int
	Nanos     int64
	OpsPerSec float64
	// OverheadPct is throughput loss relative to the disabled
	// configuration (positive = slower than disabled): the median over
	// rounds of the paired per-round delta.
	OverheadPct float64
	// TraceEvents is the number of hook invocations the counting tracer
	// saw (0 except in the tracer configuration).
	TraceEvents uint64
}

// countingTracer is the cheapest useful tracer: two atomic increments per
// operation. It bounds the hook dispatch cost itself, separate from
// whatever a real tracer does with the events.
type countingTracer struct {
	events atomic.Uint64
}

func (t *countingTracer) OpStart(obs.OpEvent) { t.events.Add(1) }
func (t *countingTracer) OpEnd(obs.OpEvent)   { t.events.Add(1) }

// RunObs measures the overhead of enabling observability on a mixed
// update/query workload against an in-memory engine.
func RunObs(cfg ObsConfig) ([]ObsPoint, error) {
	def := DefaultObsConfig()
	if cfg.Ops <= 0 {
		cfg.Ops = def.Ops
	}
	if cfg.OpsPerCP <= 0 {
		cfg.OpsPerCP = def.OpsPerCP
	}
	if cfg.QueryEvery <= 0 {
		cfg.QueryEvery = def.QueryEvery
	}
	if cfg.Goroutines <= 0 {
		cfg.Goroutines = runtime.GOMAXPROCS(0)
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = def.Rounds
	}

	type setup struct {
		name    string
		metrics bool
		tracer  bool
	}
	setups := []setup{
		{"disabled", false, false},
		{"metrics", true, false},
		{"metrics+tracer", true, true},
	}
	points := make([]ObsPoint, len(setups))
	roundNanos := make([][]int64, len(setups))
	for i, s := range setups {
		points[i] = ObsPoint{Name: s.name}
		roundNanos[i] = make([]int64, cfg.Rounds)
	}
	// Interleave rounds so drift (thermal, GC pacing) hits every
	// configuration equally; keep each configuration's fastest round for
	// the throughput column, and every round for the paired overhead
	// estimate below.
	for round := 0; round < cfg.Rounds; round++ {
		for i, s := range setups {
			// Start each measurement from a collected heap so one
			// configuration doesn't inherit the previous one's GC debt.
			runtime.GC()
			var reg *obs.Registry
			var tr *countingTracer
			opts := core.Options{
				VFS:         storage.NewMemFS(),
				Catalog:     core.NewMemCatalog(),
				WriteShards: cfg.Goroutines,
			}
			if s.metrics {
				reg = obs.NewRegistry()
				opts.Metrics = reg
			}
			if s.tracer {
				tr = &countingTracer{}
				opts.Tracer = tr
			}
			ops, nanos, err := obsOnce(opts, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s round %d: %w", s.name, round, err)
			}
			roundNanos[i][round] = nanos
			if points[i].Nanos == 0 || nanos < points[i].Nanos {
				points[i].Ops = ops
				points[i].Nanos = nanos
			}
			if tr != nil {
				points[i].TraceEvents = tr.events.Load()
			}
		}
	}
	for i := range points {
		points[i].OpsPerSec = float64(points[i].Ops) / (float64(points[i].Nanos) / 1e9)
	}
	// Overhead: pair each configuration's round with the disabled run of
	// the SAME round (they executed back to back), then take the median
	// delta. On a small shared machine the round-to-round jitter of the
	// baseline alone can exceed the budget being measured; pairing
	// cancels the drift and the median sheds the outlier rounds.
	for i := range points {
		deltas := make([]float64, cfg.Rounds)
		for r := 0; r < cfg.Rounds; r++ {
			deltas[r] = 100 * (float64(roundNanos[i][r])/float64(roundNanos[0][r]) - 1)
		}
		sort.Float64s(deltas)
		mid := cfg.Rounds / 2
		if cfg.Rounds%2 == 0 {
			points[i].OverheadPct = (deltas[mid-1] + deltas[mid]) / 2
		} else {
			points[i].OverheadPct = deltas[mid]
		}
	}
	return points, nil
}

// obsOnce drives one configuration: cfg.Goroutines workers issuing
// AddRef with a Query every cfg.QueryEvery updates and periodic
// checkpoints.
func obsOnce(opts core.Options, cfg ObsConfig) (int, int64, error) {
	eng, err := core.Open(opts)
	if err != nil {
		return 0, 0, err
	}
	defer eng.Close()
	var (
		wg       sync.WaitGroup
		counter  atomic.Uint64
		cp       atomic.Uint64
		cpMu     sync.Mutex
		errOnce  sync.Once
		firstErr error
	)
	cp.Store(1)
	perWorker := cfg.Ops / cfg.Goroutines
	if perWorker == 0 {
		return 0, 0, fmt.Errorf("ops=%d is less than goroutines=%d", cfg.Ops, cfg.Goroutines)
	}
	start := time.Now()
	for w := 0; w < cfg.Goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) << 40
			for i := 0; i < perWorker; i++ {
				block := base + uint64(i)
				eng.AddRef(core.Ref{
					Block:  block,
					Inode:  uint64(w + 1),
					Offset: uint64(i),
					Length: 1,
				}, cp.Load())
				if i%cfg.QueryEvery == 0 {
					if _, err := eng.Query(block); err != nil {
						errOnce.Do(func() { firstErr = err })
						return
					}
				}
				if n := counter.Add(1); n%uint64(cfg.OpsPerCP) == 0 {
					cpMu.Lock()
					next := cp.Load() + 1
					err := eng.Checkpoint(next)
					if err == nil {
						cp.Store(next)
					}
					cpMu.Unlock()
					if err != nil {
						errOnce.Do(func() { firstErr = err })
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, 0, firstErr
	}
	return perWorker * cfg.Goroutines, time.Since(start).Nanoseconds(), nil
}
