package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/storage"
)

// LevelsConfig parameterizes the leveled-maintenance experiment. It is not
// a paper figure: the paper's prototype maintains a partition by merging
// every run into one, which rewrites the accumulated database over and
// over under sustained ingest. The experiment quantifies what the
// stepped-merge alternative buys — PolicyLeveled merges Fanout runs of a
// level into one run of the next — and what it costs at read time, by
// running the identical ingest under PolicyFull and under PolicyLeveled
// at each fanout in the sweep.
type LevelsConfig struct {
	// CPs and OpsPerCP size the sustained ingest. Maintenance runs
	// synchronously after every checkpoint, as the paper's prototype did.
	CPs      int
	OpsPerCP int
	// Blocks is the physical block space referenced and queried.
	Blocks int
	// Partitions is the number of block-range partitions, each spanning
	// Blocks/Partitions blocks; blocks are drawn uniformly, so every
	// partition fills.
	Partitions int
	// Queries is the number of point queries measured after ingest.
	Queries int
	// Fanouts are the stepped-merge fanouts swept for PolicyLeveled.
	Fanouts []int
	Seed    int64
}

// DefaultLevelsConfig returns the small-scale default.
func DefaultLevelsConfig() LevelsConfig {
	return LevelsConfig{
		CPs:        128,
		OpsPerCP:   1000,
		Blocks:     1 << 14,
		Partitions: 4,
		Queries:    2000,
		Fanouts:    []int{2, 3, 4, 8},
		Seed:       1,
	}
}

// LevelsPoint is one policy configuration's measured outcome.
type LevelsPoint struct {
	Policy string // "full" or "leveled"
	Fanout int    // 0 for PolicyFull
	// CompactWriteBytes is the physical bytes written by installed
	// compactions over the whole ingest.
	CompactWriteBytes uint64
	// WriteAmp is (flush bytes + compaction bytes) / flush bytes, with
	// flush bytes approximated as records flushed times the From record
	// size (the workload is add-only, so every flushed record is a From).
	WriteAmp float64
	// BytesVsFull is PolicyFull's compaction bytes divided by this
	// point's — how many times fewer bytes this configuration wrote.
	BytesVsFull float64
	// Runs and MaxLevel describe the final run set.
	Runs     int
	MaxLevel int
	// MaintainMS is the total wall-clock time spent in maintenance.
	MaintainMS float64
	// QueryMeanUS and QueryP99US are point-query latencies on the final
	// run set; P99VsFull is the p99 ratio against the PolicyFull point.
	QueryMeanUS float64
	QueryP99US  float64
	P99VsFull   float64
}

// LevelsResult is the experiment's output: the PolicyFull baseline
// first, then one point per swept fanout.
type LevelsResult struct {
	Points []LevelsPoint
}

// RunLevels runs the identical sustained ingest under PolicyFull and
// under PolicyLeveled at each configured fanout, maintaining after every
// checkpoint, and reports compaction write bytes and query latency per
// configuration. PolicyFull's write cost grows quadratically in the
// ingest length (every merge rewrites the whole partition); stepped
// merging rewrites each record at most once per level instead — a
// cascade is one merge, which writes only the level it lands on — at the
// price of a deeper run set for queries to visit.
func RunLevels(cfg LevelsConfig) (LevelsResult, error) {
	var res LevelsResult
	full, err := runLevelsPoint(cfg, nil, 0)
	if err != nil {
		return res, fmt.Errorf("full policy: %w", err)
	}
	res.Points = append(res.Points, full)
	for _, k := range cfg.Fanouts {
		pt, err := runLevelsPoint(cfg, core.PolicyLeveled{}, k)
		if err != nil {
			return res, fmt.Errorf("leveled fanout %d: %w", k, err)
		}
		res.Points = append(res.Points, pt)
	}
	for i := range res.Points {
		if res.Points[i].CompactWriteBytes > 0 {
			res.Points[i].BytesVsFull = float64(full.CompactWriteBytes) / float64(res.Points[i].CompactWriteBytes)
		}
		if full.QueryP99US > 0 {
			res.Points[i].P99VsFull = res.Points[i].QueryP99US / full.QueryP99US
		}
	}
	return res, nil
}

func runLevelsPoint(cfg LevelsConfig, pol core.CompactionPolicy, fanout int) (LevelsPoint, error) {
	var pt LevelsPoint
	eng, err := core.Open(core.Options{
		VFS:              storage.NewMemFS(),
		Catalog:          core.NewMemCatalog(),
		Partitions:       cfg.Partitions,
		PartitionSpan:    uint64(cfg.Blocks / max(cfg.Partitions, 1)),
		CompactionPolicy: pol,
		Fanout:           fanout,
		// Pin the raw v1 run format so write bytes measure records merged,
		// not compressibility — the delta format rewards full's large
		// sorted outputs more than leveled's small ones, which would
		// conflate two separate trade-offs.
		Compression: core.CompressionNone,
	})
	if err != nil {
		return pt, err
	}
	defer eng.Close()

	pt.Policy = "full"
	if pol != nil {
		pt.Policy = pol.Name()
		pt.Fanout = fanout
	}

	var maintain time.Duration
	rng := rand.New(rand.NewSource(cfg.Seed))
	for cp := 1; cp <= cfg.CPs; cp++ {
		for i := 0; i < cfg.OpsPerCP; i++ {
			eng.AddRef(core.Ref{
				Block:  uint64(rng.Intn(cfg.Blocks)),
				Inode:  uint64(2 + cp),
				Offset: uint64(i),
				Length: 1,
			}, uint64(cp))
		}
		if err := eng.Checkpoint(uint64(cp)); err != nil {
			return pt, err
		}
		t0 := time.Now()
		if err := eng.MaintainNow(); err != nil {
			return pt, err
		}
		maintain += time.Since(t0)
	}
	pt.MaintainMS = float64(maintain.Microseconds()) / 1e3

	st := eng.Stats()
	pt.CompactWriteBytes = st.CompactWriteBytes
	if flushed := float64(st.RecordsFlushed) * float64(core.FromRecSize); flushed > 0 {
		pt.WriteAmp = (flushed + float64(st.CompactWriteBytes)) / flushed
	}
	pt.Runs = eng.RunCount()
	for _, ri := range eng.RunInfos() {
		if ri.Level > pt.MaxLevel {
			pt.MaxLevel = ri.Level
		}
	}

	lats := make([]time.Duration, 0, cfg.Queries)
	for i := 0; i < cfg.Queries; i++ {
		b := uint64(rng.Intn(cfg.Blocks))
		t0 := time.Now()
		if _, err := eng.Query(b); err != nil {
			return pt, err
		}
		lats = append(lats, time.Since(t0))
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) > 0 {
		var sum time.Duration
		for _, l := range lats {
			sum += l
		}
		pt.QueryMeanUS = float64(sum.Microseconds()) / float64(len(lats))
		pt.QueryP99US = float64(lats[len(lats)*99/100].Microseconds())
	}
	return pt, nil
}
