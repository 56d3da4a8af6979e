package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/obs"
	"github.com/backlogfs/backlog/internal/storage"
)

// SlowVFS wraps a VFS and adds a fixed delay to every write of files
// whose names end in Suffix (default ".run"). The checkpoint-stall
// experiment and BenchmarkIngestDuringCheckpoint use it to stretch a
// checkpoint's run-building I/O into measurable wall-clock time on an
// otherwise instant in-memory file system — MemFS models disk time, but
// only as accounting, not as real latency.
type SlowVFS struct {
	storage.VFS
	Delay  time.Duration
	Suffix string
}

func (s *SlowVFS) suffix() string {
	if s.Suffix == "" {
		return ".run"
	}
	return s.Suffix
}

func (s *SlowVFS) Create(name string) (storage.File, error) {
	f, err := s.VFS.Create(name)
	if err != nil || !strings.HasSuffix(name, s.suffix()) {
		return f, err
	}
	return &slowFile{File: f, delay: s.Delay}, nil
}

func (s *SlowVFS) Open(name string) (storage.File, error) {
	f, err := s.VFS.Open(name)
	if err != nil || !strings.HasSuffix(name, s.suffix()) {
		return f, err
	}
	return &slowFile{File: f, delay: s.Delay}, nil
}

type slowFile struct {
	storage.File
	delay time.Duration
}

func (f *slowFile) WriteAt(p []byte, off int64) (int, error) {
	time.Sleep(f.delay)
	return f.File.WriteAt(p, off)
}

// CPStallConfig parameterizes the checkpoint-stall experiment. It is not
// a paper figure: the paper's prototype quiesced updates across the
// consistency-point flush, whereas this reproduction freezes the write
// stores and flushes them with no structural lock held. The experiment
// quantifies the payoff — update and query latency while a checkpoint
// flush runs, versus idle.
type CPStallConfig struct {
	// PrefillOps is the number of buffered references the measured
	// checkpoint flushes.
	PrefillOps int
	// Shards is the write-shard count (0 = GOMAXPROCS).
	Shards int
	// Blocks is the physical block space touched.
	Blocks int
	// MeasureOps bounds the updates measured per phase.
	MeasureOps int
	// WriteDelay is added to every run-file write to give the flush a
	// realistic wall-clock footprint.
	WriteDelay time.Duration
	Seed       int64
}

// DefaultCPStallConfig returns the small-scale default.
func DefaultCPStallConfig() CPStallConfig {
	return CPStallConfig{
		PrefillOps: 100_000,
		Blocks:     1 << 16,
		MeasureOps: 20_000,
		WriteDelay: 100 * time.Microsecond,
		Seed:       1,
	}
}

// CPStallPhase is one measured update phase.
type CPStallPhase struct {
	Phase         string
	Ops           int
	OpsPerSec     float64
	MeanUS        float64
	P99US         float64
	MaxUS         float64
	QueryMeanUS   float64 // interleaved point-query latency
	QueriesServed int
}

// CPStallResult is the experiment's output.
type CPStallResult struct {
	Phases []CPStallPhase
	// CheckpointMS is the wall-clock duration of the measured checkpoint.
	CheckpointMS float64
	// SwapUS and InstallUS are the checkpoint's two exclusive-lock
	// critical sections; FlushMS is its lock-free run-building time.
	SwapUS, InstallUS float64
	FlushMS           float64
	RecordsFlushed    uint64
}

// RunCPStall measures AddRef and Query latency idle, then again while a
// checkpoint flush of cfg.PrefillOps buffered references runs
// concurrently. With the frozen-write-store checkpoint the concurrent
// phase stays within a small factor of idle: updates only stall for the
// freeze and install critical sections, not for the run-building I/O.
func RunCPStall(cfg CPStallConfig) (CPStallResult, error) {
	var res CPStallResult
	slow := &SlowVFS{VFS: storage.NewMemFS(), Delay: cfg.WriteDelay}
	// The registry is here for the checkpoint phase histograms, the only
	// record of how long the measured checkpoint held the structural lock.
	eng, err := core.Open(core.Options{
		VFS:         slow,
		Catalog:     core.NewMemCatalog(),
		WriteShards: cfg.Shards,
		Metrics:     obs.NewRegistry(),
	})
	if err != nil {
		return res, err
	}
	defer eng.Close()

	rng := rand.New(rand.NewSource(cfg.Seed))
	var inode uint64
	update := func(cp uint64) time.Duration {
		inode++
		r := core.Ref{Block: uint64(rng.Intn(cfg.Blocks)), Inode: inode, Offset: inode & 7, Length: 1}
		t0 := time.Now()
		eng.AddRef(r, cp)
		return time.Since(t0)
	}

	// measure runs the update+query stream for one phase. With done nil it
	// samples cfg.MeasureOps updates; with done set it keeps measuring
	// until the background checkpoint finishes and returns the
	// checkpoint's error.
	measure := func(name string, cp uint64, done <-chan error) error {
		lats := make([]time.Duration, 0, cfg.MeasureOps)
		var qSum time.Duration
		var queries int
		t0 := time.Now()
		var cperr error
		running := done != nil
		for i := 0; ; i++ {
			lats = append(lats, update(cp))
			if i%64 == 63 {
				q0 := time.Now()
				if _, err := eng.Query(uint64(rng.Intn(cfg.Blocks))); err != nil {
					return err
				}
				qSum += time.Since(q0)
				queries++
			}
			if i%8 == 7 {
				// Keep the stream honest on small GOMAXPROCS: without an
				// explicit yield, a single-core scheduler lets this loop
				// starve the background flush goroutine between its I/O
				// waits, inflating the checkpoint duration by preemption
				// latency rather than by any lock the engine holds.
				runtime.Gosched()
			}
			if running {
				select {
				case cperr = <-done:
					running = false
				default:
				}
				if !running {
					break // checkpoint finished; phase over
				}
				continue
			}
			if len(lats) >= cfg.MeasureOps {
				break
			}
		}
		elapsed := time.Since(t0)
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		var sum time.Duration
		for _, l := range lats {
			sum += l
		}
		ph := CPStallPhase{Phase: name, Ops: len(lats), QueriesServed: queries}
		if len(lats) > 0 {
			ph.OpsPerSec = float64(len(lats)) / elapsed.Seconds()
			ph.MeanUS = float64(sum.Microseconds()) / float64(len(lats))
			ph.P99US = float64(lats[len(lats)*99/100].Nanoseconds()) / 1e3
			ph.MaxUS = float64(lats[len(lats)-1].Nanoseconds()) / 1e3
		}
		if queries > 0 {
			ph.QueryMeanUS = float64(qSum.Microseconds()) / float64(queries)
		}
		res.Phases = append(res.Phases, ph)
		if cperr != nil {
			return fmt.Errorf("background checkpoint: %w", cperr)
		}
		return nil
	}

	// Warm up: an unmeasured checkpoint builds a read store, so the idle
	// baseline pays the same query costs (view pins, run reads) as the
	// phases around the measured flush.
	for i := 0; i < cfg.PrefillOps/4; i++ {
		update(1)
	}
	if err := eng.Checkpoint(1); err != nil {
		return res, err
	}

	// Phase 1: idle baseline.
	if err := measure("idle", 2, nil); err != nil {
		return res, err
	}

	// Prefill the write stores so the measured flush is substantial.
	for i := 0; i < cfg.PrefillOps; i++ {
		update(2)
	}

	// Phase 2: the same update+query stream while Checkpoint(2) freezes
	// the stores and flushes them in the background. The stream's records
	// are tagged 3 — they land in the fresh active trees and flush with
	// the NEXT checkpoint.
	before, metricsBefore := eng.Stats(), eng.Metrics()
	done := make(chan error, 1)
	cpStart := time.Now()
	go func() { done <- eng.Checkpoint(2) }()
	if err := measure("during checkpoint flush", 3, done); err != nil {
		return res, err
	}
	res.CheckpointMS = float64(time.Since(cpStart).Microseconds()) / 1e3

	st, metrics := eng.Stats(), eng.Metrics()
	phaseNanos := func(name string) float64 {
		h0, _ := metricsBefore.Histogram(name)
		h, _ := metrics.Histogram(name)
		return float64(h.Sum - h0.Sum)
	}
	res.SwapUS = phaseNanos("backlog_checkpoint_freeze_ns") / 1e3
	res.InstallUS = phaseNanos("backlog_checkpoint_install_ns") / 1e3
	res.FlushMS = phaseNanos("backlog_checkpoint_flush_ns") / 1e6
	res.RecordsFlushed = st.RecordsFlushed - before.RecordsFlushed

	// Phase 3: idle again, on the drained stores.
	if err := measure("idle (after)", 3, nil); err != nil {
		return res, err
	}
	return res, nil
}
