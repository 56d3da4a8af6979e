package core

import (
	"strconv"
	"sync/atomic"
	"time"

	"github.com/backlogfs/backlog/internal/obs"
	"github.com/backlogfs/backlog/internal/storage"
)

// engineObs bundles the engine's observability state: the typed metric
// handles on the hot and background paths, the application's tracer, and
// the built-in slow-op log; opEnd hands an end event to each that is set.
// A nil *engineObs means observability is fully disabled: every
// instrumented path checks one pointer and takes no timestamp, so the
// disabled cost is a branch — paper-figure experiments stay byte-identical.
//
// The histograms are nil when no Registry is configured (a tracer can run
// without metrics); obs histogram handles are nil-safe, so the record
// calls need no second gate.
type engineObs struct {
	tracer obs.Tracer
	slow   *obs.SlowLog

	// ios lets traced ops carry per-source I/O byte deltas
	// (OpEvent.ReadBytes/WriteBytes): opStart snapshots the op's source
	// counters and opEnd subtracts.
	ios *obs.IOStats

	// sampleMask gates the hot-op latency timestamps (AddRef, RemoveRef,
	// Query): one op in every mask+1 per sample slot is timed, keeping
	// the enabled overhead of two clock reads per op off the common case.
	// Zero records every op — the configuration when a tracer or the
	// slow-op log is attached (their events need real durations) or when
	// Options.MetricsSampleEvery is 1. Counters are unaffected: they
	// mirror the Stats atomics and stay exact.
	sampleMask uint64
	samples    [sampleSlots]sampleCounter

	// Hot-path latencies (ns).
	addRef     *obs.Histogram
	removeRef  *obs.Histogram
	query      *obs.Histogram
	queryRange *obs.Histogram
	relocate   *obs.Histogram

	// Checkpoint phase timings (ns). The structural lock is held
	// exclusively during freeze and install — the only windows in which a
	// checkpoint stalls updates and queries — and not at all during flush.
	cpFreeze  *obs.Histogram
	cpFlush   *obs.Histogram
	cpInstall *obs.Histogram

	// Background maintenance durations (ns).
	compact *obs.Histogram
	expire  *obs.Histogram

	// pageDecode times the validate-and-sample pass over one compressed
	// leaf page read on a query's page-cache miss (a merge scan validates
	// current-format leaves as it streams, with no such pass); handed to
	// the LSM layer at Open.
	pageDecode *obs.Histogram

	// WAL metrics, handed to wal.Open via wal.Options.
	walAppend *obs.Histogram
	walFlush  *obs.Histogram
	walBatch  *obs.Histogram
}

// sampleSlots is the number of padded per-shard sample counters; shards
// map onto slots by index mask, so distinct shards rarely contend on the
// same counter cache line.
const sampleSlots = 16

// defaultSampleEvery is the hot-op latency sampling period when
// Options.MetricsSampleEvery is unset.
const defaultSampleEvery = 32

// sampleCounter is a cache-line-padded atomic counter: adjacent shards'
// sampling decisions must not false-share, or the sampling would cost
// what it exists to avoid.
type sampleCounter struct {
	n atomic.Uint64
	_ [56]byte
}

// newEngineObs builds the observability state, or returns nil when every
// surface is disabled. Histograms register against opts.Metrics (nil
// registry ⇒ nil handles, which record as no-ops — the tracer still sees
// events).
func newEngineObs(opts Options) *engineObs {
	if opts.Metrics == nil && opts.Tracer == nil && opts.SlowOpThreshold <= 0 {
		return nil
	}
	o := &engineObs{tracer: opts.Tracer}
	if opts.SlowOpThreshold > 0 {
		o.slow = obs.NewSlowLog(opts.SlowOpThreshold, obs.DefaultSlowLogSize)
	}
	if !o.traced() {
		every := opts.MetricsSampleEvery
		if every <= 0 {
			every = defaultSampleEvery
		}
		o.sampleMask = pow2Mask(every)
		// Seed every slot at the mask so the first op it sees is sampled
		// — short-lived processes get latency data immediately instead of
		// after sampleMask ops per slot.
		for i := range o.samples {
			o.samples[i].n.Store(o.sampleMask)
		}
	}
	r := opts.Metrics
	lat := obs.LatencyBuckets()
	o.addRef = r.Histogram("backlog_addref_ns", "AddRef latency", "ns", lat)
	o.removeRef = r.Histogram("backlog_removeref_ns", "RemoveRef latency", "ns", lat)
	o.query = r.Histogram("backlog_query_ns", "Query latency (one block)", "ns", lat)
	o.queryRange = r.Histogram("backlog_queryrange_ns", "QueryRange latency (whole range)", "ns", lat)
	o.relocate = r.Histogram("backlog_relocate_ns", "RelocateBlock latency", "ns", lat)
	o.cpFreeze = r.Histogram("backlog_checkpoint_freeze_ns",
		"Checkpoint freeze (exclusive structural lock held): swap in fresh write stores and cut the log, writing its buffered records and a cut mark into a segment made ahead; no file creation, no fsync", "ns", lat)
	o.cpFlush = r.Histogram("backlog_checkpoint_flush_ns",
		"Checkpoint run-building flush phase (no structural lock held)", "ns", lat)
	o.cpInstall = r.Histogram("backlog_checkpoint_install_ns",
		"Checkpoint install (exclusive structural lock held): swap the committed runs and manifest into memory and drop the frozen write stores; the manifest was written and synced before, as the trailer of the last run file, with no structural lock held", "ns", lat)
	o.compact = r.Histogram("backlog_compaction_ns", "Duration of one partition compaction", "ns", lat)
	o.expire = r.Histogram("backlog_expire_ns", "Duration of one Expire call: reap zombies, then commit the catalog and the runs no snapshot reaches", "ns", lat)
	o.pageDecode = r.Histogram("backlog_page_decode_ns",
		"Latency of the pass that validates one compressed leaf page read from storage (page-cache misses only)", "ns", lat)
	o.walAppend = r.Histogram("backlog_wal_append_ns",
		"WAL append latency per record: enqueue to fsynced (Sync), or to buffered in memory plus any log write the appender led or waited out (Buffered)", "ns", lat)
	o.walFlush = r.Histogram("backlog_wal_flush_ns",
		"WAL flush duration: one WriteAt of the pending buffer plus, in Sync mode, one fsync", "ns", lat)
	o.walBatch = r.Histogram("backlog_wal_batch_records",
		"Records per WAL flush: the group-commit batch (Sync) or the coalesced buffer (Buffered)", "ops", obs.CountBuckets(16))
	return o
}

// traced reports whether anything receives end events: the application's
// tracer or the slow-op log.
func (o *engineObs) traced() bool { return o.tracer != nil || o.slow != nil }

// pow2Mask returns the smallest power-of-two-minus-one mask covering n,
// so the sampling test is a single AND instead of a modulo.
func pow2Mask(n int) uint64 {
	m := uint64(1)
	for m < uint64(n) {
		m <<= 1
	}
	return m - 1
}

// sampleHot is the hot-path gate: AddRef, RemoveRef, and Query call it
// before doing any observability work at all, so an unsampled op pays one
// atomic add and a branch — no shard lookup, no timestamps, no event
// construction. Background and rare ops (checkpoint phases, compaction,
// expiry, relocation, range queries) skip the gate and are always timed:
// their rate is low and their tail is the interesting part. A tracer or
// the slow-op log disables sampling — their events always carry real
// durations.
func (o *engineObs) sampleHot(block uint64) bool {
	if o.traced() {
		return true
	}
	return o.samples[block%sampleSlots].n.Add(1)&o.sampleMask == 0
}

// opToken carries an operation's begin state from opStart to opEnd: the
// timestamp plus a snapshot of the op's source I/O counters, so the end
// event can report how many device bytes the op's subsystem moved while
// it ran.
type opToken struct {
	start    time.Time
	ioR, ioW uint64
}

// opSource maps an op kind to the I/O source its work is attributed to.
// AddRef/RemoveRef move bytes only through the WAL (write-store inserts
// are memory); queries and relocations read through the query-tagged run
// handles.
func opSource(kind obs.OpKind) storage.Source {
	switch kind {
	case obs.OpAddRef, obs.OpRemoveRef:
		return storage.SrcWAL
	case obs.OpQuery, obs.OpQueryRange, obs.OpRelocate:
		return storage.SrcQuery
	case obs.OpCheckpoint:
		return storage.SrcCheckpoint
	case obs.OpCompact:
		return storage.SrcCompaction
	case obs.OpExpire:
		return storage.SrcExpiry
	}
	return storage.SrcUnknown
}

// opStart stamps an operation's begin time (plus its source's I/O counter
// snapshot) and emits the start trace event. Hot-path callers gate on
// sampleHot first, so the work here only happens when some observability
// surface wants it.
func (o *engineObs) opStart(kind obs.OpKind, shard int, block, cp uint64) opToken {
	tok := opToken{start: time.Now()}
	tok.ioR, tok.ioW = o.ios.SourceBytes(opSource(kind))
	if o.tracer != nil {
		o.tracer.OpStart(obs.OpEvent{Kind: kind, Shard: shard, Block: block, CP: cp, Start: tok.start})
	}
	return tok
}

// opEnd records the operation's latency and hands the end event, carrying
// the source's I/O byte deltas since opStart, to the tracer and the
// slow-op log, each if set. The deltas are global per source, not per
// goroutine: concurrent same-source ops each see the sum of what ran
// during their window — imprecise under overlap, but enough to tell an
// I/O-bound slow op from a compute-bound one.
func (o *engineObs) opEnd(kind obs.OpKind, shard int, block, cp uint64, tok opToken, h *obs.Histogram, err error) {
	d := time.Since(tok.start)
	h.ObserveDuration(d)
	if !o.traced() {
		return
	}
	ev := obs.OpEvent{Kind: kind, Shard: shard, Block: block, CP: cp, Start: tok.start, Dur: d, Err: err}
	r, w := o.ios.SourceBytes(opSource(kind))
	ev.ReadBytes, ev.WriteBytes = r-tok.ioR, w-tok.ioW
	if o.tracer != nil {
		o.tracer.OpEnd(ev)
	}
	if o.slow != nil {
		o.slow.OpEnd(ev)
	}
}

// registerMetrics wires the engine's state into the registry: the rows of
// counterTable, which read the atomics Stats reads (so hot paths are never
// charged twice for the same event), and gauges computed from live
// structures at scrape time. Called once at Open, after the WAL and shards
// exist.
func (e *Engine) registerMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	for _, c := range e.counterTable() {
		r.CounterFunc(c.name, c.help, c.read)
	}
	if e.wal != nil {
		r.GaugeFunc("backlog_wal_buffered_bytes", "WAL record bytes accepted but not yet handed to the OS",
			func() float64 { return float64(e.wal.BufferedBytes()) })
		r.GaugeFunc("backlog_wal_segments", "Live write-ahead-log segment files",
			func() float64 { return float64(e.wal.SegmentCount()) })
	}
	if e.obs != nil && e.obs.slow != nil {
		r.CounterFunc("backlog_slow_ops_total", "Ops that exceeded the slow-op threshold",
			e.obs.slow.Total)
	}

	// Gauges over live structures. Scrapes run with no engine lock held
	// (Metrics/debug endpoint), so the short shared acquisitions here
	// cannot deadlock; they only delay a scrape behind an exclusive
	// critical section, which is bounded (freeze/install are pointer
	// swaps).
	r.GaugeFunc("backlog_view_pins", "LSM views currently pinned by queries and compactions",
		func() float64 { return float64(e.db.ActiveViews()) })
	r.GaugeFunc("backlog_deferred_run_files", "Superseded run files awaiting deletion behind pinned views",
		func() float64 { return float64(e.db.DeferredFiles()) })
	r.GaugeFunc("backlog_runs_live", "Live read-store runs", func() float64 {
		return float64(e.RunCount())
	})
	// Per-level run counts (summed across partitions and tables) expose
	// the shape PolicyLeveled maintains; the last bucket lumps every
	// deeper level so the series stays bounded.
	const levelGauges = 8
	levelCount := func(level int) float64 {
		e.mu.RLock()
		defer e.mu.RUnlock()
		var n int
		for _, part := range e.db.PartitionLevelCounts() {
			for l, c := range part {
				if l == level || (level == levelGauges-1 && l > level) {
					n += c
				}
			}
		}
		return float64(n)
	}
	for level := 0; level < levelGauges; level++ {
		help := "Live runs at this maintenance level"
		if level == levelGauges-1 {
			help = "Live runs at this maintenance level or deeper"
		}
		r.GaugeFunc(obs.MetricName("backlog_runs_level", "level", strconv.Itoa(level)), help,
			func() float64 { return levelCount(level) })
	}
	r.GaugeFunc("backlog_db_bytes", "On-disk size of the database", func() float64 {
		return float64(e.SizeBytes())
	})
	// Per-table compression accounting — logical bytes (records x record
	// size), physical on-disk bytes and their ratio — computed from the
	// live run set at scrape time.
	for _, table := range []string{TableFrom, TableTo, TableCombined} {
		sums := func() (logical, physical int64) {
			e.mu.RLock()
			defer e.mu.RUnlock()
			for _, ri := range e.db.RunInfos() {
				if ri.Table != table {
					continue
				}
				logical += ri.LogicalBytes
				physical += ri.SizeBytes
			}
			return logical, physical
		}
		r.GaugeFunc(obs.MetricName("backlog_run_logical_bytes", "table", table),
			"Decoded size of the table's live run records",
			func() float64 { l, _ := sums(); return float64(l) })
		r.GaugeFunc(obs.MetricName("backlog_run_physical_bytes", "table", table),
			"On-disk size of the table's live runs (pages + Bloom filters)",
			func() float64 { _, p := sums(); return float64(p) })
		r.GaugeFunc(obs.MetricName("backlog_run_compression_ratio", "table", table),
			"Logical / physical size of the table's live runs",
			func() float64 {
				l, p := sums()
				if p == 0 {
					return 0
				}
				return float64(l) / float64(p)
			})
	}
	// The write-amplification gauges sample the monitor at scrape time
	// (IOReport shares the same monitor), so their window resolution is
	// the scrape interval.
	r.GaugeFunc("backlog_write_amp",
		"Rolling write amplification: device bytes written / user bytes in, over the monitor window",
		func() float64 { return e.IOReport().WindowWriteAmp })
	r.GaugeFunc("backlog_write_amp_cumulative",
		"Cumulative write amplification since Open",
		func() float64 { return e.IOReport().WriteAmp })
	if e.cache != nil {
		// The shared cache holds verified on-disk payloads at their used
		// length — a compressed leaf as its packed payload beside its parsed
		// header — and only of runs some view can still read; a hit means a query skipped the page
		// read, the CRC and the validating pass. The series keep the names
		// they had when the cache held decoded leaves: series.golden pins
		// them.
		r.CounterFunc("backlog_decoded_cache_hits_total", "Page-cache hits (verified pages served without I/O, among them pages that checkpoints wrote through to the cache; compressed leaves are cached encoded)",
			func() uint64 { h, _ := e.cache.Stats(); return uint64(h) })
		r.CounterFunc("backlog_decoded_cache_misses_total", "Page-cache misses (page read from storage, checksummed and validated: a page of a run opened from disk, of a merge's output, or of a checkpoint's run whose page was evicted or did not fit when it was written)",
			func() uint64 { _, m := e.cache.Stats(); return uint64(m) })
		r.GaugeFunc("backlog_decoded_cache_bytes", "Bytes charged to the shared page cache: each resident page's payload at its used length (a compressed leaf's packed payload; its parsed header is not charged), for runs not yet removed",
			func() float64 { return float64(e.cache.SizeBytes()) })
	}
	r.GaugeFunc("backlog_frozen_shards", "Write-store shards with a frozen generation (checkpoint flush in flight)",
		func() float64 {
			e.mu.RLock()
			defer e.mu.RUnlock()
			var n int
			for _, s := range e.shards {
				if s.frozen != nil {
					n++
				}
			}
			return float64(n)
		})
	for i, s := range e.shards {
		r.GaugeFunc(obs.MetricName("backlog_ws_records", "shard", strconv.Itoa(i)),
			"Buffered write-store records in the shard's active trees",
			func() float64 {
				s.mu.RLock()
				n := s.active.len()
				s.mu.RUnlock()
				return float64(n)
			})
		r.GaugeFunc(obs.MetricName("backlog_ws_frozen_records", "shard", strconv.Itoa(i)),
			"Write-store records frozen mid-flush in the shard",
			func() float64 {
				e.mu.RLock()
				defer e.mu.RUnlock()
				return float64(s.frozen.len())
			})
	}
}

// Metrics returns a snapshot of the engine's metrics registry (empty when
// observability is disabled).
func (e *Engine) Metrics() obs.Snapshot { return e.opts.Metrics.Snapshot() }

// SlowOps returns the retained slow-op events, oldest first (nil when no
// slow-op log is configured; see Options.SlowOpThreshold).
func (e *Engine) SlowOps() []obs.OpEvent {
	if e.obs == nil || e.obs.slow == nil {
		return nil
	}
	return e.obs.slow.Snapshot()
}

// SlowLog returns the built-in slow-op log, or nil when disabled.
func (e *Engine) SlowLog() *obs.SlowLog {
	if e.obs == nil {
		return nil
	}
	return e.obs.slow
}
