package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/backlogfs/backlog/internal/btree"
	"github.com/backlogfs/backlog/internal/errgroup"
	"github.com/backlogfs/backlog/internal/lsm"
	"github.com/backlogfs/backlog/internal/memtree"
	"github.com/backlogfs/backlog/internal/obs"
	"github.com/backlogfs/backlog/internal/storage"
	"github.com/backlogfs/backlog/internal/wal"
)

// Options configures an Engine.
type Options struct {
	// VFS is where the back-reference database lives. Required.
	VFS storage.VFS
	// Catalog supplies snapshot topology for masking, inheritance
	// expansion, and purging. Required. The engine keeps it: Open fills it
	// from the manifest, replacing what it holds, before anything consults
	// the topology (a manifest written without a catalog leaves it as
	// given), and every manifest commit — a checkpoint's, the one Expire,
	// Compact and Close end with — carries it as it is at that moment,
	// with the merges installed in memory since the last commit, so a
	// purge is never durable without a topology that justifies it (the
	// merge's pinned one, or a later one, which keeps no more).
	Catalog *MemCatalog
	// CacheBytes sizes the shared page cache (default 32 MB, the paper's
	// micro-benchmark configuration). Pages are cached in their on-disk
	// encoding (a delta leaf packed) and charged the bytes they pin, the payload at its used length, so the
	// budget covers as many bytes of the store in memory as on disk, and
	// pages of a run that is merged away or expired stop counting when its
	// file goes. A checkpoint's pages
	// enter the cache as they are written, where it has room (they evict
	// nothing), so queries and the next merge read a fresh run from
	// memory; a merge caches none of its output. Negative disables
	// caching.
	CacheBytes int64
	// Partitions is the number of block-range partitions (default 1).
	Partitions int
	// PartitionSpan is the number of blocks per partition (required when
	// Partitions > 1); the last partition also takes every later block.
	PartitionSpan uint64
	// WriteShards is the number of hash-partitioned write-store shards
	// (default runtime.GOMAXPROCS(0)). Each shard has its own mutex and
	// From/To/Combined trees, so concurrent AddRef/RemoveRef calls on
	// different shards never contend. Sharding buys update concurrency
	// only: Checkpoint merges the shards back into one sorted stream per
	// table, so the run files it writes are byte for byte those of the
	// paper's single write store (WriteShards 1).
	WriteShards int
	// BloomMaxBytes caps From/To run filters (default 1 MB); Combined run
	// filters always take the lsm layer's default cap, also 1 MB. Below its
	// cap every run's filter is sized by the run's distinct blocks, for the
	// paper's 2.4 % false-positive target: a delta run's at exactly 8 bits
	// a block, so a per-CP run of 32 000 blocks carries the paper's 32 KB
	// filter and a compacted run a larger one; a raw run's at the power of
	// two the paper's halving rule reaches, between 8 and 16 bits a block.
	BloomMaxBytes int
	// Compression selects the on-disk run format. It exists for the
	// paper-figure experiments and the tests, which pin raw fixed-stride
	// v1 runs (CompressionNone), the paper's layout; the public API writes
	// the default, CompressionDelta: format-v6 runs whose leaves bit-pack
	// each column at the width it spans on the page. Runs of every
	// readable format — those two and the previous delta format, v5 —
	// open and query under either setting, and every new run is written
	// in the configured format. Under CompressionDelta a maintenance pass
	// also rewrites every v5 run into v6 at its level, records and CP
	// window unchanged (the format horizon). A run of an earlier format
	// (v2, v3, v4) is refused by name at Open, with the binary that
	// rewrites it.
	Compression Compression
	// Durability selects when reference updates become crash-durable
	// (default wal.CheckpointOnly, the paper's behavior: buffered updates
	// are lost on crash). wal.Buffered appends every update to a
	// write-ahead log without fsync; wal.Sync group-commits with an fsync
	// per batch, so an acknowledged update survives any crash. Open
	// replays the log tail into the write stores, and Checkpoint retires
	// it.
	Durability wal.Durability
	// CompactionPolicy plans the merges of a maintenance pass
	// (MaintainNow). Nil selects PolicyFull — whole-partition worst-first
	// merging past FullThreshold runs, the paper's Section 5.2
	// maintenance. PolicyLeveled trades a
	// few extra runs per partition for stepped merging that bounds write
	// amplification to one rewrite per level; see the policy types for
	// the full contract.
	CompactionPolicy CompactionPolicy
	// Fanout is PolicyLeveled's stepped-merge fanout: the per-table run
	// count at one level of a partition that triggers merging the level
	// up (DefaultFanout if zero; values below 2 are clamped). At Level 0
	// that is a count of checkpoints: each adds one run per table.
	Fanout int

	// Metrics, when non-nil, registers the engine's metrics with the
	// registry: CounterFunc mirrors of every Stats counter, gauges over
	// live structures (write-store sizes per shard, view pins, deferred
	// run files, frozen generations), and latency histograms on the hot
	// and background paths (AddRef/RemoveRef/Query/QueryRange, WAL
	// append/flush/batch-size, checkpoint freeze/flush/install,
	// compaction, expiry). Nil disables metrics entirely; the
	// instrumented paths then cost one pointer check and take no
	// timestamps, so experiment results stay byte-identical.
	Metrics *obs.Registry
	// Tracer receives start/end events for every instrumented operation.
	// Both hooks run inline on the operation's goroutine; see obs.Tracer.
	Tracer obs.Tracer
	// SlowOpThreshold enables the built-in slow-op log: operations whose
	// duration meets the threshold are retained in a bounded ring buffer of
	// obs.DefaultSlowLogSize entries (see Engine.SlowOps). Zero disables
	// it.
	SlowOpThreshold time.Duration
	// MetricsSampleEvery is the hot-op latency sampling period: one
	// AddRef/RemoveRef/Query in every MetricsSampleEvery (rounded up to a
	// power of two; default 32) is timed into its histogram. 1 times every
	// op. Ignored when a tracer is attached — trace events always carry
	// real durations. Counters and background-op histograms are always
	// exact.
	MetricsSampleEvery int
	// Retention selects the snapshot-retention policy. RetainAll (the
	// default) changes nothing: records referring only to deleted
	// snapshots are reclaimed by compaction alone. RetainLive makes
	// retention a rule of the commit: every manifest commit — a
	// checkpoint's, a merge's, and the one Expire, Close and every
	// maintenance pass end with — drops the Combined runs the live
	// topology no longer reaches, in the same commit. Compaction switches
	// to CP-tiered merging that seals finished Combined windows instead of
	// re-merging them, and queries skip Combined runs entirely below the
	// reclaim horizon. It starts no goroutine.
	Retention RetentionPolicy
}

// RetentionPolicy selects how aggressively the engine reclaims records of
// deleted snapshots; see Options.Retention.
type RetentionPolicy int

const (
	// RetainAll keeps every record until a compaction purges it — the
	// paper's baseline behavior.
	RetainAll RetentionPolicy = iota
	// RetainLive expires records wholesale: runs whose CP window falls
	// entirely below the oldest reachable snapshot are dropped without
	// being read.
	RetainLive
)

// Stats counts engine activity. All counters are cumulative.
type Stats struct {
	RefsAdded      uint64 // AddRef calls
	RefsRemoved    uint64 // RemoveRef calls
	PrunedAdds     uint64 // To entries cancelled by a same-CP AddRef
	PrunedRemoves  uint64 // From entries cancelled by a same-CP RemoveRef
	Checkpoints    uint64
	Compactions    uint64
	RecordsFlushed uint64 // records written to Level-0 runs
	RecordsPurged  uint64 // records dropped by compaction
	Queries        uint64 // blocks answered: one per Query, one per block QueryRange visits
	Relocations    uint64
	// CompactWriteBytes is the physical bytes written by installed
	// compactions (full and leveled) — the numerator of measured write
	// amplification. Checkpoint flushes are not included.
	CompactWriteBytes uint64
	Expiries          uint64 // commits that expired at least one run
	RunsExpired       uint64 // runs dropped whole by expiry (never read)
	RecordsExpired    uint64 // records inside runs dropped by expiry
	WALAppends        uint64 // records appended to the write-ahead log
	WALBatches        uint64 // WAL flushes (one WriteAt each, plus a Sync in Sync mode)
	WALGathers        uint64 // Sync flushes whose leader held the slot for appenders on their way back
	WALGathersFilled  uint64 // gathers that got every record they waited for
	WALReplayed       uint64 // records replayed from the WAL at Open
}

// counters holds the engine's own counter atomics; shard-parallel AddRef
// and RemoveRef bump these without taking any engine-wide lock. Stats and
// the metrics registry read them through counterTable.
type counters struct {
	refsAdded         atomic.Uint64
	refsRemoved       atomic.Uint64
	prunedAdds        atomic.Uint64
	prunedRemoves     atomic.Uint64
	checkpoints       atomic.Uint64
	compactions       atomic.Uint64
	compactConflicts  atomic.Uint64
	autoCompactions   atomic.Uint64
	maintErrors       atomic.Uint64
	recordsFlushed    atomic.Uint64
	recordsPurged     atomic.Uint64
	compactWriteBytes atomic.Uint64
	queries           atomic.Uint64
	relocations       atomic.Uint64
	expiries          atomic.Uint64
	runsExpired       atomic.Uint64
	recordsExpired    atomic.Uint64
}

// A counterRow is one engine counter series: its name and help text, the
// Stats field it fills ("" for a series only the registry carries), and
// the read of its value.
type counterRow struct {
	name, help, stat string
	read             func() uint64
}

// counterTable declares every engine counter series once, in registration
// order; Engine.Stats and registerMetrics both loop over it. The log's
// rows exist only when the engine has a log.
func (e *Engine) counterTable() []counterRow {
	c := &e.stats
	rows := []counterRow{
		{"backlog_refs_added_total", "AddRef calls", "RefsAdded", c.refsAdded.Load},
		{"backlog_refs_removed_total", "RemoveRef calls", "RefsRemoved", c.refsRemoved.Load},
		{"backlog_pruned_adds_total", "To entries cancelled by a same-CP AddRef", "PrunedAdds", c.prunedAdds.Load},
		{"backlog_pruned_removes_total", "From entries cancelled by a same-CP RemoveRef", "PrunedRemoves", c.prunedRemoves.Load},
		{"backlog_checkpoints_total", "Committed checkpoints", "Checkpoints", c.checkpoints.Load},
		{"backlog_compactions_total", "Merges installed, one per job (a maintenance pass under PolicyLeveled can install several in one partition)", "Compactions", c.compactions.Load},
		{"backlog_compact_conflicts_total", "Merges that installed nothing because their inputs moved (the job returns to its planner)", "", c.compactConflicts.Load},
		{"backlog_auto_compactions_total", "Merges installed by maintenance passes", "", c.autoCompactions.Load},
		{"backlog_maintenance_errors_total", "Maintenance passes abandoned on error", "", c.maintErrors.Load},
		{"backlog_records_flushed_total", "Records written to Level-0 runs", "RecordsFlushed", c.recordsFlushed.Load},
		{"backlog_records_purged_total", "Records dropped by compaction", "RecordsPurged", c.recordsPurged.Load},
		{"backlog_compaction_write_bytes_total", "Physical bytes written by installed compactions", "CompactWriteBytes", c.compactWriteBytes.Load},
		{"backlog_queries_total", "Blocks queried", "Queries", c.queries.Load},
		{"backlog_relocations_total", "RelocateBlock calls", "Relocations", c.relocations.Load},
		{"backlog_expiries_total", "Commits that expired at least one run", "Expiries", c.expiries.Load},
		{"backlog_runs_expired_total", "Runs dropped whole by expiry", "RunsExpired", c.runsExpired.Load},
		{"backlog_records_expired_total", "Records inside runs dropped by expiry", "RecordsExpired", c.recordsExpired.Load},
		{"backlog_wal_replayed_total", "WAL records replayed at Open", "WALReplayed", func() uint64 { return e.walReplayed }},
	}
	if e.wal == nil {
		return rows
	}
	return append(rows,
		counterRow{"backlog_wal_appends_total", "Records appended to the write-ahead log", "WALAppends", func() uint64 { return e.wal.Stats().Appends }},
		counterRow{"backlog_wal_batches_total", "WAL flushes (device writes of the pending buffer)", "WALBatches", func() uint64 { return e.wal.Stats().Batches }},
		counterRow{"backlog_wal_gathers_total", "Sync flushes whose leader held the flush slot for appenders on their way back", "WALGathers", func() uint64 { return e.wal.Stats().Gathers }},
		counterRow{"backlog_wal_gathers_filled_total", "Gathers that got every record they waited for before the bound", "WALGathersFilled", func() uint64 { return e.wal.Stats().GathersFilled }},
	)
}

// generation is one set of write-store trees, one per table, indexed like
// tables. A shard's active generation takes updates; a checkpoint freezes
// it whole. The Combined tree is used only by relocation.
type generation [3]*memtree.Tree[wsRec]

func newGeneration() *generation {
	return &generation{memtree.New(lessRec), memtree.New(lessRec), memtree.New(lessRec)}
}

// len returns the generation's record count; a nil generation is empty.
func (g *generation) len() int {
	n := 0
	if g != nil {
		for _, t := range g {
			n += t.Len()
		}
	}
	return n
}

// mergeInto inserts every record of the generation into dst.
func (g *generation) mergeInto(dst *generation) {
	for i, t := range g {
		it := t.IterAll()
		for r, ok := it.Next(); ok; r, ok = it.Next() {
			dst[i].Insert(r)
		}
	}
}

// collect appends a copy of the encoding of each of the generation's
// records of the blocks [lo, last] to mem, one list per table.
func (g *generation) collect(lo, last uint64, mem *[3][][]byte) {
	var first wsRec // the smallest record of block lo
	binary.BigEndian.PutUint64(first[:], lo)
	for i, t := range g {
		t.Scan(first, func(r wsRec) bool {
			if binary.BigEndian.Uint64(r[:]) > last {
				return false
			}
			mem[i] = append(mem[i], slices.Clone(r[:recSizes[i]]))
			return true
		})
	}
}

// writeShard is one hash partition of the write store: a lock plus the
// per-table in-memory trees. A reference with physical block b lives in
// shard mix64(b) % N, so proactive pruning (which pairs an AddRef with a
// same-CP RemoveRef of the same Ref) always finds both entries under one
// shard lock. Queries only read the trees and take the lock shared, so
// concurrent queries on one shard never serialize against each other —
// only against updates to the same shard.
type writeShard struct {
	mu     sync.RWMutex
	active *generation

	// frozen holds the records a running checkpoint is flushing: Checkpoint
	// moves the active generation here under the exclusive structural lock,
	// builds runs from it with no lock held, and drops it (or merges it
	// back, on error) when it re-acquires the lock. Non-nil only while that
	// flush is in flight, and read-only to everyone for that long: updates
	// go to the fresh active generation, and RelocateBlock — the one call
	// that would have to delete from it — waits for the checkpoint to end.
	frozen *generation
}

// Engine is the Backlog back-reference database.
//
// Concurrency: mu is the structural lock. AddRef and RemoveRef acquire it
// shared and then lock the single shard owning the block, so updates on
// different shards run in parallel. Query and QueryRange acquire it
// shared only long enough to pin an immutable LSM view and snapshot the
// write-store records of the blocks they read (active and frozen); all
// run I/O happens against the pinned view with no lock held. Checkpoint
// acquires it exclusively only twice, to swap pointers: to freeze the write
// stores and cut the log (the buffered records into the outgoing segment,
// the mark into one made ahead: no creation, no fsync), and to swap the
// committed runs in and drop the frozen stores. The run building in between, the cut mark's fsync, and the
// commit's own I/O — the manifest written as the trailer of the last run
// file, that file synced, the directory synced — hold no
// structural lock, so updates tagged for the next consistency point and
// queries proceed meanwhile. Compaction likewise merges against a pinned
// view outside the lock and acquires it exclusively only for the swap, so
// queries and updates never stall behind a running compaction or a
// flushing checkpoint. RelocateBlock holds it exclusively for its whole
// run, and queues behind an in-flight checkpoint first.
//
// Lock order: cpMu → mu → a shard's mu; a merge starts at mu, and takes cpMu
// only with no other lock held, to install. walErrMu and lsm's viewMu and
// idMu are leaves: nothing is acquired under them.
type Engine struct {
	mu      sync.RWMutex
	opts    Options
	vfs     storage.VFS
	catalog *MemCatalog
	db      *lsm.DB
	cache   *btree.Cache

	// cpMu serializes every manifest commit and every deletion-vector
	// mutation. Checkpoint holds it end to end (including the lock-free
	// flush), so nothing commits and RelocateBlock cannot interleave while
	// the write stores are frozen but the runs are not yet installed; a
	// merge takes it only to validate and install, and commitNow to commit.
	// A commit holding it does its I/O with no structural lock held: the
	// state it was built from cannot move (see commit).
	cpMu sync.Mutex

	shards []*writeShard

	// wal is the write-ahead log (nil in CheckpointOnly mode). Updaters
	// append under the shared structural lock; Checkpoint makes the next
	// segment ahead under cpMu alone and cuts the log under the exclusive
	// lock, which is what lets wal.Log.Cut assume no append is in flight.
	wal *wal.Log
	// walReplayed counts records replayed at Open.
	walReplayed uint64
	// staleWAL notes that CheckpointOnly-mode Open found and replayed
	// leftover segments from a Buffered/Sync incarnation; the next
	// Checkpoint deletes them.
	staleWAL bool

	// walErrMu guards walErr, the sticky durability error: a WAL append
	// failed, so updates acknowledged since then are NOT crash-durable
	// despite the configured mode. A successful Checkpoint clears it
	// (the updates become durable in the read store).
	walErrMu sync.Mutex
	walErr   error

	stats counters

	// settled holds, by partition, what the last whole merge left there
	// (see settledWhole), so that Compact reaches a fixed point.
	settled []atomic.Pointer[settledPart]

	// ios is the purpose-tagged I/O accountant every VFS operation reports
	// to (wal, checkpoint, compaction, query, expiry, recovery, manifest —
	// a few atomic adds per I/O; see IOReport and the backlog_io_* metric
	// families); wamp is the rolling write-amplification monitor fed from
	// it at IOReport/scrape time.
	ios  *obs.IOStats
	wamp *obs.WriteAmp

	// obs is the observability state (nil when Options.Metrics, Tracer,
	// and SlowOpThreshold are all unset). Instrumented paths gate every
	// timestamp on this pointer, so disabled observability costs one
	// branch per operation.
	obs *engineObs
}

// Open opens or creates a Backlog database.
func Open(opts Options) (*Engine, error) {
	if opts.VFS == nil {
		return nil, errors.New("core: Options.VFS is required")
	}
	if opts.Catalog == nil {
		return nil, errors.New("core: Options.Catalog is required")
	}
	cacheBytes := opts.CacheBytes
	if cacheBytes == 0 {
		cacheBytes = 32 << 20
	}
	var cache *btree.Cache
	if cacheBytes > 0 {
		cache = btree.NewCacheBytes(cacheBytes)
	}
	if opts.Compression != CompressionDelta && opts.Compression != CompressionNone {
		return nil, fmt.Errorf("core: unknown Compression %d", opts.Compression)
	}
	// Observability state is built before the LSM layer so run readers can
	// report decode latency into the page-decode histogram from the start.
	eobs := newEngineObs(opts)
	// I/O attribution wraps the VFS before anything opens a file, so even
	// recovery I/O is accounted. Register must precede Attributed: the
	// wrapper snapshots WantsLatency (set by Register) at wrap time.
	ios := obs.NewIOStats()
	ios.Register(opts.Metrics)
	vfs := storage.Attributed(opts.VFS, ios).Tagged(storage.SrcUnknown)
	if eobs != nil {
		eobs.ios = ios
	}
	lopts := lsm.Options{
		Tables: []lsm.TableSpec{
			{Name: TableFrom, RecordSize: FromRecSize, BloomMaxBytes: opts.BloomMaxBytes, Span: spanFrom},
			{Name: TableTo, RecordSize: ToRecSize, BloomMaxBytes: opts.BloomMaxBytes, Span: spanTo},
			{Name: TableCombined, RecordSize: CombinedSize, Span: spanCombined, IsOverride: isOverrideCombined},
		},
		Partitions:    opts.Partitions,
		PartitionSpan: opts.PartitionSpan,
		Cache:         cache,
		RunFormat:     opts.Compression.runFormat(),
	}
	if eobs != nil {
		lopts.DecodeObserver = eobs.pageDecode.ObserveDuration
	}
	// A commit carries the live topology, whatever its merge pinned
	// (keepInterval says why).
	lopts.Section = func() ([]byte, error) { return opts.Catalog.Topology().data, nil }
	db, err := lsm.Open(vfs, lopts)
	if err != nil {
		return nil, err
	}
	if sec := db.Section(); sec != nil {
		// A version-3 manifest has no checksum: a section that parses as
		// JSON but not as a catalog is as corrupt as one that does not.
		if err := opts.Catalog.UnmarshalJSON(sec); err != nil {
			db.Close()
			return nil, fmt.Errorf("%w: core: decoding catalog: %v", lsm.ErrCorrupt, err)
		}
	}
	nShards := opts.WriteShards
	if nShards <= 0 {
		nShards = runtime.GOMAXPROCS(0)
	}
	shards := make([]*writeShard, nShards)
	for i := range shards {
		shards[i] = &writeShard{active: newGeneration()}
	}
	e := &Engine{
		opts:    opts,
		vfs:     vfs,
		catalog: opts.Catalog,
		db:      db,
		cache:   cache,
		shards:  shards,
		ios:     ios,
		wamp:    obs.NewWriteAmp(obs.DefaultWriteAmpWindow),
		settled: make([]atomic.Pointer[settledPart], db.Partitions()),
	}
	e.obs = eobs
	if err := e.openWAL(); err != nil {
		db.Close()
		return nil, err
	}
	e.registerMetrics(opts.Metrics)
	return e, nil
}

// expiryEnabled reports whether drop-based expiry (and with it tiered
// compaction and CP-window query pruning) is active.
func (e *Engine) expiryEnabled() bool { return e.opts.Retention == RetainLive }

// openWAL recovers the write-ahead log tail into the write stores and, in
// Buffered/Sync modes, opens the log for appending. In CheckpointOnly
// mode leftover segments (from a previous Buffered/Sync incarnation) are
// still replayed — silently dropping them would lose acknowledged updates
// on a mere configuration change — and retired at the next Checkpoint.
func (e *Engine) openWAL() error {
	var rec wal.Recovered
	if e.opts.Durability == wal.CheckpointOnly {
		r, err := wal.Recover(e.vfs)
		if err != nil {
			return err
		}
		rec = r
		e.staleWAL = r.Found
	} else {
		wopts := wal.Options{Durability: e.opts.Durability}
		if e.obs != nil {
			wopts.AppendHist = e.obs.walAppend
			wopts.FlushHist = e.obs.walFlush
			wopts.BatchHist = e.obs.walBatch
		}
		log, r, err := wal.Open(e.vfs, wopts)
		if err != nil {
			return err
		}
		e.wal = log
		rec = r
	}
	// Replay only records the read store does not already cover. Two
	// filters compose. First, position: every record logged before a cut
	// mark was applied to the write stores before that cut's checkpoint
	// froze them, so once the manifest CP has reached the cut's CP, some
	// checkpoint has committed those records into runs — drop everything
	// before the last such cut. This covers records tagged PAST the
	// committing CP (updates that raced a flush and were then re-frozen
	// by a retry), which the CP-tag filter alone would double-apply.
	// Second, CP tags: a crash between a manifest commit and the log
	// retirement it triggers leaves records that are already durable in
	// the read store; their CP tags do not exceed the manifest's, so the
	// tag filter skips them (double-applying an AddRef would flush a
	// duplicate From record).
	committed := e.db.CP()
	records := rec.Records
	for _, c := range rec.Cuts {
		if c.CP <= committed && c.Index <= len(rec.Records) {
			records = rec.Records[c.Index:]
		}
	}
	base := committed
	if rec.MarkCP > base {
		base = rec.MarkCP
	}
	for _, r := range records {
		if r.CP <= base {
			continue
		}
		switch r.Op {
		case wal.OpAddRef:
			e.applyAdd(Ref{Block: r.Block, Inode: r.Inode, Offset: r.Offset, Line: r.Line, Length: r.Length}, r.CP)
		case wal.OpRemoveRef:
			e.applyRemove(Ref{Block: r.Block, Inode: r.Inode, Offset: r.Offset, Line: r.Line, Length: r.Length}, r.CP)
		case wal.OpRelocate:
			if err := e.relocate(r.Block, r.NewBlock, nil); err != nil {
				if e.wal != nil {
					// Release the log this Open will never hand out; a
					// caller retrying Open must not accumulate open
					// segments.
					e.wal.Close()
				}
				return err
			}
		}
		e.walReplayed++
	}
	return nil
}

// shardOf returns the write-store shard owning a block.
func (e *Engine) shardOf(block uint64) *writeShard {
	return e.shards[e.shardIndex(block)]
}

// shardIndex returns the index of the shard owning a block; trace events
// carry it so slow ops can be attributed to a contended shard.
func (e *Engine) shardIndex(block uint64) int {
	if len(e.shards) == 1 {
		return 0
	}
	return int(mix64(block) % uint64(len(e.shards)))
}

// mix64 is the SplitMix64 finalizer: it decorrelates a block's shard from
// allocation locality, so sequential writers spread across shards.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// WriteShards returns the number of write-store shards.
func (e *Engine) WriteShards() int { return len(e.shards) }

// CP returns the last durable consistency point number.
func (e *Engine) CP() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.db.CP()
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	var st Stats
	fields := reflect.ValueOf(&st).Elem()
	for _, c := range e.counterTable() {
		if c.stat != "" {
			fields.FieldByName(c.stat).SetUint(c.read())
		}
	}
	return st
}

// Durability returns the engine's configured durability mode.
func (e *Engine) Durability() wal.Durability { return e.opts.Durability }

// Close releases the engine. It first commits now, as Expire does without
// reaping: a catalog change and the merges no commit has carried and,
// under RetainLive, the runs it made droppable; and when the last commit
// rides a checkpoint's run file, which a reopen would have to verify page
// by page, it commits the same state into a commit file. In Buffered mode it then
// writes out and syncs the write-ahead log, so a clean shutdown preserves
// every buffered reference for replay at the next Open; in Sync mode
// everything is already durable. In CheckpointOnly mode buffered references are
// discarded, exactly like file-system state past the last consistency
// point. Close returns the sticky WAL durability error, if any.
func (e *Engine) Close() error {
	_, err := e.commitNow(commitClose)
	// Serialize against an in-flight checkpoint: closing the log or
	// releasing the engine mid-flush would strand the frozen stores.
	e.cpMu.Lock()
	defer e.cpMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	// e.wal stays set after Close (wal.Log rejects further appends
	// itself): nilling it here would race the unsynchronized reads in
	// Stats, which is documented as safe to call concurrently.
	if e.wal != nil {
		err = errors.Join(err, e.wal.Close())
	}
	if werr := e.WALErr(); err == nil && werr != nil {
		err = werr
	}
	e.db.Close()
	return err
}

// SizeBytes returns the on-disk size of the back-reference database.
func (e *Engine) SizeBytes() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.db.SizeBytes()
}

// RunCount returns the number of live read-store runs.
func (e *Engine) RunCount() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.db.RunCount()
}

// WSLen returns the number of buffered write-store entries (From + To +
// Combined) across all shards, counting both the active generation and any
// frozen one a running checkpoint is flushing (those records are not
// yet durable, so they are still "buffered").
func (e *Engine) WSLen() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var n int
	for _, s := range e.shards {
		s.mu.RLock()
		n += s.active.len()
		s.mu.RUnlock()
		n += s.frozen.len()
	}
	return n
}

// ClearCaches drops the shared page cache; the query experiments do this
// before every run (Section 6.4).
func (e *Engine) ClearCaches() {
	if e.cache != nil {
		e.cache.Clear()
	}
}

// AddRef records that ref became live at CP cp. If the same reference was
// removed earlier within the same CP interval, the two cancel: the To entry
// is deleted from the write store and the original interval simply
// continues (proactive pruning, Section 5.1). In Buffered/Sync durability
// modes the update is logged before it is applied; in Sync mode AddRef
// returns only after the log record is group-committed to disk.
//
// The cp tag must be greater than the last committed checkpoint number:
// crash recovery treats logged records with cp <= the manifest's CP as
// already flushed and skips them. Consistency-point callers (fsim-style:
// ops tagged N, then Checkpoint(N), then ops tagged N+1) satisfy this
// naturally; callers racing AddRef against Checkpoint must not reuse a CP
// number that may already have committed, or those updates — while
// correctly applied in memory — are not protected by the log.
func (e *Engine) AddRef(ref Ref, cp uint64) {
	if ref.Length == 0 {
		ref.Length = 1
	}
	if o := e.obs; o != nil && o.sampleHot(ref.Block) {
		shard := e.shardIndex(ref.Block)
		start := o.opStart(obs.OpAddRef, shard, ref.Block, cp)
		e.addRef(ref, cp)
		o.opEnd(obs.OpAddRef, shard, ref.Block, cp, start, o.addRef, nil)
		return
	}
	e.addRef(ref, cp)
}

func (e *Engine) addRef(ref Ref, cp uint64) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.wal != nil {
		if err := e.wal.Append(wal.Record{
			Op: wal.OpAddRef, CP: cp,
			Block: ref.Block, Inode: ref.Inode, Offset: ref.Offset, Line: ref.Line, Length: ref.Length,
		}); err != nil {
			e.noteWALErr(err)
		}
	}
	e.applyAdd(ref, cp)
}

// applyAdd inserts an AddRef into the write store. Callers hold the
// structural lock shared (or have exclusive access during Open replay);
// the owning shard's mutex provides the fine-grained exclusion.
func (e *Engine) applyAdd(ref Ref, cp uint64) {
	e.stats.refsAdded.Add(1)
	s := e.shardOf(ref.Block)
	s.mu.Lock()
	defer s.mu.Unlock()
	// Proactive pruning only consults the active tree: a matching
	// RemoveRef that sits in a frozen tree (a checkpoint flush is reading
	// it, lock-free) cannot be deleted in place, so the From record is
	// inserted instead and the pair cancels at query/compaction time
	// (pairGroup drops a from == to pair).
	r := refRec(ref, cp)
	if s.active[iTo].Delete(r) {
		e.stats.prunedAdds.Add(1)
		return
	}
	s.active[iFrom].Insert(r)
}

// RemoveRef records that ref ceased to be live at CP cp. If the reference
// was added within the same CP interval, both entries are pruned and
// nothing reaches disk. Logged like AddRef in Buffered/Sync modes.
func (e *Engine) RemoveRef(ref Ref, cp uint64) {
	if ref.Length == 0 {
		ref.Length = 1
	}
	if o := e.obs; o != nil && o.sampleHot(ref.Block) {
		shard := e.shardIndex(ref.Block)
		start := o.opStart(obs.OpRemoveRef, shard, ref.Block, cp)
		e.removeRef(ref, cp)
		o.opEnd(obs.OpRemoveRef, shard, ref.Block, cp, start, o.removeRef, nil)
		return
	}
	e.removeRef(ref, cp)
}

func (e *Engine) removeRef(ref Ref, cp uint64) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.wal != nil {
		if err := e.wal.Append(wal.Record{
			Op: wal.OpRemoveRef, CP: cp,
			Block: ref.Block, Inode: ref.Inode, Offset: ref.Offset, Line: ref.Line, Length: ref.Length,
		}); err != nil {
			e.noteWALErr(err)
		}
	}
	e.applyRemove(ref, cp)
}

// applyRemove is RemoveRef's write-store mutation; see applyAdd for the
// locking contract.
func (e *Engine) applyRemove(ref Ref, cp uint64) {
	e.stats.refsRemoved.Add(1)
	s := e.shardOf(ref.Block)
	s.mu.Lock()
	defer s.mu.Unlock()
	// Like applyAdd, pruning cannot reach into a frozen tree: a RemoveRef
	// whose matching AddRef is mid-flush inserts a To record instead, and
	// the join cancels the pair.
	r := refRec(ref, cp)
	if s.active[iFrom].Delete(r) {
		e.stats.prunedRemoves.Add(1)
		return
	}
	s.active[iTo].Insert(r)
}

// noteWALErr records a durability failure: the write-ahead log could not
// persist a record, so updates since the failure are only as durable as
// CheckpointOnly mode until the next successful Checkpoint (which clears
// the error — everything buffered is then durable in the read store).
func (e *Engine) noteWALErr(err error) {
	e.walErrMu.Lock()
	if e.walErr == nil {
		e.walErr = err
	}
	e.walErrMu.Unlock()
}

// WALErr reports the sticky durability error, if any: non-nil means a log
// append failed and acknowledged updates may not survive a crash until
// the next successful Checkpoint.
func (e *Engine) WALErr() error {
	e.walErrMu.Lock()
	defer e.walErrMu.Unlock()
	return e.walErr
}

// takeWALErr atomically takes and clears the sticky durability error. The
// checkpoint freeze does this: everything the taken error covered is in
// the frozen trees and becomes durable if the checkpoint commits, while
// append failures during the flush concern the next consistency point and
// accumulate afresh.
func (e *Engine) takeWALErr() error {
	e.walErrMu.Lock()
	defer e.walErrMu.Unlock()
	err := e.walErr
	e.walErr = nil
	return err
}

// ErrStaleCP is returned (wrapped) by Checkpoint when the given CP number
// does not exceed the last committed one. Committing it would roll the
// manifest CP backwards and un-skip already-durable write-ahead-log
// records in the crash-replay filter, double-applying them.
var ErrStaleCP = errors.New("core: checkpoint CP not newer than committed CP")

// Checkpoint flushes the write stores to new Level-0 runs — one per table
// and partition with records, as the paper's single write store would
// (Section 5.1), however many shards buffered them, a partition's runs the
// sections of one file — and commits them together with the CP number: a
// consistency point is one run file per partition, the last carrying the
// manifest as its trailer. The
// structural lock is held exclusively only twice, to swap pointers: to
// freeze every shard's trees (swapping in fresh active trees) and cut the
// log, and to swap the committed runs in. All I/O happens outside it, with
// no structural lock held — the run building, the three tables each
// merging the shards' trees into their own runs side by side, and the
// manifest commit — so updates tagged cp+1 and queries proceed meanwhile.
// cp must be greater than the last committed checkpoint number. Concurrent
// Checkpoint calls serialize, and a RelocateBlock, a merge's install or an
// Expire issued during the flush runs right after it. After
// Checkpoint returns, all references up to cp are durable and the frozen
// stores are empty. On error the frozen records are merged back into the
// write stores, each into the shard it froze in, so the caller can retry
// or replay. A commit whose directory sync fails after its trailer's fsync
// has happened: Checkpoint returns nil, and WALErr reports the
// failure until a later checkpoint commits.
func (e *Engine) Checkpoint(cp uint64) error {
	if o := e.obs; o != nil {
		start := o.opStart(obs.OpCheckpoint, -1, 0, cp)
		err := e.checkpoint(cp)
		o.opEnd(obs.OpCheckpoint, -1, 0, cp, start, nil, err)
		return err
	}
	return e.checkpoint(cp)
}

func (e *Engine) checkpoint(cp uint64) error {
	e.cpMu.Lock()
	defer e.cpMu.Unlock()
	// cpMu excludes every other commit: the committed CP cannot move.
	if committed := e.db.CP(); cp <= committed {
		return fmt.Errorf("%w: Checkpoint(%d), committed CP is %d", ErrStaleCP, cp, committed)
	}

	// Phase 1 — freeze: swap every shard's trees and cut the WAL so appends
	// racing the flush land in segments that survive retirement. The log's
	// next segment is made first, with no structural lock held, so that the
	// cut under it is two writes and no file creation or fsync. A failed
	// prepare leaves Cut to create the segment, and to report what fails.
	if e.wal != nil {
		_ = e.wal.PrepareCut()
	}
	start := time.Now()
	e.mu.Lock()
	for _, s := range e.shards {
		s.frozen, s.active = s.active, newGeneration()
	}
	prevWALErr := e.takeWALErr()
	cut := -1
	if e.wal != nil {
		// Cut first writes out whatever the log still buffers in memory:
		// those records just froze with the write stores, and until this
		// checkpoint commits the log is their only durable-to-be copy.
		if c, err := e.wal.Cut(cp); err != nil {
			// The log could not write that buffer or accept the freeze
			// boundary; appends during the flush will fail and note
			// their own errors. The old segments stay tracked for a
			// later retirement.
			e.noteWALErr(err)
		} else {
			cut = c
		}
	}
	e.mu.Unlock()
	if e.obs != nil {
		e.obs.cpFreeze.ObserveDuration(time.Since(start))
	}

	// Phase 2 — flush: build runs from the frozen trees with no
	// structural lock held. The frozen trees are immutable for the
	// duration, and the file set allocates file IDs through lsm's own
	// lock, so this runs concurrently with updates and queries. Each table
	// is one merged stream over every shard's frozen tree; the three tables
	// encode side by side into one file per partition, their runs its
	// sections in table order, writing their pages through to the cache
	// where it has room. The set then writes and syncs each file once.
	// Beside them, a Sync-mode log makes the cut mark durable, which the
	// commit needs (see wal.Log.SyncCut); a failure there is the cut's, as
	// a failed Cut is: noted, and the cut not retired.
	start = time.Now()
	files := e.db.NewFileSet(0, cp, storage.SrcCheckpoint, tables[:]...)
	var counts [3]uint64
	var g errgroup.Group
	for i := range tables {
		g.Go(func() error { return flushTable(e.db, files, &counts[i], i, e.shards) })
	}
	var markErr error
	if cut >= 0 {
		g.Go(func() error {
			markErr = e.wal.SyncCut()
			return nil
		})
	}
	var refs []lsm.RunRef
	err := g.Wait()
	if markErr != nil {
		e.noteWALErr(markErr)
		cut = -1
	}
	if err == nil {
		// A failed Finish removes the set's files itself.
		refs, err = files.Finish()
	} else {
		files.Abort()
	}
	if err == nil && e.obs != nil {
		e.obs.cpFlush.ObserveDuration(time.Since(start))
	}

	// Phase 3 — install: commit every run and the CP atomically, the
	// frozen stores dropped in the same exclusive section that swaps the
	// runs in (see commit). Advancing the CP makes the commit persist a
	// dirty deletion vector beside the re-keyed records this flush wrote
	// (see lsm.Edit.Write). A vector dirty here was dirty at the freeze
	// with the same entries: cpMu has kept relocation out since, and kept
	// every other commit and every merge's install out. The commit also
	// writes the merges installed in memory since the last one. Under
	// RetainLive the same commit drops the runs the live topology no longer
	// reaches, the dirty vector persisted with the drops.
	if err == nil {
		edit := e.db.NewEdit().SetSource(storage.SrcCheckpoint).SetCP(cp)
		for _, ref := range refs {
			edit.AddRun(ref)
		}
		// AddRun transferred ownership of the run files: a commit that
		// fails before its commit point removes them itself.
		_, err = e.commit(edit, commitCheckpoint)
	}
	// A commit whose directory sync failed has installed the checkpoint
	// and noted the error (see commit). The checkpoint has happened, so it
	// reports no error, but until a commit syncs the directory a crash may
	// reopen the previous commit, so the log keeps every segment.
	unsynced := errors.Is(err, lsm.ErrUnsynced)
	if unsynced {
		err, cut = nil, -1
	}
	if err != nil {
		// So that "on error, retry or replay" holds.
		e.mu.Lock()
		for _, s := range e.shards {
			s.frozen.mergeInto(s.active)
			s.frozen = nil
		}
		e.mu.Unlock()
		// The durability error taken at the freeze is in force again.
		if prevWALErr != nil {
			e.noteWALErr(prevWALErr)
		}
		return err
	}
	e.stats.checkpoints.Add(1)
	e.stats.recordsFlushed.Add(counts[0] + counts[1] + counts[2])

	// Everything the log guarded up to the cut is now durable in the read
	// store: retire those segments. Appends that landed during the flush
	// sit past the cut and keep their log protection. A failure HERE must
	// not be returned: the checkpoint itself committed, so the documented
	// "on error, retry or replay" contract no longer applies; unremoved
	// segments replay as no-ops (recovery drops everything before the
	// last cut whose CP the manifest covers, and CP-tag filtering skips
	// the rest) and the failure is recorded as the sticky durability
	// error instead.
	if e.wal != nil {
		if cut >= 0 {
			if err := e.wal.Retire(cut); err != nil {
				e.noteWALErr(err)
			}
		}
	} else if e.staleWAL && !unsynced {
		// Removing stale segments is part of this checkpoint's work.
		if err := wal.RemoveAll(storage.TagVFS(e.vfs, storage.SrcCheckpoint)); err == nil {
			e.staleWAL = false
		}
		// On failure staleWAL stays set; the next checkpoint retries.
	}
	return nil
}

// treeIter adapts a frozen write-store tree of one table to lsm.RecIter:
// each record is the table's encoding, cut from the iterator's own copy.
type treeIter struct {
	it   *memtree.Iter[wsRec]
	size int
	cur  wsRec
}

func (t *treeIter) Next() ([]byte, bool, error) {
	r, ok := t.it.Next()
	if !ok {
		return nil, false, nil
	}
	t.cur = r
	return t.cur[:t.size], true, nil
}

// flushTable streams table i's frozen write-store trees, one per shard,
// into files' runs of the table: one per partition that has records,
// however many shards they froze in. Shards are disjoint by block and each
// tree iterates in ascending record order, which is the byte order of the
// encoding, so the merge of the shards' streams is the stream a single
// write store would have produced; partitions are ascending block ranges,
// so it fills one partition's run after another. The stream ends in
// files.Done, which seals the table's runs, or fails the set. *count is set
// to the table's record count. Called with no structural lock held: the
// trees are frozen (immutable) and the set synchronizes file creation
// internally.
func flushTable(db *lsm.DB, files *lsm.FileSet, count *uint64, i int, shards []*writeShard) (err error) {
	table := tables[i]
	defer func() { err = files.Done(table, err) }()
	var (
		iters []lsm.RecIter
		total int
	)
	for _, s := range shards {
		ws := s.frozen[i]
		iters = append(iters, &treeIter{it: ws.IterAll(), size: recSizes[i]})
		total += ws.Len()
	}
	*count = uint64(total)
	if total == 0 {
		return nil
	}
	merged, err := lsm.NewMergeIter(iters...)
	if err != nil {
		return err
	}
	var b *lsm.RunBuilder
	for cur := -1; ; {
		rec, ok, err := merged.Next()
		if err != nil || !ok {
			return err
		}
		if p := db.PartitionOf(binary.BigEndian.Uint64(rec)); p != cur {
			b, cur = files.Run(table, p, total), p
		}
		if err := b.Add(rec); err != nil {
			return err
		}
	}
}

// RelocateBlock transplants every back reference of oldBlock onto
// newBlock: run records for oldBlock enter the deletion vectors (paper
// Section 5.1) and equivalent records keyed by newBlock are inserted into
// the write stores, becoming durable at the next Checkpoint. Block
// relocation utilities (defragmentation, volume shrinking) call this after
// moving the physical data and rewriting the file-system pointers; newBlock
// may be one an earlier call vacated. A call issued while a checkpoint is
// flushing waits for it to finish, like a second Checkpoint would. On error
// nothing has moved and nothing was logged.
func (e *Engine) RelocateBlock(oldBlock, newBlock uint64) error {
	if o := e.obs; o != nil {
		start := o.opStart(obs.OpRelocate, e.shardIndex(oldBlock), oldBlock, 0)
		err := e.relocateBlock(oldBlock, newBlock)
		o.opEnd(obs.OpRelocate, e.shardIndex(oldBlock), oldBlock, 0, start, o.relocate, err)
		return err
	}
	return e.relocateBlock(oldBlock, newBlock)
}

func (e *Engine) relocateBlock(oldBlock, newBlock uint64) error {
	// cpMu first: relocation deletes write-store records, and a frozen
	// generation is read lock-free by the flush that owns it.
	e.cpMu.Lock()
	defer e.cpMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if oldBlock == newBlock {
		return nil
	}
	return e.relocate(oldBlock, newBlock, e.wal)
}

// relocate is RelocateBlock's work, shared with WAL replay (which passes a
// nil log). Callers hold the structural lock exclusively (or have
// exclusive access during Open) with no checkpoint in flight, which
// excludes every shared holder, so both shards' active trees are safe to
// touch without their shard mutexes. It reads everything it needs first,
// then logs, then mutates: only the reads can fail, so an error leaves the
// block where it was and the log without a record of the attempt.
func (e *Engine) relocate(oldBlock, newBlock uint64, log *wal.Log) error {
	src, dst := e.shardOf(oldBlock).active, e.shardOf(newBlock).active
	var ws [3][][]byte
	src.collect(oldBlock, oldBlock, &ws)
	v, p := e.db.AcquireView(), e.db.PartitionOf(newBlock)
	var (
		err   error
		moves [3]func()
	)
	for i, table := range tables {
		var run [][]byte
		err = errors.Join(err, v.CollectBlock(table, oldBlock, func(rec []byte) bool {
			run = append(run, slices.Clone(rec))
			return true
		}))
		var perr error
		moves[i], perr = planMove(e.db.Table(table), newBlock, v.Runs(table, p), src[i], dst[i], run, ws[i])
		err = errors.Join(err, perr)
	}
	v.Release()
	if err != nil {
		return err
	}
	if log != nil {
		// Tagged with the next CP number: the transplanted records become
		// durable at the checkpoint that flushes them, so replay skips
		// the record once that checkpoint has committed.
		if err := log.Append(wal.Record{
			Op: wal.OpRelocate, CP: e.db.CP() + 1, Block: oldBlock, NewBlock: newBlock,
		}); err != nil {
			e.noteWALErr(err)
		}
	}
	e.stats.relocations.Add(1)
	for _, move := range moves {
		move()
	}
	return nil
}

// planMove prepares one table's share of a relocation and returns the move
// itself, which cannot fail: run records are hidden through the table's
// deletion vector, write-store records are deleted from the old block's
// tree, and both are inserted re-keyed into the new block's tree — unless
// one of dstRuns, the pinned runs of the new block's partition, physically
// holds the re-keyed record, whatever the vector says of it. A block moved
// back to where it came from finds its old records so, hidden by the first
// move's entries: showing them again is the move, and a copy beside one
// would pair as a reference of its own (froms [f, f] against tos [t] leave
// a live [f, ∞) nobody added). Held or not, an entry the vector has for the
// re-keyed record is stale — it would hide the copy once flushed — and goes.
// run and ws hold the old block's records, encoded.
func planMove(tbl *lsm.Table, newBlock uint64, dstRuns []*lsm.Run, src, dst *memtree.Tree[wsRec], run, ws [][]byte) (func(), error) {
	moved := slices.Concat(run, ws)
	for i, r := range moved {
		m := slices.Clone(r)
		binary.BigEndian.PutUint64(m, newBlock) // the record's key leads with its block
		moved[i] = m
	}
	held := make([]bool, len(moved))
	for _, r := range dstRuns {
		if !r.MayContainBlock(newBlock) {
			continue
		}
		for i, want := range moved {
			it, err := r.SeekGE(want)
			if err != nil {
				return nil, err
			}
			if got, ok, err := it.Next(); err != nil {
				return nil, err
			} else if ok && string(got) == string(want) {
				held[i] = true
			}
		}
	}
	return func() {
		for _, r := range run {
			tbl.DeleteRecord(r)
		}
		for _, r := range ws {
			src.Delete(wsRecOf(r))
		}
		for i, m := range moved {
			tbl.UndeleteRecord(m)
			if !held[i] {
				dst.Insert(wsRecOf(m))
			}
		}
	}, nil
}

// RunInfos returns metadata for every live run, including each run's
// consistency-point window — what backlogctl's per-partition stats print.
func (e *Engine) RunInfos() []lsm.RunInfo {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.db.RunInfos()
}

// Files returns the files the last commit needs: the one that carries it
// and every file its manifest names — every run file, once however many
// runs it holds, and every deletion-vector file — sorted.
func (e *Engine) Files() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.db.Files()
}

// Catalog returns the engine's snapshot catalog.
func (e *Engine) Catalog() *MemCatalog { return e.catalog }

// DB exposes the underlying LSM store for tests and tooling.
func (e *Engine) DB() *lsm.DB { return e.db }
