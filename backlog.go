// Package backlog is a log-structured back-reference database for
// write-anywhere (no-overwrite) file systems, reproducing "Tracking Back
// References in a Write-Anywhere File System" (Macko, Seltzer, Smith;
// FAST 2010).
//
// Back references are the inverted index of file system metadata: they map
// a physical block number to every (inode, offset, snapshot line) that
// references it, across live file systems, snapshots, and writable clones.
// They make block-relocation maintenance — defragmentation, volume
// shrinking, data migration between storage tiers — practical in the
// presence of block sharing from snapshots and deduplication.
//
// The design is write-optimized: reference additions and removals are
// buffered in memory and written as sorted, immutable runs at every
// consistency point, with no disk reads on the update path. Queries join
// the From and To tables lazily; periodic compaction precomputes the join,
// purges records of deleted snapshots, and keeps query performance stable.
// Writable clones are represented implicitly through structural
// inheritance, so cloning a snapshot writes no back-reference records at
// all.
//
// # Sharded write path
//
// The in-memory write store is hash-partitioned by physical block number
// into N shards (Config.WriteShards, default runtime.GOMAXPROCS(0)), each
// with its own lock and From/To trees. Concurrent AddRef and RemoveRef
// calls on different shards never contend, so ingest scales with cores;
// AddRef, RemoveRef, Query, and QueryRange are all safe for concurrent
// use. Sharding buys update concurrency and costs nothing on disk:
// Checkpoint merges the shards' sorted trees back into one stream per
// table (shards are disjoint by block, so the merge only interleaves) and
// writes one immutable run per table and partition, installed in one
// atomic manifest commit — byte for byte the runs of the paper's single
// write store, which WriteShards 1 is. A partition's From, To and Combined
// runs are sections of one file, written and synced once, and the manifest
// rides the last of those files as its trailer, so a consistency point is
// one run file per partition and one fsync each. The run set, the number of
// fsyncs per consistency point and the point at which maintenance triggers
// are therefore the same on every host.
//
// # Checkpoint concurrency
//
// Checkpoint does not stop the world. It takes the engine's structural
// lock exclusively only for two brief critical sections that swap
// pointers: a freeze that swaps every shard's write-store trees into
// per-shard frozen slots (installing fresh, empty active trees) and cuts
// the log, and an install that swaps the committed runs and consistency
// point into memory and clears the frozen slots. The commit's I/O — the
// manifest written as the trailer of the checkpoint's last run file, that
// file synced, then the directory — happens before the install with no
// structural lock held. That commit is also where a deletion vector
// dirtied by relocations since the last checkpoint becomes durable — the
// manifest commit that advances the consistency point persists it beside
// the re-keyed records it flushed, and no other commit may — and where the
// snapshot catalog does: the manifest is the database's only commit point,
// it carries the catalog as a section of its own, and a consistency point
// therefore costs one fsync per run file written, the manifest's included
// (a checkpoint that also persists a deletion vector writes its manifest as
// a commit file of its own, one fsync more). The
// expensive part — merging the shards' trees and writing the From, To and
// Combined runs, the three tables side by side — happens between the two
// with no structural lock held. Concretely,
// during a checkpoint flush:
//
//   - AddRef and RemoveRef proceed into the fresh active trees; they
//     carry the next consistency point's tags and are flushed by the next
//     Checkpoint. Proactive pruning cannot cancel against a record that
//     is frozen mid-flush; the late half of the pair is recorded and the
//     two cancel at query and compaction time instead.
//   - Query and QueryRange read the union of the active and frozen trees
//     plus the pinned run-set view — a consistent cut in every phase. A
//     QueryRange takes that cut once, for its whole range: one view and
//     one write-store snapshot of the shards its blocks live in, pinned
//     under one shared acquisition of the lock. Query is a range of one
//     block.
//   - RelocateBlock queues behind the in-flight flush, like a second
//     Checkpoint: the frozen trees are read-only to everyone while the
//     flush reads them, and relocation is the one call that would have to
//     delete from them. It runs right after the install (or, if the flush
//     fails, after the frozen records are merged back).
//   - A second Checkpoint and a Close likewise serialize behind the
//     in-flight flush, and so does every other commit: no commit overlaps
//     a flush. Compactions merge concurrently and validate their inputs
//     at install, which waits for the checkpoint; the runs the checkpoint
//     installs land beside a merge's inputs and do not invalidate it. An
//     Expire issued during the flush waits for it, then applies
//     retention.
//   - In Buffered/Sync durability modes the write-ahead log is "cut" at
//     the freeze: updates logged during the flush land past the cut, so
//     the checkpoint's log retirement never deletes them. The segment the
//     cut opens is made before the freeze, so the cut itself is the log's
//     buffered records written out and one write of a segment header and
//     a cut mark; in DurabilitySync the mark's fsync runs beside the flush.
//
// The consistency point itself is unchanged from the paper's model: a
// CP's records commit atomically with the CP number, and Checkpoint(cp)
// requires cp to exceed the last committed consistency point (a stale cp
// is rejected, because committing it would corrupt the write-ahead-log
// replay filter). On a flush error the frozen records are merged back
// into the write stores — retry or replay still holds. With Config.Metrics
// the backlog_checkpoint_freeze_ns and _install_ns histograms report the
// exclusive-lock time separately from the lock-free flush time
// (backlog_checkpoint_flush_ns); bash bench/run.sh --trace 1 reports them
// as core.checkpoint_freeze_us_p50, core.checkpoint_flush_ms_p50 and
// core.checkpoint_install_us_p50, and on the "mixed" workload
// backlog.ack_p99_us is update latency with checkpoints and merges
// running alongside.
//
// # Durability
//
// By default (DurabilityCheckpointOnly) reference updates become durable
// only at consistency points, the paper's model: a crash loses everything
// buffered since the last Checkpoint, exactly like file-system state past
// the last consistency point, and Section 5.4's recovery story assumes
// the file system's own journal replays those operations. Deployments
// without such a journal can set Config.Durability instead:
//
//   - DurabilityBuffered appends every AddRef/RemoveRef/RelocateBlock to
//     a write-ahead log (internal/wal) without fsync. Records are
//     collected in memory and handed to the operating system 64 KiB at a
//     time (and at every Checkpoint and Close), so the log costs a device
//     write per thirteen thousand updates or so, not per update. A clean
//     Close preserves everything. A crash — of the process as much as of the
//     machine, since the newest records (at most 64 KiB) have not reached
//     the OS cache yet — can lose recent updates, but what replays is
//     always a prefix of what was logged and never corrupts the database.
//     A failed log write surfaces through DurabilityErr when it happens,
//     which is after the updates it carried were acknowledged.
//   - DurabilitySync group-commits the log: concurrent updates are
//     batched into a single write-and-fsync by a single-flight leader, so
//     an acknowledged update survives any crash at a per-batch (not
//     per-op) fsync cost. The leader first gathers the updaters the last
//     flush acknowledged, which are microseconds away, for a bounded
//     fraction of a flush: W concurrent updaters get W updates into each
//     fsync (1.9 measured with two), and each waits for about one fsync,
//     not two.
//
// Log records are varint-encoded and framed per device write rather than
// per record (segment format 6: a block update's op rides in the first byte
// of its block, so an update is about 6 bytes, 3 for one that continues its
// file where the previous update of its kind left off, even in the batch
// before, plus a 5-byte header per batch under 128 bytes — measured, 4.18
// bytes per update in Buffered mode and 8.3 in Sync mode with two updaters
// — while segments the previous binary wrote in format 5 still replay;
// formats 4 and 3 are refused by name, with the binary that replays them,
// commit 8d5575c and commit 0ea923b or earlier). Open replays the log
// tail — tolerating a torn final batch, none of whose records a Sync log
// had acknowledged — to rebuild the write stores, and
// Checkpoint retires the log, so queries and paper experiments behave
// identically in every mode.
//
// Maintenance moves no durability boundary. A merge only reorganizes
// records a commit has already made durable, so it writes no manifest of
// its own: DB.Maintain installs its merges in memory, and they become
// durable with the next manifest commit — the next Checkpoint, Compact,
// Expire or Close — in the same commit as that commit's own change. A
// crash before then reopens the runs the merges read, which answer every
// query the same, and Open removes the merges' files.
//
// # Maintenance
//
// Periodic compaction (Section 5.2) merges each partition's accumulated
// runs, precomputes the From ⋈ To join, and purges records that refer
// only to deleted snapshots — it is what keeps query cost flat as runs
// accumulate. Two designs make maintenance non-disruptive:
//
//   - Queries and compaction read through immutable, refcounted views of
//     the run sets (LevelDB/RocksDB-style version sets). A query pins a
//     view with a short shared-lock acquisition and does all of its run
//     I/O lock-free; compaction merges against a pinned view and takes
//     the structural lock exclusively only to validate and atomically
//     install its result. It is planned again if another merge or an
//     expiry consumed one of the input runs it was planned with, or a
//     relocation moved a deletion vector; runs a checkpoint added
//     meanwhile simply stay beside its output. A run file superseded while a view pins it is deleted only
//     when the last such view is released. Queries therefore never stall
//     behind a running compaction.
//   - A merge's install is not a commit. It swaps the merged runs in for
//     every query and merge that starts after it and leaves the manifest
//     naming the runs it read, whose files stay on disk, until the next
//     commit writes the live runs: a Checkpoint, Compact, Expire or Close.
//     A maintenance pass therefore costs no manifest write, and Compact
//     writes one for all of its partitions.
//   - Maintenance runs only when the host asks: DB.Maintain runs the
//     merges the configured compaction policy plans, DB.Compact merges
//     every partition whole, and the database starts no goroutine of its
//     own. A host that wants maintenance in the background calls Maintain
//     from its own goroutine, at the cadence it chooses — after every
//     Checkpoint, say. The paper's cadence experiments (Figures 6, 8–10)
//     call it explicitly to control staleness precisely.
//     DB.MaintenanceStats reports the merges passes installed, the
//     current worst run count, and the number of still-pending jobs.
//
// # Maintenance policies
//
// Config.CompactionPolicy selects what DB.Maintain merges:
//
//   - PolicyFull (the default) re-merges the worst partition — the one
//     with the most runs — down to one Combined and one From run whenever
//     it exceeds 8 runs, the engine's constant FullThreshold (a checkpoint
//     adds a From and a To run, so a partition's fifth unmerged
//     checkpoint triggers it, on any host). Compact plans the same whole
//     merge per partition, and both run it on one contract: a merge runs
//     the inputs it was planned with, once, and one that installs nothing
//     is planned again. Queries stay maximally cheap (a steady-state
//     partition holds two runs), but every pass rewrites all of the
//     partition's live records, so sustained ingest pays
//     O(runs-ever-written) write amplification.
//     This is the paper's Section 5.2 maintenance and the pinned
//     behavior of the deterministic paper-figure experiments.
//   - PolicyLeveled merges stepped (LogBase-style): once a table
//     accumulates Config.Fanout runs (default 3) at one level of a
//     partition, the whole level merges into a single run one level up
//     — at Level 0, where a checkpoint adds one run per table, after
//     every Fanout checkpoints. When that run would bring the next level
//     to the fanout too, the same merge takes the next level's runs as
//     well and lands a level higher, so a cascade is one merge and a
//     level it only passes through is never written.
//     Each record is rewritten at most once per level — O(log_Fanout(runs))
//     write amplification instead of O(runs) — at the cost of queries
//     reading up to Fanout-1 runs per level. Under RetainLive, merges
//     never cross the retention reclaim horizon, so sealed
//     consistency-point windows stay individually droppable by expiry.
//
// Pick PolicyFull when queries dominate and ingest is bursty (the
// paper's workloads); pick PolicyLeveled when ingest is sustained and
// compaction write bandwidth is the bottleneck. Small fanouts (2-4)
// favor query latency; larger fanouts (8+) favor write amplification.
// The "levels" fsimbench experiment measures both sides of the trade,
// and "backlogctl stats" prints the per-level run table plus cumulative
// compaction write-bytes of a live database. [DB.Maintain] runs one
// synchronous pass of whatever the configured policy plans; "backlogctl
// compact -policy leveled" drives it from the CLI.
//
// # Retention and expiry
//
// Compaction reclaims records of deleted snapshots one record at a time:
// every surviving record is read, joined, and rewritten. Expiry reclaims
// them wholesale. Every run records the consistency-point window
// [MinCP, MaxCP] its records cover, and once every snapshot old enough to
// reference a Combined run has been deleted — the run's window lies
// entirely below the oldest CP still reachable from the snapshot/clone
// graph — the next manifest commit drops the run in the same edit: no
// record is read, no data is rewritten, and the run file itself is deleted
// only after the last in-flight query or compaction pinning it completes.
//
// Expiry is opt-in via Config.Retention:
//
//   - RetainAll (the default) changes nothing. Runs are merged and purged
//     by compaction exactly as the paper describes; no commit drops a
//     run, and DB.Expire commits the catalog only.
//   - RetainLive makes expiry a rule of every manifest commit: a
//     checkpoint and the commit DB.Expire, DB.Compact and DB.Close end
//     with each drop, in the same commit, the Combined runs the live
//     snapshot graph no longer reaches, those a DB.Maintain since the last
//     commit left droppable among them. Compaction
//     becomes CP-tiered: instead of re-merging everything, it seals
//     finished Combined windows (leaving them untouched, their windows
//     disjoint), and queries skip sealed runs entirely below the reclaim
//     horizon without opening them. Deleting an old snapshot then frees
//     its runs at the next commit, for no more than the manifest write
//     that commit makes anyway — orders of magnitude less I/O than a
//     merge. It starts no goroutine; nothing in the database does.
//
// Snapshot lifecycle operations (create/delete snapshot, clone, line)
// live on the Lifecycle interface returned by DB.Catalog. They take effect
// in memory at once and become durable at the next manifest commit,
// atomically with the reference data it installs: every checkpoint and the
// commit Expire, Compact and Close end with writes the catalog as it is at
// that moment into the manifest it commits, with every merge
// installed since the last commit, so a crash can lose a deletion together
// with the purge it justified, or keep both, and nothing in between. Note that expiry
// is permanent in the same sense as the paper's snapshot deletion:
// re-creating a snapshot at an old version after its records expired does
// not resurrect them.
//
// # Compression
//
// The paper observes (Section 8) that back-reference tables are "highly
// compressible, especially if we compress them by columns". Runs are
// stored column-compressed: each leaf page of a run's B-tree
// bit-packs its records (format v6, whose leaves are v4's). The page
// header holds, per column, a
// bit width and a base; the block is stored as its delta from the previous
// record's, every other column as its offset from the page minimum, and a
// column constant on the page takes no bits at all. Sorted back-reference
// records differ from their neighbours by small block gaps and in columns
// that span a few bits on a page, so a 48- or 56-byte record takes 3.1 to
// 3.6 bytes of leaf space on an ingest-shaped stream (v3, the previous
// varint encoding, took 4.8 to 6.2), and checkpoints and merges write
// proportionally fewer bytes. Every page stays independently seekable and
// checksummed: it carries the block of every 32nd record, so a seek
// binary-searches those anchors and then sums at most 32 block deltas, and
// any other field is one extraction. The shared page cache keeps a page as
// its payload and charges it the bytes it holds, so its budget covers as
// much of the store as the disk does. A checkpoint hands the pages it
// writes to the cache where the cache has room for them without evicting
// anything, so the queries and the merge that read a fresh run need not
// read it back; a merge's output is not cached. Pages of a run that
// compaction or expiry removed leave the cache with it. A checkpoint's or
// a merge's runs of one partition are sections of one file, and only the
// first of them keeps a header: the others start with their first leaf,
// their headers carried by the commit alone. Format v6 pads nothing: that
// header is 80 bytes, not v5's 4 KiB page, and every section's last page,
// its root, ends at its checksum, so a small checkpoint writes what its
// records cost.
//
// The store writes v6 alone. It reads v6; v5, one version back — the
// same file with its header and roots padded to 4 KiB pages — as it is;
// and raw fixed-stride v1 runs, the paper's original layout. A store may
// mix all three, and it opens and queries with no migration step. A
// maintenance pass (DB.Maintain, committed by the next checkpoint or
// Close) rewrites every v5 run into v6 at its level, records and CP
// window unchanged, one file per partition and level with the tables as
// its sections, as a merge writes them; a merge writes v6 whatever its
// inputs' format. A binary of commit 45342b7 or earlier refuses a store
// holding v6 runs as corrupt, changing nothing; later binaries refuse a
// run format newer than theirs by name. An older format is refused by
// name, with the binary that rewrites it (internal/core/testdata/upgrade
// opens a store under it, checkpoints, maintains and closes it): v4, the
// same leaves with a header page in every section, and v3, a presence
// bitmap and a varint per changed column, open once under a binary of
// commit 8d5575c; v2, which spent a byte on every unchanged column, under
// one of commit 0ea923b, and then 8d5575c. So does a commit whose runs
// carry no header, under 8d5575c, and a store whose commit is a legacy
// MANIFEST, whose refusal names both hops: 0ea923b first if its runs are
// of format v2, then 8d5575c. "backlogctl stats" prints each run's format
// and its logical and physical bytes. bash bench/run.sh measures v6's
// on-disk size (space_bytes_per_ref, btree.bytes_per_record), checkpoint
// write bytes (storage.write_bytes.checkpoint) and cold query cost
// (read_bytes_per_query, btree.page_decode_us).
//
// # Observability
//
// The engine is instrumented end to end, and all of it is off by default:
// with Config.Metrics, Tracer, SlowOpThreshold, and DebugAddr unset, the
// instrumented paths cost one pointer check and take no timestamps, so
// paper-figure experiments stay byte-identical (the fsimbench "obs"
// experiment measures the enabled cost too — within a ~2% throughput
// budget).
//
// Config.Metrics enables the metrics registry: counters that read the
// same values as DB.Stats at snapshot time (so the hot path is never
// charged twice), latency histograms with p50/p90/p99/max on every hot
// and background path, and gauges over live structures computed at scrape
// time. To keep enabled overhead within a few percent, per-block hot-op
// latencies are sampled — one op in Config.MetricsSampleEvery (default 32)
// is timed — while background-op histograms time every occurrence. Every
// series, with its kind and help text, is listed in
// internal/core/testdata/series.golden, which a test keeps equal to what
// the engine registers; backlogctl metrics prints them with their values.
//
// DB.Metrics returns the structured snapshot; DB.WriteMetrics renders it
// in the Prometheus text exposition format. Config.DebugAddr starts an
// HTTP listener serving /metrics (a Prometheus scrape target),
// /debug/vars (the same snapshot as JSON, expvar-style), /debug/slowops,
// and the standard net/http/pprof profiling surface under /debug/pprof/:
//
//	scrape_configs:
//	  - job_name: backlog
//	    static_configs:
//	      - targets: ["localhost:6060"]   # Config.DebugAddr
//
// Config.Tracer registers an op-tracing hook: start and end events for
// every AddRef, RemoveRef, Query, QueryRange, RelocateBlock, Checkpoint,
// compaction, and expiry, carrying the op kind, write-store shard,
// consistency point, duration, and error. Both hooks run inline on the
// operation's goroutine, so tracers must be fast and concurrent-safe.
// Config.SlowOpThreshold enables the built-in slow-op log, which the
// engine hands every end event beside any Tracer: a bounded ring buffer
// (128 entries) retaining only operations at or above the threshold,
// readable via DB.SlowOps or /debug/slowops. backlogctl opens a directory
// without a threshold, so it shows no slow ops; a process that sets one
// serves them at /debug/slowops.
// backlogctl serves the same surfaces on a database directory:
//
//	backlogctl stats -dir DIR -json          # one-shot counters, machine-readable
//	backlogctl metrics -dir DIR              # one-shot Prometheus text
//	backlogctl metrics -dir DIR -watch       # live terminal dashboard
//	backlogctl metrics -addr localhost:6060  # scrape a running process instead
//
// # I/O attribution
//
// Unlike the surfaces above, purpose-tagged I/O attribution is always on:
// every ReadAt/WriteAt/Sync/Create/Remove is attributed to the subsystem
// that issued it — wal, checkpoint, compaction, query, expiry, recovery,
// or manifest — at the cost of a few atomic adds per I/O
// (BenchmarkIOAttribution in internal/storage). DB.IOReport returns the
// structured snapshot: per-source bytes and ops, cumulative totals, and
// an online write-amplification monitor comparing user bytes in against
// device bytes out over a rolling 60s window. With Config.Metrics the
// same accounting is exported as the labeled family backlog_io_* (bytes,
// ops, syncs, creates, removes and latency per src), beside the
// write-amplification gauges, and Config.DebugAddr serves it
// as JSON at /debug/io. backlogctl's iostat subcommand renders the same
// report:
//
//	backlogctl iostat -dir DIR               # one-shot (the open's own recovery I/O)
//	backlogctl iostat -addr localhost:6060   # scrape a running process
//	backlogctl iostat -addr HOST:PORT -watch # live refresh
//
// # Configuration defaults
//
// Every Config field's zero value is valid and means:
//
//	Dir                  — (required unless InMemory)
//	InMemory             — false: the database lives in Dir
//	CacheBytes           — 0: 32 MB page cache, charged in on-disk (encoded) page bytes (negative disables caching)
//	Partitions           — 0: one partition
//	PartitionSpan        — 0: unused (required only when Partitions > 1)
//	WriteShards          — 0: runtime.GOMAXPROCS(0) shards (update concurrency only; the runs written do not depend on it)
//	Durability           — DurabilityCheckpointOnly (the paper's model)
//	CompactionPolicy     — PolicyFull: whole-partition worst-first merging
//	Fanout               — 0: stepped-merge fanout 3, a Level-0 merge every third checkpoint (PolicyLeveled only)
//	Retention            — RetainAll: no expiry, the paper's behavior
//	Metrics              — false: no metrics registry, no timestamps taken
//	MetricsSampleEvery   — 0: one hot op in 32 is timed (Metrics only)
//	Tracer               — nil: no trace events
//	SlowOpThreshold      — 0: no slow-op log
//	DebugAddr            — "": no debug listener
//
// Config.Validate reports structurally invalid configurations (it wraps
// ErrBadConfig); Open calls it first.
//
// # Build, test, bench
//
// The module has no dependencies outside the standard library:
//
//	go build ./...                             # everything, including cmd/ drivers
//	go test ./...                              # unit + integration tests
//	go test -race ./internal/core/...          # concurrent-ingest tests under the race detector
//	go test -bench=. -benchtime=1x -run='^$' ./...   # paper-figure benchmark smoke pass
//	bash bench/run.sh --workload mixed --seed 1 --seconds 25 --trace 0   # one workload, end-to-end rows
//	bash bench/run.sh -all -repeat 5 -out a.json   # every workload, both variants, with the spread
//	bash bench/run.sh -compare a.json b.json       # exit 1 when a bounded row got worse
//
// CI (.github/workflows/ci.yml) runs the first four plus go vet, a gofmt
// check and the benchmark's own tests (cd bench && go test ./...) on every
// push and pull request.
//
// # Quick start
//
//	db, err := backlog.Open(backlog.Config{Dir: "/tmp/backrefs"})
//	if err != nil { ... }
//	defer db.Close()
//
//	// The file system reports reference changes as they happen.
//	db.AddRef(backlog.Ref{Block: 100, Inode: 2, Offset: 0, Line: 0}, cp)
//	db.RemoveRef(backlog.Ref{Block: 101, Inode: 2, Offset: 1, Line: 0}, cp)
//
//	// Make everything up to cp durable (call at each consistency point).
//	if err := db.Checkpoint(cp); err != nil { ... }
//
//	// Who references block 100?
//	owners, err := db.Query(100)
//
// See the examples directory for share-aware defragmentation, volume
// shrinking, and deduplication analytics built on this API.
package backlog

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/lsm"
	"github.com/backlogfs/backlog/internal/obs"
	"github.com/backlogfs/backlog/internal/storage"
	"github.com/backlogfs/backlog/internal/wal"
)

// Ref identifies one logical reference to a physical extent. Length is in
// blocks; zero means 1 (single-block reference).
type Ref = core.Ref

// Owner is one query result: a logical owner of a block together with the
// consistency-point interval and the retained snapshot versions in which
// the reference exists.
type Owner = core.Owner

// Stats are cumulative engine counters.
type Stats = core.Stats

// IOReport is a snapshot of the purpose-tagged I/O accounting: per-source
// device bytes/ops and the online write-amplification monitor's readings.
// See DB.IOReport.
type IOReport = core.IOReport

// SourceIO is one purpose's counters within an IOReport.
type SourceIO = obs.SourceIO

// Infinity is the To value of a still-live reference.
const Infinity = core.Infinity

// ErrStaleCP is returned (wrapped) by Checkpoint when cp does not exceed
// the last committed consistency point; committing it would corrupt the
// write-ahead-log replay filter.
var ErrStaleCP = core.ErrStaleCP

// Durability selects when reference updates become crash-durable; see the
// Durability section of the package documentation.
type Durability = wal.Durability

const (
	// DurabilityCheckpointOnly (the default) makes updates durable only
	// at consistency points — the paper's behavior. Buffered references
	// are discarded by a crash or Close.
	DurabilityCheckpointOnly = wal.CheckpointOnly
	// DurabilityBuffered appends updates to a write-ahead log without
	// fsync, 64 KiB per device write: a clean Close preserves them, a
	// crash may not.
	DurabilityBuffered = wal.Buffered
	// DurabilitySync group-commits the write-ahead log with one fsync per
	// batch: an acknowledged update survives any crash.
	DurabilitySync = wal.Sync
)

// ParseDurability parses a durability mode name ("checkpoint-only",
// "buffered", or "sync") as used by the -durability CLI flags.
func ParseDurability(s string) (Durability, error) { return wal.ParseDurability(s) }

// Config configures Open.
type Config struct {
	// Dir is the directory holding the database. Ignored when InMemory is
	// set.
	Dir string
	// InMemory keeps the database in RAM (useful for tests and
	// simulation).
	InMemory bool
	// CacheBytes sizes the page cache (default 32 MB). Pages are cached
	// and charged as stored on disk, compressed leaves included. The pages
	// a checkpoint writes enter it as they are written, where it has room
	// without evicting anything, so queries find a fresh run in memory; a
	// merge's output enters it only as queries read it.
	CacheBytes int64
	// Partitions horizontally partitions the read stores by block number
	// (default 1). PartitionSpan gives the blocks per partition and is
	// required when Partitions > 1.
	Partitions    int
	PartitionSpan uint64
	// WriteShards is the number of hash-partitioned write-store shards
	// (default runtime.GOMAXPROCS(0)). Concurrent AddRef/RemoveRef calls
	// on different shards never contend. Checkpoint merges the shards into
	// one run per table and partition, so the files on disk are the same
	// at any value; 1 is the paper's single write store.
	WriteShards int
	// Durability selects when reference updates become crash-durable
	// (default DurabilityCheckpointOnly; see the package documentation's
	// Durability section).
	Durability Durability
	// CompactionPolicy selects what DB.Maintain merges
	// (default PolicyFull; see the package documentation's Maintenance
	// policies section).
	CompactionPolicy CompactionPolicy
	// Fanout is PolicyLeveled's stepped-merge fanout: the per-table run
	// count at one level of a partition that triggers merging the level
	// up (default 3; values below 2 are clamped to 2). A checkpoint adds
	// one Level-0 run per table, so Level 0 merges every Fanout
	// checkpoints.
	Fanout int
	// Retention selects the snapshot-retention policy (default RetainAll;
	// see the package documentation's Retention and expiry section).
	// RetainLive enables drop-based expiry: every manifest commit drops the
	// runs the live snapshot graph no longer reaches, compaction seals
	// finished CP windows instead of re-merging them, and queries skip
	// runs below the reclaim horizon.
	Retention RetentionPolicy
	// Metrics enables the metrics registry: counters, gauges, and latency
	// histograms over every engine, WAL, and maintenance path, readable
	// via DB.Metrics and DB.WriteMetrics (see the package documentation's
	// Observability section). Off by default; when off, the instrumented
	// paths cost one pointer check and take no timestamps.
	Metrics bool
	// MetricsSampleEvery is the hot-op latency sampling period: one
	// AddRef/RemoveRef/Query per this many ops (per shard, rounded up to
	// a power of two; default 32) is timed into its latency histogram,
	// keeping enabled-metrics overhead within a few percent. Set 1 to
	// time every op. Counters, gauges, and background-op histograms
	// (checkpoint phases, compaction, expiry, WAL) are always exact.
	// Ignored when a Tracer or SlowOpThreshold is set — trace events
	// always carry real durations, so every op is timed.
	MetricsSampleEvery int
	// Tracer, if non-nil, receives start and end events for every engine
	// operation (updates, queries, relocation, checkpoints, compaction,
	// expiry). Hooks run inline on the operation's goroutine, so the
	// tracer must be fast and safe for concurrent use. Setting a Tracer
	// enables per-operation timing even when Metrics is false.
	Tracer Tracer
	// SlowOpThreshold, when positive, enables the built-in slow-op log: a
	// ring buffer retaining the 128 most recent operations whose duration
	// is at or above the threshold, readable via DB.SlowOps (and
	// /debug/slowops on the debug listener). Composes with Tracer; both
	// observe every op.
	SlowOpThreshold time.Duration
	// DebugAddr, when non-empty, starts an HTTP listener on the address
	// (for example "localhost:6060", or "127.0.0.1:0" for an ephemeral
	// port — see DB.DebugAddr) serving /metrics in Prometheus text
	// format, /debug/vars (JSON), /debug/slowops, /debug/io, and
	// net/http/pprof under /debug/pprof/. Implies Metrics. The listener
	// is closed by DB.Close.
	DebugAddr string
}

// RetentionPolicy selects how aggressively records of deleted snapshots
// are reclaimed; see Config.Retention.
type RetentionPolicy = core.RetentionPolicy

const (
	// RetainAll keeps every record until a compaction purges it — the
	// paper's baseline behavior and the default.
	RetainAll = core.RetainAll
	// RetainLive expires records wholesale: runs whose consistency-point
	// window falls entirely below the oldest reachable snapshot are
	// dropped without being read.
	RetainLive = core.RetainLive
)

// CompactionPolicy selects what DB.Maintain merges; see
// Config.CompactionPolicy and the package documentation's Maintenance
// policies section.
type CompactionPolicy int

const (
	// PolicyFull (the default) re-merges the worst partition to one
	// Combined and one From run whenever it holds more than 8 runs — the
	// paper's Section 5.2 maintenance.
	PolicyFull CompactionPolicy = iota
	// PolicyLeveled merges stepped: Fanout same-level runs merge into one
	// run a level up — a cascade of levels in one merge — bounding write
	// amplification under sustained ingest.
	PolicyLeveled
)

// String returns the policy name as accepted by ParseCompactionPolicy.
func (p CompactionPolicy) String() string {
	switch p {
	case PolicyFull:
		return "full"
	case PolicyLeveled:
		return "leveled"
	default:
		return fmt.Sprintf("CompactionPolicy(%d)", int(p))
	}
}

// ParseCompactionPolicy parses a policy name ("full" or "leveled") as
// used by the -policy CLI flags.
func ParseCompactionPolicy(s string) (CompactionPolicy, error) {
	switch s {
	case "full":
		return PolicyFull, nil
	case "leveled":
		return PolicyLeveled, nil
	default:
		return 0, fmt.Errorf("backlog: unknown compaction policy %q (want full or leveled)", s)
	}
}

// corePolicy maps the public enum onto the engine's policy
// implementation; nil selects the engine's default (PolicyFull).
func (p CompactionPolicy) corePolicy() core.CompactionPolicy {
	if p == PolicyLeveled {
		return core.PolicyLeveled{}
	}
	return nil
}

// Table names reported by Runs.
const (
	TableFrom     = core.TableFrom
	TableTo       = core.TableTo
	TableCombined = core.TableCombined
)

// ErrBadConfig is wrapped by every Config.Validate error.
var ErrBadConfig = errors.New("backlog: invalid Config")

// Validate reports whether the configuration is structurally valid. Open
// calls it first; it is exported so configuration loaded from flags or
// files can be checked early. All errors wrap ErrBadConfig.
func (cfg Config) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadConfig, fmt.Sprintf(format, args...))
	}
	if !cfg.InMemory && cfg.Dir == "" {
		return bad("Dir is required (or set InMemory)")
	}
	if cfg.Partitions < 0 {
		return bad("Partitions is negative (%d)", cfg.Partitions)
	}
	if cfg.Partitions > 1 && cfg.PartitionSpan == 0 {
		return bad("PartitionSpan is required when Partitions > 1")
	}
	if cfg.WriteShards < 0 {
		return bad("WriteShards is negative (%d)", cfg.WriteShards)
	}
	switch cfg.CompactionPolicy {
	case PolicyFull, PolicyLeveled:
	default:
		return bad("unknown CompactionPolicy (%d)", cfg.CompactionPolicy)
	}
	if cfg.Fanout < 0 {
		return bad("Fanout is negative (%d)", cfg.Fanout)
	}
	if cfg.Fanout == 1 {
		return bad("Fanout 1 cannot shrink a level (want 0 for the default, or >= 2)")
	}
	switch cfg.Durability {
	case DurabilityCheckpointOnly, DurabilityBuffered, DurabilitySync:
	default:
		return bad("unknown Durability (%d)", cfg.Durability)
	}
	switch cfg.Retention {
	case RetainAll, RetainLive:
	default:
		return bad("unknown Retention (%d)", cfg.Retention)
	}
	if cfg.SlowOpThreshold < 0 {
		return bad("SlowOpThreshold is negative (%v)", cfg.SlowOpThreshold)
	}
	if cfg.MetricsSampleEvery < 0 {
		return bad("MetricsSampleEvery is negative (%d)", cfg.MetricsSampleEvery)
	}
	return nil
}

// MaintenanceStats reports what maintenance passes have done and what is
// left to do; see DB.MaintenanceStats.
type MaintenanceStats = core.MaintenanceStats

// Tracer receives start and end events for every engine operation; see
// Config.Tracer. Implementations must be safe for concurrent use.
type Tracer = obs.Tracer

// OpEvent describes one traced engine operation: kind, write-store shard
// (-1 when not applicable), consistency point, block, start time,
// duration (end events only), and error.
type OpEvent = obs.OpEvent

// OpKind identifies the operation class of a trace event.
type OpKind = obs.OpKind

// Operation kinds reported to a Tracer and in slow-op log entries.
const (
	OpAddRef     = obs.OpAddRef
	OpRemoveRef  = obs.OpRemoveRef
	OpQuery      = obs.OpQuery
	OpQueryRange = obs.OpQueryRange
	OpRelocate   = obs.OpRelocate
	OpCheckpoint = obs.OpCheckpoint
	OpCompact    = obs.OpCompact
	OpExpire     = obs.OpExpire
)

// MetricsSnapshot is a point-in-time copy of every registered metric; see
// DB.Metrics.
type MetricsSnapshot = obs.Snapshot

// HistogramSnapshot is one latency histogram inside a MetricsSnapshot,
// with Quantile and Mean accessors.
type HistogramSnapshot = obs.HistogramSnapshot

// DB is a back-reference database.
type DB struct {
	cat    *core.MemCatalog
	eng    *core.Engine
	reg    *obs.Registry
	debug  *obs.DebugServer
	closed atomic.Bool
}

// Open opens or creates a database. The configuration is validated first;
// errors from an invalid one wrap ErrBadConfig.
//
// Opening reads the newest commit — the manifest naming every live run,
// each with its header — and builds every run's reader from it, reading
// no page of any run; then it loads the deletion vectors the commit names
// and replays the log's tail. A store closed cleanly reopens from its
// small commit file, its vectors and its log tail alone (IOReport credits
// those reads to recovery). The commit is binary (commit format 5: its
// numbers as uvarints, each run file named once), a few dozen bytes a run;
// a format-4 commit, the same manifest as JSON, is read as well, and the
// first commit after Open writes format 5.
func Open(cfg Config) (*DB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var vfs storage.VFS
	if cfg.InMemory {
		vfs = storage.NewMemFS()
	} else {
		d, err := storage.NewDirFS(cfg.Dir)
		if err != nil {
			return nil, err
		}
		vfs = d
	}
	return openVFS(vfs, cfg)
}

// openVFS opens the database on an explicit VFS. Split from Open so crash
// tests can reopen a simulated file system they hold a handle to.
func openVFS(vfs storage.VFS, cfg Config) (*DB, error) {
	cat := core.NewMemCatalog()
	var reg *obs.Registry
	if cfg.Metrics || cfg.DebugAddr != "" {
		reg = obs.NewRegistry()
	}
	eng, err := core.Open(core.Options{
		VFS:                vfs,
		Catalog:            cat,
		CacheBytes:         cfg.CacheBytes,
		Partitions:         cfg.Partitions,
		PartitionSpan:      cfg.PartitionSpan,
		WriteShards:        cfg.WriteShards,
		Durability:         cfg.Durability,
		CompactionPolicy:   cfg.CompactionPolicy.corePolicy(),
		Fanout:             cfg.Fanout,
		Retention:          cfg.Retention,
		Metrics:            reg,
		MetricsSampleEvery: cfg.MetricsSampleEvery,
		Tracer:             cfg.Tracer,
		SlowOpThreshold:    cfg.SlowOpThreshold,
	})
	if err != nil {
		return nil, err
	}
	db := &DB{cat: cat, eng: eng, reg: reg}
	if cfg.DebugAddr != "" {
		srv, err := obs.Serve(cfg.DebugAddr, reg, eng.SlowLog(), obs.Page{
			Path: "/debug/io",
			Handler: func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/json; charset=utf-8")
				_ = json.NewEncoder(w).Encode(eng.IOReport())
			},
		})
		if err != nil {
			eng.Close()
			return nil, fmt.Errorf("backlog: debug listener: %w", err)
		}
		db.debug = srv
	}
	return db, nil
}

// AddRef records that ref became live at consistency point cp. Safe for
// concurrent use; calls touching different write-store shards proceed in
// parallel.
func (db *DB) AddRef(ref Ref, cp uint64) { db.eng.AddRef(ref, cp) }

// RemoveRef records that ref ceased to be live at consistency point cp.
// Safe for concurrent use.
func (db *DB) RemoveRef(ref Ref, cp uint64) { db.eng.RemoveRef(ref, cp) }

// Checkpoint makes all reference changes up to cp durable, together with
// the snapshot catalog as it is when the checkpoint installs: the runs, the
// consistency-point number and the catalog go into one manifest, the
// trailer of the checkpoint's last run file, committed by that file's one
// fsync, so after a crash a reopened database shows either all
// three as they were before the call or all three as it left them — never a
// new consistency point masked by an old topology, nor the reverse. Call it
// from the file system's consistency-point commit path. cp must be greater
// than the last committed consistency point; a stale cp returns ErrStaleCP
// and writes nothing.
func (db *DB) Checkpoint(cp uint64) error { return db.eng.Checkpoint(cp) }

// Query returns every owner of the given physical block, masked to
// versions that still exist.
func (db *DB) Query(block uint64) ([]Owner, error) { return db.eng.Query(block) }

// QueryRange answers the n consecutive blocks [block, block+n) from one
// pinned view of the database, so every block is answered as of the same
// moment, and each run on disk is sought once for the whole range rather
// than once per block. It calls visit with each block's owners, as Query
// returns them, in ascending block order — a nil slice for a block with no
// owners — until visit returns false. n == 0 visits nothing; a negative n,
// or a range that runs past the largest block number, returns an error
// before anything is read.
func (db *DB) QueryRange(block uint64, n int, visit func(block uint64, owners []Owner) bool) error {
	return db.eng.QueryRange(block, n, visit)
}

// Compact runs database maintenance: merges runs, precomputes the Combined
// table, and purges records of deleted snapshots. Run it periodically, or
// before query-intensive maintenance tasks. Of the runs a merge read, each
// partition keeps at most one From and one Combined run; runs a concurrent
// Checkpoint adds stay beside them at level 0.
//
// Zombie snapshots are reaped first. Its merges install in memory, and it
// ends with one commit, as Expire does, whatever the partition count: the
// merged runs of every partition — and those of any Maintain since the
// last commit — with the live catalog, in one manifest, so a crash never
// keeps a purge and loses the deletion that justified it; under RetainLive
// the same commit drops the runs no snapshot reaches any more. With
// nothing merged, an unchanged catalog and nothing to drop, it writes no
// manifest.
func (db *DB) Compact() error { return db.eng.Compact() }

// Maintain runs one maintenance pass on the caller's goroutine, honoring
// the configured CompactionPolicy and retention mode: it reaps zombie
// snapshots and runs the merges the policy plans, re-planning until none
// remain. It writes no manifest: its merges, the reaped catalog and, under
// RetainLive, the runs they left droppable become durable with the next
// commit — a Checkpoint, Compact, Expire or Close — and a crash before that
// reopens the database as the last commit left it, with the same answers
// (see the package documentation's Durability section). It is the database's
// only maintenance scheduler — nothing merges in the background unless
// the host calls Maintain from a goroutine of its own. Merges read a
// pinned view, so queries and updates keep flowing while it runs. Unlike
// Compact — which always merges each partition's runs into one — Maintain
// under PolicyLeveled performs only the stepped merges that are due,
// leaving the leveled run structure in place.
func (db *DB) Maintain() error { return db.eng.MaintainNow() }

// RelocateBlock transplants all back references of oldBlock onto newBlock;
// call it after physically moving a block and updating file system
// pointers. newBlock may be a block an earlier call vacated. Durable at the
// next Checkpoint. It holds the structural lock exclusively while it reads
// the block's run records, and a call issued while a Checkpoint is flushing
// waits for that checkpoint to finish. On error nothing has moved and
// nothing was logged: the old block answers as before and the call can be
// retried.
func (db *DB) RelocateBlock(oldBlock, newBlock uint64) error {
	return db.eng.RelocateBlock(oldBlock, newBlock)
}

// Lifecycle is the snapshot-topology API: everything that creates or
// destroys snapshots, clones, and lines. It is the masking authority —
// query results and compaction's purge policy follow whatever topology it
// describes — and under Config.Retention == RetainLive it also drives the
// reclaim horizon that expiry and query pruning use. Obtain it from
// DB.Catalog. A change takes effect in memory at once for every query and
// merge that starts after it; one already in flight keeps the topology it
// pinned when it started, so a Query or QueryRange answers every block by
// one topology. A change is durable at the next manifest commit, which
// carries the topology as it is at that moment: the next Checkpoint,
// Compact, Expire or Close at the latest.
type Lifecycle interface {
	// CreateSnapshot retains version v (a CP number) of the given line. v
	// is the CP being taken — at the earliest the last one committed — and
	// the line is live: a merge in flight may have purged against a
	// topology without the snapshot, which is harmless only because no
	// interval it read can contain so recent a version.
	CreateSnapshot(line, v uint64) error
	// DeleteSnapshot removes a snapshot; if it has clones it is kept as a
	// zombie until they disappear.
	DeleteSnapshot(line, v uint64) error
	// CreateClone registers writable line newLine as a clone of (parent,
	// base). The clone's references are represented implicitly; no
	// records are written.
	CreateClone(newLine, parent, base uint64) error
	// DeleteLine destroys a line's live file system.
	DeleteLine(line uint64) error
	// Snapshots lists the retained snapshot versions of a line.
	Snapshots(line uint64) []uint64
	// Lines lists all known snapshot lines.
	Lines() []uint64
}

// Catalog returns the database's snapshot-lifecycle API. All methods are
// safe for concurrent use with each other and with reference updates and
// queries.
func (db *DB) Catalog() Lifecycle { return db.cat }

// ExpireStats reports what one Expire call did.
type ExpireStats = core.ExpireStats

// Expire commits now. It reaps zombie snapshots, then commits a catalog
// change no commit has carried, the merges Maintain installed since the
// last commit, and, under Config.Retention == RetainLive,
// drops every Combined run whose consistency-point window falls entirely
// below the oldest snapshot still reachable from the catalog — reclaiming
// deleted snapshots' records without reading or rewriting any data, the
// drop and the topology that justified it in one manifest; see the package
// documentation's Retention and expiry section. Every checkpoint, Compact
// and Close under RetainLive drops such runs too, so Expire is only needed
// when snapshots are deleted, or merges made durable, and no commit
// follows. Under RetainAll it drops nothing. With no droppable run, no
// merge since the last commit and an unchanged catalog it writes nothing.
func (db *DB) Expire() (ExpireStats, error) { return db.eng.Expire() }

// RunInfo describes one live read-store run, including the
// consistency-point window its records cover.
type RunInfo = lsm.RunInfo

// Runs returns metadata for every live run — what backlogctl's stats
// subcommand prints per partition.
func (db *DB) Runs() []RunInfo { return db.eng.RunInfos() }

// CP returns the last durable consistency point.
func (db *DB) CP() uint64 { return db.eng.CP() }

// Stats returns cumulative engine counters.
func (db *DB) Stats() Stats { return db.eng.Stats() }

// MaintenanceStats reports the merges maintenance passes installed, the
// current worst per-partition run count and the jobs still pending.
func (db *DB) MaintenanceStats() MaintenanceStats { return db.eng.MaintenanceStats() }

// Metrics returns a point-in-time snapshot of every registered metric:
// counters, gauges, and latency histograms (see the package
// documentation's Observability section). The zero MetricsSnapshot is
// returned when Config.Metrics is off.
func (db *DB) Metrics() MetricsSnapshot { return db.eng.Metrics() }

// WriteMetrics writes the current metrics in the Prometheus text
// exposition format — the same bytes the debug listener's /metrics
// endpoint serves. A no-op when Config.Metrics is off.
func (db *DB) WriteMetrics(w io.Writer) error { return db.reg.WritePrometheus(w) }

// SlowOps returns the retained slow operations, oldest first; empty
// unless Config.SlowOpThreshold is set. The returned slice is a copy.
func (db *DB) SlowOps() []OpEvent { return db.eng.SlowOps() }

// IOReport samples the purpose-tagged I/O accounting: per-source device
// bytes and ops, cumulative totals, and the rolling write-amplification
// monitor (see the package documentation's I/O attribution section). It
// takes no locks and is safe to call concurrently with all operations.
// The same report is served as JSON at /debug/io on Config.DebugAddr.
func (db *DB) IOReport() IOReport { return db.eng.IOReport() }

// DebugAddr returns the debug listener's bound address, or "" when
// Config.DebugAddr was empty. Useful with "127.0.0.1:0", which binds an
// ephemeral port.
func (db *DB) DebugAddr() string {
	if db.debug == nil {
		return ""
	}
	return db.debug.Addr()
}

// DurabilityErr reports the database's sticky durability error, if any. A
// non-nil error means a write-ahead-log append failed, so updates
// acknowledged since then are only as durable as DurabilityCheckpointOnly
// until the next successful Checkpoint (which makes everything buffered
// durable in the read store and clears the error). Applications running
// with DurabilitySync that relay durability promises to their own clients
// should poll this. Always nil in DurabilityCheckpointOnly mode.
func (db *DB) DurabilityErr() error { return db.eng.WALErr() }

// WriteShards returns the number of write-store shards in use.
func (db *DB) WriteShards() int { return db.eng.WriteShards() }

// Durability returns the configured durability mode.
func (db *DB) Durability() Durability { return db.eng.Durability() }

// SizeBytes returns the database's on-disk size.
func (db *DB) SizeBytes() int64 { return db.eng.SizeBytes() }

// Close commits the snapshot catalog, if it changed since the last
// manifest commit, and the merges Maintain installed since then — and, when
// the last commit rides a checkpoint's run file, commits again into a small
// commit file of its own, so that the next Open reads that file and need
// not verify every page of the run file — and flushes buffered references
// according to the configured durability mode. With DurabilityBuffered or
// DurabilitySync the write-ahead log is synced and kept, so a reopened
// database replays every reference accepted before Close — nothing is
// lost. With DurabilityCheckpointOnly (the default, the paper's model)
// buffered (un-checkpointed) references are discarded, exactly like file
// system state past the last consistency point; call Checkpoint before
// Close to keep them.
// Close is safe to call more than once, including concurrently (a second
// call returns nil immediately without waiting for the first to finish);
// it may also race DurabilityErr pollers.
func (db *DB) Close() error {
	if !db.closed.CompareAndSwap(false, true) {
		return nil
	}
	if db.debug != nil {
		db.debug.Close()
	}
	return db.eng.Close()
}
