// Package lsm implements the LSM-tree / Stepped-Merge storage layer that
// holds Backlog's From, To, and Combined tables (paper Sections 5.1–5.3).
//
// Each table is a set of immutable read-store (RS) runs, horizontally
// partitioned by physical block number. At every consistency point the
// engine flushes its in-memory write stores into one new Level-0 run per
// (table, partition); compaction later merges all runs of a partition into
// a single large run (the Stepped-Merge Level-N analog). Every run carries
// a Bloom filter over its block numbers so queries open only runs that may
// contain the queried block.
//
// A single manifest file is the commit point: run files are written and
// synced first, then the manifest is atomically replaced (write temp, sync,
// rename), mirroring the write-anywhere "root written last" discipline the
// paper's recovery story relies on (Section 5.4). A crash between run
// writes and the manifest commit leaves orphan files that Open garbage
// collects. The manifest also carries one opaque section for its caller
// (Options.Section — the engine's snapshot catalog), so state that decides
// what the runs mean changes in the same rename as the runs.
//
// The layer is policy-free: it stores opaque fixed-size records ordered by
// bytes.Compare whose first 8 bytes are the big-endian physical block
// number. The join, inheritance, masking, and purge logic live in
// internal/core.
package lsm

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/backlogfs/backlog/internal/btree"
	"github.com/backlogfs/backlog/internal/storage"
)

const (
	manifestName    = "MANIFEST"
	manifestTmpName = "MANIFEST.tmp"

	// manifestVersion is the on-disk manifest format Commit writes: per-run
	// consistency-point windows ([min_cp, max_cp]), override-record counts
	// and the caller's section. loadManifest also accepts the version
	// before it, which had no section; a store that used one kept it in a
	// file of its own, legacySectionName, replaced through
	// legacySectionTmpName.
	manifestVersion      = 3
	manifestReadsVersion = 2
	legacySectionName    = "CATALOG"
	legacySectionTmpName = "CATALOG.tmp"

	// maxRunLevel bounds the level a manifest may claim for a run: a level
	// is reached by merging at least two runs of the one below.
	maxRunLevel = 64
)

// TableSpec declares one table of a DB.
type TableSpec struct {
	// Name identifies the table ("from", "to", "combined").
	Name string
	// RecordSize is the fixed encoded record size in bytes.
	RecordSize int
	// BloomMaxBytes caps the Bloom filter size of this table's runs
	// (bloom.MaxFilterBytes if zero). Below the cap a filter is sized by
	// the run's keys, not by its table.
	BloomMaxBytes int
	// Span reports the consistency-point window [lo, hi] a record covers.
	// Run builders fold it into the run's [MinCP, MaxCP] metadata, which
	// drop-based expiry (Edit.DropRunsBelow) and CP-window query pruning
	// rely on. When nil, runs of this table carry no CP window and are
	// never dropped or pruned by CP.
	Span func(rec []byte) (lo, hi uint64)
	// IsOverride reports whether a record is an inheritance-override
	// record that must outlive ordinary expiry. Runs containing at least
	// one override record are never dropped by DropRunsBelow. Optional;
	// only consulted when Span is set.
	IsOverride func(rec []byte) bool
}

// Options configures Open.
type Options struct {
	// Tables lists the tables of the database.
	Tables []TableSpec
	// Partitions is the number of block-range partitions (>= 1).
	Partitions int
	// PartitionSpan is the number of physical blocks per partition;
	// blocks >= Partitions*PartitionSpan route to the last partition.
	// Required when Partitions > 1 unless HashPartitioning is set.
	PartitionSpan uint64
	// HashPartitioning routes blocks to partitions by hash instead of by
	// contiguous range — the alternative scheme the paper plans to
	// explore for better parallelism (Section 5.3). Hash partitioning
	// spreads load evenly regardless of allocation locality, at the cost
	// of less selective per-run block ranges.
	HashPartitioning bool
	// Cache is the shared page cache used by run readers, which a
	// checkpoint's run builders also fill with the pages they write, where
	// it has room (see DB.NewRunBuilder). May be nil.
	Cache *btree.Cache
	// RunFormat selects the leaf encoding for newly built runs:
	// btree.FormatRaw (also if zero) or btree.FormatDelta, the two formats
	// that can be written. Existing runs of every readable format — those
	// two and the previous delta format — open transparently regardless of
	// this setting, and every builder — the checkpoint flush and
	// compaction go through NewRunBuilder — writes the configured format,
	// so a database migrates run by run as compaction rewrites them.
	// FormatDelta requires every table's RecordSize to be a multiple of 8.
	RunFormat btree.Format
	// DecodeObserver, when non-nil, receives the wall time of the
	// validate-and-sample pass over each compressed leaf page a query
	// reads on a cache miss (the engine wires it to the
	// backlog_page_decode_ns histogram). Merge scans decode a
	// current-format leaf once, validating as they stream, and report
	// nothing here.
	DecodeObserver func(time.Duration)
	// Section, when non-nil, supplies the opaque section — valid JSON — that
	// every manifest carries beside the run sets. Commit calls it while it
	// builds the next manifest, under the caller's exclusive structural
	// lock, and stores what it returns: whatever the section serializes
	// becomes durable in the same rename as the edit, never before and
	// never after. With a nil Section the manifest gets no section of this
	// process's making (one found on disk is carried forward untouched).
	Section func() ([]byte, error)
}

// DB is a multi-table LSM store with a single atomic manifest.
//
// DB is not internally synchronized except for run-ID allocation (idMu)
// and view refcounting (viewMu): callers serialize structural operations
// (Commit, deletion-vector mutation) themselves, but may create
// RunBuilders from multiple goroutines concurrently — the engine's
// parallel checkpoint flush relies on this — and may acquire and release
// Views concurrently with each other and with structural readers.
type DB struct {
	vfs   storage.VFS
	opts  Options
	cache *btree.Cache

	tables map[string]*Table
	m      manifest
	// legacySection notes that m.Catalog was read from legacySectionName, the
	// file the previous format kept it in; the first Commit moves it into
	// the manifest and removes the file.
	legacySection bool

	// curCP mirrors m.CP for lock-free readers: Run.SeekGE stamps each
	// run's last-access CP from it without taking any lock, while Commit
	// replaces db.m concurrently. Written at Open and at every Commit.
	curCP atomic.Uint64

	// idMu guards nextID, the monotonic run/DV file-ID allocator.
	// Allocation is deliberately outside the manifest struct: builders
	// (checkpoint table flushes, optimistic compactions) allocate with no
	// structural lock held, concurrently with a Commit replacing db.m —
	// the allocator must never move backwards, or a live run's file name
	// would be reused. Commit persists a snapshot of the allocator taken
	// after all of its own allocations, so the on-disk NextID always
	// covers every ID handed out, including in-flight builders whose
	// edits never commit (their files become orphans).
	idMu   sync.Mutex
	nextID uint64

	// viewMu guards the current version pointer and version/run
	// refcounts: AcquireView and Release may run concurrently with each
	// other and with the version transition a Commit performs.
	viewMu sync.Mutex
	// cur is the current version — the refcounted snapshot of all
	// tables' run sets and deletion vectors that AcquireView pins in
	// O(1). Commit installs a successor and drops the current ref of the
	// old version; superseded run files are reclaimed when the last
	// version referencing them is destroyed. verStale records that a
	// deletion-vector mutation outside a Commit made cur's snapshot lag
	// live state; the next AcquireView rebuilds it. Mutators write it
	// under the caller's structural exclusive lock, AcquireView reads and
	// clears it under viewMu plus at least the shared structural lock.
	cur      *version
	verStale bool

	// views counts live (unreleased) View pins, and deferred tracks run
	// files already dropped from the manifest but still pinned by some
	// version — files whose deletion is deferred behind a view. Both are
	// guarded by viewMu and exported (ActiveViews, DeferredFiles) for the
	// engine's observability gauges: a deferred count that grows without
	// bound is the signature of a leaked view pin.
	views    int
	deferred map[string]struct{}
}

// ActiveViews returns the number of currently pinned (acquired, not yet
// released) views.
func (db *DB) ActiveViews() int {
	db.viewMu.Lock()
	defer db.viewMu.Unlock()
	return db.views
}

// DeferredFiles returns the number of run files dropped from the manifest
// whose deletion is deferred because a pinned view still references them.
func (db *DB) DeferredFiles() int {
	db.viewMu.Lock()
	defer db.viewMu.Unlock()
	return len(db.deferred)
}

// deferRun marks a dropped-but-still-pinned run file. Caller holds viewMu.
func (db *DB) deferRun(name string) {
	if db.deferred == nil {
		db.deferred = make(map[string]struct{})
	}
	db.deferred[name] = struct{}{}
}

// undeferAll clears deferred-tracking for runs whose last pin just went
// (they are about to be removed). Caller holds viewMu. Deleting a run
// that was never deferred (doomed without ever outliving its drop) is a
// no-op.
func (db *DB) undeferAll(doomed []*Run) {
	for _, r := range doomed {
		delete(db.deferred, r.name)
	}
}

// vfsFor returns the DB's VFS re-tagged to attribute I/O to src. With an
// unattributed VFS (plain MemFS/DirFS) it returns the VFS unchanged, so
// every internal call site tags unconditionally.
func (db *DB) vfsFor(src storage.Source) storage.VFS {
	return storage.TagVFS(db.vfs, src)
}

// allocID hands out the next file ID.
func (db *DB) allocID() uint64 {
	db.idMu.Lock()
	id := db.nextID
	db.nextID++
	db.idMu.Unlock()
	return id
}

// nextIDSnapshot returns the first unallocated ID, for manifest
// serialization.
func (db *DB) nextIDSnapshot() uint64 {
	db.idMu.Lock()
	defer db.idMu.Unlock()
	return db.nextID
}

// Table is one logical table of a DB.
type Table struct {
	db   *DB
	spec TableSpec
	// runs[p] lists the live runs of partition p, oldest first. Commit
	// replaces these slices wholesale (never appends in place), so a View
	// can share them without copying.
	runs [][]*Run
	// dv is the deletion vector: records hidden from all reads until the
	// next compaction rewrites them away (paper Section 5.1, borrowed
	// from C-Store). The map is copy-on-write: once a View shares it
	// (dvShared), the next mutation copies it first, so view readers never
	// observe a mutation. dvGen counts content mutations — Views compare
	// generations to detect change without comparing maps. DeleteRecord
	// and UndeleteRecord edit it in memory and set dvDirty; entries are
	// collected, and the vector written to its dv.* file, by Edit.Commit
	// alone — when the edit drops runs of the table, and when it advances
	// the CP over a dirty vector — which swaps the result in only once the
	// manifest has been renamed.
	dv       map[string]struct{}
	dvShared bool
	dvGen    uint64
	dvDirty  bool
}

// manifest is the JSON-serialized commit point.
type manifest struct {
	Version int                      `json:"version"`
	CP      uint64                   `json:"cp"`
	NextID  uint64                   `json:"next_id"`
	Tables  map[string]tableManifest `json:"tables"`
	// Catalog is the caller's section (Options.Section), omitted when there
	// is none.
	Catalog json.RawMessage `json:"catalog,omitempty"`
}

type tableManifest struct {
	Partitions [][]runManifest `json:"partitions"`
	DVFile     string          `json:"dv_file,omitempty"`
	DVCount    int             `json:"dv_count,omitempty"`
}

type runManifest struct {
	Name     string
	Level    int
	Records  uint64
	MinBlock uint64
	MaxBlock uint64
	CP       uint64 // CP at which the run was created
	// MinCP and MaxCP bound the consistency points covered by the run's
	// records (as reported by the table's Span callback). A run whose
	// MaxCP lies below the reclaim horizon — and which contains no
	// override records — can be dropped whole without rewriting data.
	MinCP, MaxCP uint64
	// Overrides counts inheritance-override records in the run; runs with
	// Overrides > 0 are never dropped by DropRunsBelow.
	Overrides uint64
	// CPUnknown marks runs without trustworthy window metadata: runs of
	// tables without a Span callback. Such runs are never dropped or pruned
	// by CP.
	CPUnknown bool
}

// runManifestJSON is the wire form of runManifest. MinCP and MaxCP are
// omitted when equal to CP (the common case for level-0 flushes, where
// every record carries the flushed consistency point), keeping manifests
// of pre-window workloads byte-identical modulo the version field.
type runManifestJSON struct {
	Name      string  `json:"name"`
	Level     int     `json:"level"`
	Records   uint64  `json:"records"`
	MinBlock  uint64  `json:"min_block"`
	MaxBlock  uint64  `json:"max_block"`
	CP        uint64  `json:"cp"`
	MinCP     *uint64 `json:"min_cp,omitempty"`
	MaxCP     *uint64 `json:"max_cp,omitempty"`
	Overrides uint64  `json:"overrides,omitempty"`
	CPUnknown bool    `json:"cp_unknown,omitempty"`
}

func (rm runManifest) MarshalJSON() ([]byte, error) {
	w := runManifestJSON{
		Name: rm.Name, Level: rm.Level, Records: rm.Records,
		MinBlock: rm.MinBlock, MaxBlock: rm.MaxBlock, CP: rm.CP,
		CPUnknown: rm.CPUnknown,
	}
	if !rm.CPUnknown {
		if rm.MinCP != rm.CP {
			v := rm.MinCP
			w.MinCP = &v
		}
		if rm.MaxCP != rm.CP {
			v := rm.MaxCP
			w.MaxCP = &v
		}
		w.Overrides = rm.Overrides
	}
	return json.Marshal(&w)
}

func (rm *runManifest) UnmarshalJSON(data []byte) error {
	var w runManifestJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*rm = runManifest{
		Name: w.Name, Level: w.Level, Records: w.Records,
		MinBlock: w.MinBlock, MaxBlock: w.MaxBlock, CP: w.CP,
		MinCP: w.CP, MaxCP: w.CP, Overrides: w.Overrides, CPUnknown: w.CPUnknown,
	}
	if w.MinCP != nil {
		rm.MinCP = *w.MinCP
	}
	if w.MaxCP != nil {
		rm.MaxCP = *w.MaxCP
	}
	return nil
}

// Open opens or creates a DB in vfs.
func Open(vfs storage.VFS, opts Options) (*DB, error) {
	if len(opts.Tables) == 0 {
		return nil, errors.New("lsm: no tables configured")
	}
	if opts.Partitions < 1 {
		opts.Partitions = 1
	}
	if opts.Partitions > 1 && opts.PartitionSpan == 0 && !opts.HashPartitioning {
		return nil, errors.New("lsm: PartitionSpan required with multiple range partitions")
	}
	if opts.RunFormat == 0 {
		opts.RunFormat = btree.FormatRaw
	}
	if opts.RunFormat != btree.FormatRaw && opts.RunFormat != btree.FormatDelta {
		return nil, fmt.Errorf("lsm: run format %d cannot be written (raw and delta can)", opts.RunFormat)
	}
	db := &DB{vfs: vfs, opts: opts, cache: opts.Cache, tables: make(map[string]*Table)}
	for _, spec := range opts.Tables {
		if spec.RecordSize <= 8 {
			return nil, fmt.Errorf("lsm: table %q record size %d too small", spec.Name, spec.RecordSize)
		}
		if opts.RunFormat == btree.FormatDelta && spec.RecordSize%8 != 0 {
			return nil, fmt.Errorf("lsm: table %q record size %d incompatible with delta run format",
				spec.Name, spec.RecordSize)
		}
		if _, dup := db.tables[spec.Name]; dup {
			return nil, fmt.Errorf("lsm: duplicate table %q", spec.Name)
		}
		t := &Table{
			db:   db,
			spec: spec,
			runs: make([][]*Run, opts.Partitions),
			dv:   make(map[string]struct{}),
		}
		db.tables[spec.Name] = t
	}
	if err := db.loadManifest(); err != nil {
		db.Close()
		return nil, err
	}
	if opts.Section != nil && db.m.Catalog == nil {
		// A store the previous format wrote: its section is in its own file.
		sec, err := readAll(db.vfsFor(storage.SrcRecovery), legacySectionName)
		if err != nil && !errors.Is(err, storage.ErrNotExist) {
			db.Close()
			return nil, fmt.Errorf("lsm: reading %s: %w", legacySectionName, err)
		}
		db.m.Catalog, db.legacySection = sec, err == nil
	}
	db.nextID = db.m.NextID
	db.curCP.Store(db.m.CP)
	if err := db.collectOrphans(); err != nil {
		db.Close()
		return nil, err
	}
	db.cur = db.newVersion()
	return db, nil
}

// Close releases the file handle of every live run. The caller must have
// excluded structural operations; runs a still-pinned view keeps alive
// past their drop are closed when that view is released. The handles are
// read-only, so their Close errors carry nothing to report.
func (db *DB) Close() {
	for _, t := range db.tables {
		for _, part := range t.runs {
			for _, r := range part {
				r.file.Close()
			}
		}
	}
}

// Table returns the named table, or nil if not configured.
func (db *DB) Table(name string) *Table { return db.tables[name] }

// CP returns the last committed consistency point number.
func (db *DB) CP() uint64 { return db.m.CP }

// Section returns the section the committed manifest carries (at Open, of a
// store the previous format wrote, the one its own file held), or nil. The
// caller must hold the structural lock (shared suffices) and not modify it.
func (db *DB) Section() []byte { return db.m.Catalog }

// Partitions returns the number of partitions.
func (db *DB) Partitions() int { return db.opts.Partitions }

// PartitionOf returns the partition index responsible for a block.
func (db *DB) PartitionOf(block uint64) int {
	if db.opts.Partitions <= 1 {
		return 0
	}
	if db.opts.HashPartitioning {
		return int(Mix64(block) % uint64(db.opts.Partitions))
	}
	p := int(block / db.opts.PartitionSpan)
	if p >= db.opts.Partitions {
		p = db.opts.Partitions - 1
	}
	return p
}

// Mix64 is the SplitMix64 finalizer. It drives hash partitioning here and
// write-store sharding in internal/core. The two are independent: a
// checkpoint merges the shards before it routes records to partitions.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// PartitionRange returns the block range [lo, hi] covered by partition p
// (hi is inclusive; the last partition extends to MaxUint64). With hash
// partitioning every partition spans the whole block space.
func (db *DB) PartitionRange(p int) (lo, hi uint64) {
	if db.opts.Partitions <= 1 || db.opts.HashPartitioning {
		return 0, ^uint64(0)
	}
	lo = uint64(p) * db.opts.PartitionSpan
	if p == db.opts.Partitions-1 {
		return lo, ^uint64(0)
	}
	return lo, (uint64(p)+1)*db.opts.PartitionSpan - 1
}

// SizeBytes returns the total on-disk size of all live runs and deletion
// vectors — the measure used in the paper's space-overhead figures.
func (db *DB) SizeBytes() int64 {
	var n int64
	for _, t := range db.tables {
		for _, part := range t.runs {
			for _, r := range part {
				n += r.sizeBytes
			}
		}
		n += int64(len(t.dv) * t.spec.RecordSize)
	}
	return n
}

// RunCount returns the total number of live runs across all tables.
func (db *DB) RunCount() int {
	var n int
	for _, t := range db.tables {
		for _, part := range t.runs {
			n += len(part)
		}
	}
	return n
}

// PartitionLevelCounts returns, for every partition, the number of live
// runs at each level summed across all tables (index [partition][level]).
// Each row is sized to the deepest level present in its partition. The
// caller must hold the structural lock (shared suffices).
func (db *DB) PartitionLevelCounts() [][]int {
	counts := make([][]int, db.opts.Partitions)
	for _, t := range db.tables {
		for p, part := range t.runs {
			for _, r := range part {
				for len(counts[p]) <= r.level {
					counts[p] = append(counts[p], 0)
				}
				counts[p][r.level]++
			}
		}
	}
	return counts
}

// RunInfo describes one live run for observability (backlogctl stats).
type RunInfo struct {
	Table     string
	Partition int
	Name      string
	Level     int
	Records   uint64
	SizeBytes int64
	// Format is the run's on-disk leaf encoding — btree.FormatRaw,
	// btree.FormatDelta or the previous, read-only delta format — read
	// from the run's own header.
	Format btree.Format
	// LogicalBytes is Records x RecordSize — the size the records occupy
	// once decoded; SizeBytes/LogicalBytes is the physical footprint
	// including index pages and Bloom filter.
	LogicalBytes int64
	MinBlock     uint64
	MaxBlock     uint64
	CP           uint64
	// MinCP and MaxCP bound the consistency points covered by the run's
	// records; meaningful only when CPWindowKnown.
	MinCP, MaxCP  uint64
	Overrides     uint64
	CPWindowKnown bool
	// HeatBytes is the cumulative bytes read from the run's file on behalf
	// of queries (cache misses only — page-cache hits cost no device I/O),
	// and LastAccessCP the committed CP current at the run's most recent
	// query seek. Both are zero over a VFS that is not storage.Attributed
	// (the engine's always is); size-aware leveling and cold-run placement
	// read them to rank runs by heat. HeatBytes counts device reads only:
	// a checkpoint's run that queries found whole in the cache, where its
	// builder wrote it, shows no heat, however often it was read.
	HeatBytes    int64
	LastAccessCP uint64
}

// RunInfos lists every live run ordered by (table, partition, age). The
// caller must hold the structural lock (shared suffices).
func (db *DB) RunInfos() []RunInfo {
	var infos []RunInfo
	names := make([]string, 0, len(db.tables))
	for name := range db.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := db.tables[name]
		for p, part := range t.runs {
			for _, r := range part {
				infos = append(infos, RunInfo{
					Table: name, Partition: p, Name: r.name, Level: r.level,
					Records: r.records, SizeBytes: r.sizeBytes,
					Format:       r.format,
					LogicalBytes: int64(r.records) * int64(t.spec.RecordSize),
					MinBlock:     r.minBlock, MaxBlock: r.maxBlock, CP: r.cp,
					MinCP: r.minCP, MaxCP: r.maxCP, Overrides: r.overrides,
					CPWindowKnown: !r.cpUnknown,
					HeatBytes:     r.heatBytes.Load(),
					LastAccessCP:  r.lastCP.Load(),
				})
			}
		}
	}
	return infos
}

// readAll returns the contents of the named file.
func readAll(vfs storage.VFS, name string) ([]byte, error) {
	f, err := vfs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return buf, nil
}

func (db *DB) loadManifest() error {
	buf, err := readAll(db.vfsFor(storage.SrcRecovery), manifestName)
	if errors.Is(err, storage.ErrNotExist) {
		db.m = manifest{Version: manifestVersion, NextID: 1, Tables: map[string]tableManifest{}}
		return nil
	}
	if err != nil {
		return fmt.Errorf("lsm: reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return fmt.Errorf("lsm: decoding manifest: %w", err)
	}
	// A missing version field decodes as 0 and is refused like any other.
	if m.Version != manifestVersion && m.Version != manifestReadsVersion {
		return fmt.Errorf("lsm: manifest version %d not supported (this binary writes version %d and reads versions %d and %d)",
			m.Version, manifestVersion, manifestReadsVersion, manifestVersion)
	}
	db.m = m
	for name, tm := range m.Tables {
		t := db.tables[name]
		if t == nil {
			return fmt.Errorf("lsm: manifest references unknown table %q", name)
		}
		if len(tm.Partitions) != db.opts.Partitions {
			return fmt.Errorf("lsm: table %q has %d partitions on disk, configured %d",
				name, len(tm.Partitions), db.opts.Partitions)
		}
		for p, runs := range tm.Partitions {
			for _, rm := range runs {
				if rm.Level < 0 || rm.Level > maxRunLevel {
					return fmt.Errorf("lsm: manifest puts run %s at level %d", rm.Name, rm.Level)
				}
				r, err := db.openRun(t, rm, storage.SrcRecovery, nil)
				if err != nil {
					return err
				}
				t.runs[p] = append(t.runs[p], r)
			}
		}
		if tm.DVFile != "" {
			if err := t.loadDV(tm.DVFile); err != nil {
				return err
			}
		}
	}
	return nil
}

// collectOrphans removes files not referenced by the manifest — leftovers
// of a crash between run writes and the manifest commit, or between a commit
// that moved the section into the manifest and the removal of its old file.
func (db *DB) collectOrphans() error {
	live := map[string]bool{manifestName: true}
	// The section's old file is the only copy until a manifest carries one.
	live[legacySectionName] = db.legacySection || db.m.Catalog == nil
	for _, name := range db.Files() {
		live[name] = true
	}
	names, err := db.vfs.List()
	if err != nil {
		return err
	}
	rvfs := db.vfsFor(storage.SrcRecovery)
	for _, name := range names {
		if live[name] {
			continue
		}
		if !strings.HasSuffix(name, ".run") && !strings.HasPrefix(name, "dv.") &&
			name != manifestTmpName && name != legacySectionName && name != legacySectionTmpName {
			continue // not ours
		}
		if err := rvfs.Remove(name); err != nil && !errors.Is(err, storage.ErrNotExist) {
			return err
		}
	}
	return nil
}

// Files returns the files the committed manifest names — every run and
// deletion-vector file — sorted. Open removes any other run, vector or
// temporary manifest file it finds. The caller must hold the structural lock
// (shared suffices).
func (db *DB) Files() []string {
	var names []string
	for _, tm := range db.m.Tables {
		for _, runs := range tm.Partitions {
			for _, rm := range runs {
				names = append(names, rm.Name)
			}
		}
		if tm.DVFile != "" {
			names = append(names, tm.DVFile)
		}
	}
	sort.Strings(names)
	return names
}

// blockOf extracts the big-endian block number prefix of a record.
func blockOf(rec []byte) uint64 { return binary.BigEndian.Uint64(rec[:8]) }
