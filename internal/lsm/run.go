package lsm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/backlogfs/backlog/internal/bloom"
	"github.com/backlogfs/backlog/internal/btree"
	"github.com/backlogfs/backlog/internal/storage"
)

// Run is a handle to one immutable read-store file.
type Run struct {
	name      string
	level     int
	records   uint64
	minBlock  uint64
	maxBlock  uint64
	cp        uint64
	sizeBytes int64
	format    btree.Format

	// minCP and maxCP bound the consistency-point window covered by the
	// run's records; overrides counts inheritance-override records.
	// cpUnknown marks runs of tables without a Span callback, whose window
	// metadata cannot be trusted.
	minCP     uint64
	maxCP     uint64
	overrides uint64
	cpUnknown bool

	table *Table

	// refs counts the versions whose run lists include this run (the
	// current version plus any superseded versions still pinned by
	// views), guarded by db.viewMu. When the last such version is
	// destroyed the run's file is reclaimed.
	refs int

	// file is the handle openRun opened; it is closed when the last version
	// referencing the run is destroyed (removeRuns) or by DB.Close.
	//
	// qreader serves query seeks and Bloom loads, creader compaction
	// scans: shallow copies of one btree.Reader differing only in the
	// purpose tag of their view of file, so every cache-miss page read is
	// attributed to the subsystem that caused it. They share one cache
	// identity — the one a checkpoint's builder wrote its pages through
	// under — and only qreader fills it: a merge scan is served resident
	// pages but inserts none (see btree.Reader.NoFill), so it cannot evict
	// the query working set in favour of runs it is about to delete. Over
	// a VFS that is not storage.Attributed both wrap the same untagged file.
	file    storage.File
	qreader *btree.Reader
	creader *btree.Reader
	// filter is the run's Bloom filter once known: handed over by the
	// builder for a run this process wrote, loaded from the file under mu
	// on the first probe otherwise. Probes read it without a lock. noBF
	// marks a run whose load found no usable filter — none stored, or
	// bytes that could not be read or failed their checksum — and is
	// sticky: the run is probed as filterless from then on, which costs
	// seeks and never an answer.
	filter atomic.Pointer[bloom.Filter]
	mu     sync.Mutex
	noBF   atomic.Bool

	// heatBytes accumulates device bytes read on behalf of queries (fed by
	// the query handle's read hook; cache hits, on the pages a checkpoint
	// wrote through too, add nothing) and lastCP the
	// committed CP current at the most recent query seek — the per-run
	// access heat that size-aware leveling and cold-run placement consume.
	heatBytes atomic.Int64
	lastCP    atomic.Uint64

	// doomedBy records which subsystem's commit dropped the run, so the
	// deferred file removal (possibly performed much later, by a view
	// release) is attributed to the operation that doomed it. Written
	// before the dropping commit's version swap, read under viewMu.
	doomedBy storage.Source
}

// Name returns the run's file name.
func (r *Run) Name() string { return r.name }

// Level returns the run's maintenance level: 0 for per-CP flushes and
// >= 1 for compacted runs (a stepped merge of level-L runs produces a
// level-L+1 run; a full partition merge produces level 1).
func (r *Run) Level() int { return r.level }

// Records returns the number of records in the run.
func (r *Run) Records() uint64 { return r.records }

// MinBlock and MaxBlock bound the block numbers present in the run.
func (r *Run) MinBlock() uint64 { return r.minBlock }

// MaxBlock returns the largest block number present in the run.
func (r *Run) MaxBlock() uint64 { return r.maxBlock }

// MinCP and MaxCP bound the consistency points covered by the run's
// records; meaningful only when CPWindowKnown reports true.
func (r *Run) MinCP() uint64 { return r.minCP }

// MaxCP returns the upper bound of the run's consistency-point window.
func (r *Run) MaxCP() uint64 { return r.maxCP }

// Overrides returns the number of inheritance-override records in the run.
func (r *Run) Overrides() uint64 { return r.overrides }

// CPWindowKnown reports whether the run carries trustworthy CP-window
// metadata (false for legacy runs and tables without a Span callback).
func (r *Run) CPWindowKnown() bool { return !r.cpUnknown }

// Format returns the run's on-disk leaf encoding, read from its header.
func (r *Run) Format() btree.Format { return r.format }

// SizeBytes returns the run's physical on-disk size.
func (r *Run) SizeBytes() int64 { return r.sizeBytes }

// DroppableBelow reports whether the run can be dropped whole once no
// consistency point below cp is reachable: its window must be known, it
// must contain no override records, and every record's span must end
// before cp. Queries use the same predicate to skip such runs when
// masking against the live snapshot graph.
func (r *Run) DroppableBelow(cp uint64) bool {
	return !r.cpUnknown && r.overrides == 0 && r.maxCP < cp
}

// Sealed reports whether the run is a finished slice of Combined history
// that tiered maintenance leaves in place for DroppableBelow to reclaim:
// already compacted (level >= 1), trustworthy CP window, and free of
// override records.
func (r *Run) Sealed() bool {
	return r.level >= 1 && !r.cpUnknown && r.overrides == 0
}

// HeatBytes returns the cumulative device bytes read from the run on
// behalf of queries (zero over a VFS that is not storage.Attributed, and
// for a checkpoint's run served wholly from the pages its builder wrote
// through to the cache).
func (r *Run) HeatBytes() int64 { return r.heatBytes.Load() }

// LastAccessCP returns the committed consistency point current at the
// run's most recent query seek (zero if never queried).
func (r *Run) LastAccessCP() uint64 { return r.lastCP.Load() }

// openRun opens a run file and its per-purpose readers. A run found in the
// manifest has its header read and verified, attributed to src (recovery);
// one this process just built comes with its builder, whose header stands in
// for the read — an install holds the structural lock exclusively.
func (db *DB) openRun(t *Table, rm runManifest, src storage.Source, built *btree.Writer) (*Run, error) {
	f, err := db.vfsFor(src).Open(rm.Name)
	if err != nil {
		return nil, fmt.Errorf("lsm: opening run: %w", err)
	}
	var rd *btree.Reader
	if built != nil {
		rd = built.Open(f, db.cache)
	} else if rd, err = btree.Open(f, db.cache); err != nil {
		f.Close()
		return nil, fmt.Errorf("lsm: run %s: %w", rm.Name, err)
	}
	if rd.RecordSize() != t.spec.RecordSize {
		f.Close()
		return nil, fmt.Errorf("lsm: run %s record size %d, table %q wants %d",
			rm.Name, rd.RecordSize(), t.spec.Name, t.spec.RecordSize)
	}
	if db.opts.DecodeObserver != nil {
		rd.SetDecodeObserver(db.opts.DecodeObserver)
	}
	r := &Run{
		name:      rm.Name,
		level:     rm.Level,
		records:   rm.Records,
		minBlock:  rm.MinBlock,
		maxBlock:  rm.MaxBlock,
		cp:        rm.CP,
		minCP:     rm.MinCP,
		maxCP:     rm.MaxCP,
		overrides: rm.Overrides,
		cpUnknown: rm.CPUnknown,
		sizeBytes: rd.SizeBytes(),
		format:    rd.Format(),
		table:     t,
		file:      f,
		// refs stays 0 until a version installation picks the run up; a
		// Commit that fails before installing removes the file itself.
	}
	qf := storage.WithReadHook(storage.TagFile(f, storage.SrcQuery),
		func(n int) { r.heatBytes.Add(int64(n)) })
	r.qreader = rd.WithFile(qf)
	r.creader = rd.WithFile(storage.TagFile(f, storage.SrcCompaction)).NoFill()
	return r, nil
}

// MayContainBlock consults the run's key range and Bloom filter. A false
// result is definitive.
func (r *Run) MayContainBlock(block uint64) bool {
	if block < r.minBlock || block > r.maxBlock {
		return false
	}
	f := r.bloomFilter()
	if f == nil {
		// No usable filter: must assume presence.
		return true
	}
	return f.MayContain(block)
}

// bloomFilter returns the run's filter, loading it on the first call, or
// nil if the run is to be probed without one.
func (r *Run) bloomFilter() *bloom.Filter {
	if f := r.filter.Load(); f != nil || r.noBF.Load() {
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.filter.Load(); f != nil || r.noBF.Load() {
		return f
	}
	if data, err := r.qreader.BloomBytes(); err == nil && data != nil {
		if f, err := bloom.Unmarshal(data); err == nil {
			r.filter.Store(f)
			return f
		}
	}
	// One read is all a damaged filter gets: retrying per probe would turn
	// every query into a filter load, and answers are exact without it.
	r.noBF.Store(true)
	return nil
}

// SeekGE returns an iterator over the run positioned at the first record
// >= key. Seeks count as query accesses: the run's last-access CP is
// stamped and cache-miss reads feed its heat counter.
func (r *Run) SeekGE(key []byte) (*btree.Iterator, error) {
	r.lastCP.Store(r.table.db.curCP.Load())
	return r.qreader.SeekGE(key)
}

// First returns an iterator over the whole run, reading through the
// compaction-tagged handle: full scans are merge work, not query heat, and
// the pages they miss stay out of the cache.
func (r *Run) First() (*btree.Iterator, error) {
	return r.creader.First()
}

// RunBuilder accumulates sorted records into a new run file. Builders are
// created by DB.NewRunBuilder and produce a RunRef to be installed by a
// later Commit.
type RunBuilder struct {
	db        *DB
	table     *Table
	partition int
	level     int
	cp        uint64
	src       storage.Source

	name   string
	file   storage.File
	writer *btree.Writer
	filter *bloom.Filter

	minBlock, maxBlock uint64
	prevBlock          uint64
	any                bool

	// CP-window metadata folded from the table's Span/IsOverride
	// callbacks; without a Span callback the run is marked CPUnknown.
	minCP, maxCP uint64
	overrides    uint64
	anyCP        bool
}

// NewRunBuilder starts a new run for (table, partition). Level 0 marks a
// per-CP flush; levels >= 1 compacted runs (compaction stamps its outputs
// one level above its inputs, or 1 for a full-partition merge). The run
// file is created immediately but becomes visible only when its RunRef is
// committed. All I/O the builder issues — file creation, page writes, the
// final sync, and removal on abort — is attributed to src (checkpoint for
// per-CP flushes, compaction for merges). expectRecords is an upper bound
// on the records the caller will add (the write store's length at a
// checkpoint, the inputs' record total at a merge); it sizes the Bloom
// filter, which Finish then shrinks to the keys actually added.
//
// A checkpoint's builder (src storage.SrcCheckpoint) writes its pages
// through to the page cache where the cache has room for them
// (btree.Writer.WriteThrough), so the queries and the merge that read a
// fresh run find it in memory. A merge's builder caches nothing: its
// output is about as large as its inputs and mostly cold, and a merge
// inserts no page into the cache and evicts none, scan and output alike.
func (db *DB) NewRunBuilder(table string, partition, level int, cp uint64, src storage.Source, expectRecords int) (*RunBuilder, error) {
	t := db.tables[table]
	if t == nil {
		return nil, fmt.Errorf("lsm: unknown table %q", table)
	}
	if partition < 0 || partition >= db.opts.Partitions {
		return nil, fmt.Errorf("lsm: partition %d out of range", partition)
	}
	name := fmt.Sprintf("%s.p%03d.%010d.run", table, partition, db.allocID())
	f, err := db.vfsFor(src).Create(name)
	if err != nil {
		return nil, err
	}
	// Every run creation funnels through here — checkpoint flushes and
	// compaction — so the configured format covers them all.
	w, err := btree.NewWriterFormat(f, t.spec.RecordSize, db.opts.RunFormat)
	if err != nil {
		db.removeRunFile(name, src, f, 0) // no writer, so nothing cached
		return nil, err
	}
	if src == storage.SrcCheckpoint {
		w.WriteThrough(db.cache)
	}
	return &RunBuilder{
		db:        db,
		table:     t,
		partition: partition,
		level:     level,
		cp:        cp,
		src:       src,
		name:      name,
		file:      f,
		writer:    w,
		filter:    bloom.NewForCapacity(expectRecords, t.spec.BloomMaxBytes),
	}, nil
}

// Add appends a record (strictly ascending order required).
func (b *RunBuilder) Add(rec []byte) error {
	if err := b.writer.Append(rec); err != nil {
		return err
	}
	blk := blockOf(rec)
	if blk != b.prevBlock || !b.any {
		// The filter indexes block numbers; add each distinct block once.
		b.filter.Add(blk)
	}
	if !b.any {
		b.minBlock = blk
		b.any = true
	}
	b.prevBlock = blk
	b.maxBlock = blk
	if span := b.table.spec.Span; span != nil {
		lo, hi := span(rec)
		if !b.anyCP {
			b.minCP, b.maxCP, b.anyCP = lo, hi, true
		} else {
			if lo < b.minCP {
				b.minCP = lo
			}
			if hi > b.maxCP {
				b.maxCP = hi
			}
		}
		if ov := b.table.spec.IsOverride; ov != nil && ov(rec) {
			b.overrides++
		}
	}
	return nil
}

// Count returns the number of records added so far.
func (b *RunBuilder) Count() uint64 { return b.writer.Count() }

// RunRef identifies a finished, not-yet-committed run.
type RunRef struct {
	table     string
	partition int
	rm        runManifest
	sizeBytes int64
	src       storage.Source
	// filter is the Bloom filter the builder wrote into the file and built
	// the writer that holds its header; Commit gives both to the installed
	// run, which then never reads either back.
	filter *bloom.Filter
	built  *btree.Writer
}

// SizeBytes returns the finished run's physical on-disk size; compaction
// sums it into the engine's write-amplification accounting.
func (ref RunRef) SizeBytes() int64 { return ref.sizeBytes }

// Records returns the number of records in the finished run.
func (ref RunRef) Records() uint64 { return ref.rm.Records }

// Finish completes the run file (bloom + header + sync) and returns its
// reference. Empty builders return a zero RunRef with ok=false and remove
// their file. The builder's write handle is closed in every path; a later
// Commit reopens the file by name.
func (b *RunBuilder) Finish() (ref RunRef, ok bool, err error) {
	if b.writer.Count() == 0 {
		b.Abort()
		return RunRef{}, false, nil
	}
	// Shrink the filter to the paper's target false-positive rate when the
	// run holds few records ("If an RS contains a smaller number of
	// records, we appropriately shrink its Bloom filter", Section 5.1).
	b.filter.ShrinkToFit(0.024)
	if err := b.writer.Finish(b.filter.Marshal()); err != nil {
		b.file.Close()
		return RunRef{}, false, err
	}
	if err := b.file.Close(); err != nil {
		return RunRef{}, false, err
	}
	rm := runManifest{
		Name:     b.name,
		Level:    b.level,
		Records:  b.writer.Count(),
		MinBlock: b.minBlock,
		MaxBlock: b.maxBlock,
		CP:       b.cp,
	}
	if b.table.spec.Span != nil && b.anyCP {
		rm.MinCP, rm.MaxCP, rm.Overrides = b.minCP, b.maxCP, b.overrides
	} else {
		rm.MinCP, rm.MaxCP, rm.CPUnknown = 0, b.cp, true
	}
	return RunRef{
		table:     b.table.spec.Name,
		partition: b.partition,
		rm:        rm,
		sizeBytes: b.writer.SizeBytes(),
		src:       b.src,
		filter:    b.filter,
		built:     b.writer,
	}, true, nil
}

// Abort removes a builder's file, and the pages it wrote through to the
// cache, without committing it.
func (b *RunBuilder) Abort() {
	b.db.removeRunFile(b.name, b.src, b.file, b.writer.CacheID())
}

// DiscardRun removes the file behind a finished run that was never handed
// to an Edit (once AddRun is called, a failed Commit removes the file
// itself), and the pages its builder wrote through to the cache. The
// checkpoint flush uses it to clean up the runs its tables completed before
// another run's flush failed, compaction the outputs of a merge that lost
// its race; uncleaned files would otherwise linger as orphans until the
// next Open, and their pages until eviction reached them.
func (db *DB) DiscardRun(ref RunRef) {
	if ref.rm.Name == "" {
		return
	}
	db.removeRunFile(ref.rm.Name, ref.src, nil, ref.built.CacheID())
}

// removeRunFile is the one place a run file dies: a build aborted or
// discarded, a Commit that failed, a run no version references any more.
// It closes f (nil when the caller holds no handle), drops the pages cached
// under id — the run's cache identity, shared by its builder and its
// readers — and removes the file, attributed to src. Failures are not
// reported: nothing refers to the file, so one left behind is an orphan
// the next Open collects.
func (db *DB) removeRunFile(name string, src storage.Source, f storage.File, id uint64) {
	if f != nil {
		f.Close()
	}
	db.cache.Drop(id)
	_ = db.vfsFor(src).Remove(name)
}
