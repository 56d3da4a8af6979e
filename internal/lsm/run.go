package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/backlogfs/backlog/internal/bloom"
	"github.com/backlogfs/backlog/internal/btree"
	"github.com/backlogfs/backlog/internal/storage"
)

// Run is a handle to one immutable read-store run: a whole file, or one
// section of a file it shares with runs of other tables.
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

	// pageExt and filterExt are where the run lies in a file it shares
	// (runManifest.Pages and Filter); zero for a run that is its whole file.
	pageExt, filterExt storage.Extent

	table *Table

	// refs counts the versions whose run lists include this run (the
	// current version plus any superseded versions still pinned by
	// views), guarded by db.viewMu. When the last such version is
	// destroyed the run is taken off its file, which is reclaimed with the
	// last of its runs.
	refs int

	// file is the file the run is in, with the one handle its runs share.
	//
	// qreader serves query seeks and Bloom loads, creader compaction
	// scans: shallow copies of one btree.Reader differing only in the
	// purpose tag of their view of the file, so every cache-miss page read
	// is attributed to the subsystem that caused it. They share one cache
	// identity — the one a checkpoint's builder wrote its pages through
	// under — and only qreader fills it: a merge scan is served resident
	// pages but inserts none (see btree.Reader.NoFill), so it cannot evict
	// the query working set in favour of runs it is about to delete. Over
	// a VFS that is not storage.Attributed both wrap the same untagged file.
	// A run that shares its file reads through a storage.Extents view of
	// its two ranges, which presents the run's own layout.
	file    *runFile
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

	// doomedBy records which subsystem's commit dropped the run, so the
	// deferred file removal (possibly performed much later, by a view
	// release) is attributed to the operation that doomed it. Written
	// before the dropping commit's version swap, read under viewMu.
	doomedBy storage.Source
}

// runFile is one run file: the handle every run in it reads through, and
// how many of those runs no version has let go of yet. The last run to go
// closes the handle and removes the file (removeFiles).
type runFile struct {
	name string
	f    storage.File
	// pending is the writer of a checkpoint's file whose final write and
	// sync wait for the commit's trailer (FileSet.Finish), laid out as
	// layout says; nil once the file is written. Its handle, f, is then the
	// one the file's runs read through.
	pending *btree.FileWriter
	layout  btree.Layout
	// runs is guarded by db.viewMu once the runs are installed; doomedBy
	// is the source the file's removal is attributed to.
	runs     int
	doomedBy storage.Source
}

// Name returns the name of the file the run is in; within its table it
// names the run.
func (r *Run) Name() string { return r.name }

// Level returns the run's maintenance level: 0 for per-CP flushes and
// >= 1 for compacted runs (a stepped merge of level-L runs produces a
// level-L+1 run; a full partition merge produces its inputs' highest
// level, 1 at least).
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

// Header returns the run's header as its reader holds it, which the next
// commit carries: for a section whose file does not hold its header
// (btree.Header.FirstPage), the only copy besides the manifest's.
func (r *Run) Header() btree.Header { return r.qreader.Header() }

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

// openRun opens the per-purpose readers of a run in rf, whose handle is
// open; the caller counts the run on rf (runFile.runs) when it installs it.
// It reads nothing. A run this process just built comes with its builder,
// whose header stands in for the page; a run found in the manifest is
// opened from the header its entry carries, held against the file as the
// page's would be. A run that shares its file reads through a view of its
// two ranges — the file's first run claims every byte before the filters
// (btree.FileWriter), where its filter comes first — and its header must
// describe them. A run in a format this binary does not read is refused by
// name, not as damage: a newer binary wrote it (btree.ErrNewerFormat), or
// an older one, whose formats an upgrade rewrites.
func (db *DB) openRun(t *Table, rm runManifest, built *btree.Writer, rf *runFile) (*Run, error) {
	var rd *btree.Reader
	if built != nil {
		rd = built.Open(rm.view(rf.f), db.cache)
	} else {
		var err error
		switch rd, err = btree.OpenHeader(rm.view(rf.f), *rm.Header, db.cache); {
		case errors.Is(err, btree.ErrNewerFormat):
			return nil, fmt.Errorf("lsm: %s run in %s: %w: open the store with the binary that wrote it, or a newer one", t.spec.Name, rm.Name, err)
		case errors.Is(err, btree.ErrCorrupt):
			return nil, corrupt("%s run in %s: the header its entry carries: %v", t.spec.Name, rm.Name, err)
		case err != nil:
			return nil, fmt.Errorf("lsm: %s run in %s: %w", t.spec.Name, rm.Name, err)
		}
	}
	if err := rm.fits(rd); err != nil {
		return nil, corrupt("%s run in %s: %v", t.spec.Name, rm.Name, err)
	}
	if rd.RecordSize() != t.spec.RecordSize {
		return nil, corrupt("run %s record size %d, table %q wants %d",
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
		pageExt:   rm.Pages,
		filterExt: rm.Filter,
		sizeBytes: rd.SizeBytes(),
		format:    rd.Format(),
		table:     t,
		file:      rf,
		// refs stays 0 until a version installation picks the run up; a
		// Commit that fails before installing removes the file itself.
	}
	r.qreader = rd.WithFile(rm.view(storage.TagFile(rf.f, storage.SrcQuery)))
	r.creader = rd.WithFile(rm.view(storage.TagFile(rf.f, storage.SrcCompaction))).NoFill()
	return r, nil
}

// CheckHeaders reads the header of every live run and of every run the
// committed manifest names, and reports the first whose header differs
// from the file's: the header the run's reader holds, which the next commit
// carries, or the one the manifest carries, which the next Open opens the
// run from. A run whose file does not hold its header (FirstPage 1) has
// nothing to differ from: its reader's header is held against the file and
// the run's ranges instead, as Open holds a carried one. It is a scrub —
// one header read per run, unattributed — for a caller that has excluded
// structural operations, as it must for Files.
func (db *DB) CheckHeaders() error {
	page := func(r *Run) (btree.Header, error) {
		rm := runManifest{Pages: r.pageExt, Filter: r.filterExt}
		if h := r.qreader.Header(); h.FirstPage != 0 {
			rm.Header = &h
			rd, err := btree.OpenHeader(rm.view(r.file.f), h, nil)
			if err == nil {
				err = rm.fits(rd)
			}
			if err != nil {
				return btree.Header{}, fmt.Errorf("lsm: %s run in %s holds header %+v, which does not fit its file: %v", r.table.spec.Name, r.name, h, err)
			}
			return h, nil
		}
		rd, err := btree.Open(rm.view(r.file.f), nil)
		if err != nil {
			return btree.Header{}, fmt.Errorf("lsm: %s run in %s: %w", r.table.spec.Name, r.name, err)
		}
		return rd.Header(), nil
	}
	for _, ver := range []*version{db.cur, db.durable} {
		for name, tv := range ver.tables {
			for p, runs := range tv.runs {
				for i, r := range runs {
					want, err := page(r)
					if err != nil {
						return err
					}
					if got := r.qreader.Header(); got != want {
						return fmt.Errorf("lsm: %s run in %s holds header %+v, its page %+v", name, r.name, got, want)
					}
					if ver != db.durable {
						continue
					}
					// The manifest lists a partition's runs in the durable
					// version's order.
					parts := db.m.Tables[name].Partitions
					if p >= len(parts) || i >= len(parts[p]) || parts[p][i].Name != r.name {
						return fmt.Errorf("lsm: the manifest does not list the %s run in %s where the durable version holds it", name, r.name)
					}
					if rm := parts[p][i]; rm.Header != nil && *rm.Header != want {
						return fmt.Errorf("lsm: the manifest carries header %+v for the %s run in %s, which holds %+v", *rm.Header, name, r.name, want)
					}
				}
			}
		}
	}
	return nil
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
		if f, err := bloom.Unmarshal(data); err == nil && r.fits(f) {
			r.filter.Store(f)
			return f
		}
	}
	// One read is all a damaged filter gets: retrying per probe would turn
	// every query into a filter load, and answers are exact without it.
	r.noBF.Store(true)
	return nil
}

// fits reports whether a decoded filter can be the run's: an exact set
// must run from the run's first block to its last and hold no more blocks
// than the run has records. One that does not is a set of some other keys,
// whose answers would be false negatives here.
func (r *Run) fits(f *bloom.Filter) bool {
	first, last, exact := f.Range()
	return !exact || first == r.minBlock && last == r.maxBlock && f.Added() <= r.records
}

// SeekGE returns an iterator over the run positioned at the first record
// >= key, reading through the query-tagged handle.
func (r *Run) SeekGE(key []byte) (*btree.Iterator, error) {
	return r.qreader.SeekGE(key)
}

// First returns an iterator over the whole run, reading through the
// compaction-tagged handle: full scans are merge work, not query reads, and
// the pages they miss stay out of the cache.
func (r *Run) First() (*btree.Iterator, error) {
	return r.creader.First()
}

// RunBuilder accumulates sorted records into a new run of a FileSet, which
// seals it (FileSet.Done) and writes it (FileSet.Finish) into a RunRef to
// be installed by a later Commit. Its file is created, and its place there
// taken, on its first record.
type RunBuilder struct {
	set       *FileSet
	table     *Table
	slot      int // the table's place in the set
	partition int
	apart     bool
	expect    int
	file      *setFile      // nil until the first record
	writer    *btree.Writer // nil until the first record
	// gaps holds the run's distinct blocks until its filter is sized: at
	// seal, or once they outnumber the cap's bytes, past which every size
	// is the cap's and the filter takes the keys as they come. The blocks
	// arrive ascending, so each is held as the uvarint of its gap from the
	// one before (the first's from 0): a byte or two where a run's blocks
	// are dense, where a uint64 would take eight. keys counts them and
	// lastKey is the latest.
	gaps    []byte
	keys    int
	lastKey uint64
	filter  *bloom.Filter

	minBlock, maxBlock uint64
	prevBlock          uint64
	any                bool

	// CP-window metadata folded from the table's Span/IsOverride
	// callbacks; without a Span callback the run is marked CPUnknown.
	minCP, maxCP uint64
	overrides    uint64
	anyCP        bool
}

// Add appends a record (strictly ascending order required).
func (b *RunBuilder) Add(rec []byte) error {
	if b.writer == nil {
		if err := b.start(); err != nil {
			return err
		}
	}
	if err := b.writer.Append(rec); err != nil {
		return err
	}
	blk := blockOf(rec)
	if blk != b.prevBlock || !b.any {
		// The filter indexes block numbers; add each distinct block once.
		b.addKey(blk)
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

// RunRef identifies a finished, not-yet-committed run.
type RunRef struct {
	table     string
	partition int
	rm        runManifest
	sizeBytes int64
	src       storage.Source
	// file is the file the run is in, shared by the refs of its other runs;
	// Commit opens its handle once for all of them.
	file *runFile
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

// addKey adds a distinct block to the run's filter, or holds it until the
// filter is sized.
func (b *RunBuilder) addKey(blk uint64) {
	if b.filter != nil {
		b.filter.Add(blk)
		return
	}
	b.gaps = binary.AppendUvarint(b.gaps, blk-b.lastKey)
	b.lastKey = blk
	if b.keys++; b.keys > b.filterCap() {
		b.sizeFilter()
	}
}

// filterCap is the most bytes the table gives a filter.
func (b *RunBuilder) filterCap() int {
	if c := b.table.spec.BloomMaxBytes; c > 0 {
		return c
	}
	return bloom.MaxFilterBytes
}

// sizeFilter makes the run's filter for the keys held, within the table's
// cap, and adds them. A raw run's is the paper's BLF1: a power of two for
// the records the run expected, shrunk while its keys keep 2.4 % ("If an
// RS contains a smaller number of records, we appropriately shrink its
// Bloom filter", Section 5.1). A delta run sealed with every key held gets
// the exact set of its blocks (a bitmap or an Elias–Fano list) when that is
// no larger than the BLF2 it would get otherwise: one byte a key, the
// paper's 8 bits, capped. Past the cap, keys still to come go into the
// BLF2 as they arrive, so no set is made.
func (b *RunBuilder) sizeFilter() {
	n := b.keys
	switch {
	case b.set.db.opts.RunFormat == btree.FormatRaw:
		b.filter = bloom.NewPow2(bloom.Pow2Bytes(n, b.expect, b.filterCap()), bloom.DefaultHashes)
	case n <= b.filterCap() && bloom.SetSize(n, b.minBlock, b.lastKey) <= bloom.FilterSize(n):
		set := bloom.NewSet(n, b.minBlock, b.lastKey)
		for k := range b.heldKeys {
			set.Add(k)
		}
		b.filter, b.gaps = set.Filter(), nil
		return
	default:
		b.filter = bloom.New(min(n, b.filterCap()), bloom.DefaultHashes)
	}
	for k := range b.heldKeys {
		b.filter.Add(k)
	}
	b.gaps = nil
}

// heldKeys yields the distinct blocks held, ascending, from their gaps.
func (b *RunBuilder) heldKeys(yield func(uint64) bool) {
	var k uint64
	for g := b.gaps; len(g) > 0; {
		gap, n := binary.Uvarint(g)
		k += gap
		if !yield(k) {
			return
		}
		g = g[n:]
	}
}

// seal completes the run's pages, filter and header once its last record
// is in.
func (b *RunBuilder) seal() error {
	if b.filter == nil {
		b.sizeFilter()
	}
	return b.writer.Finish(b.filter.Marshal())
}

// ref returns the reference of the sealed run, once its file is written. A
// run that is its file's only one is recorded as the whole file.
func (b *RunBuilder) ref() RunRef {
	rm := runManifest{
		Name:     b.file.rf.name,
		Level:    b.set.level,
		Records:  b.writer.Count(),
		MinBlock: b.minBlock,
		MaxBlock: b.maxBlock,
		CP:       b.set.cp,
	}
	if b.table.spec.Span != nil && b.anyCP {
		rm.MinCP, rm.MaxCP, rm.Overrides = b.minCP, b.maxCP, b.overrides
	} else {
		rm.MinCP, rm.MaxCP, rm.CPUnknown = 0, b.set.cp, true
	}
	if slices.ContainsFunc(b.file.runs, func(o *RunBuilder) bool { return o != nil && o != b }) {
		rm.Pages, rm.Filter = b.writer.Extents()
	}
	return RunRef{
		table:     b.table.spec.Name,
		partition: b.partition,
		rm:        rm,
		sizeBytes: b.writer.SizeBytes(),
		src:       b.set.src,
		file:      b.file.rf,
		filter:    b.filter,
		built:     b.writer,
	}
}

// removeFile is the one place a run file dies: a build aborted, a Commit
// that failed, the last of its runs no version references any more. It
// closes the file's handle, if one is open, and removes the file,
// attributed to src; its runs' cached pages are the caller's to drop
// (Cache.Drop, per run). Only a failed commit looks at the error: nothing
// else refers to the file, so one left behind is an orphan the next Open
// collects.
func (db *DB) removeFile(rf *runFile, src storage.Source) error {
	if rf.f != nil {
		rf.f.Close()
		rf.f = nil
	}
	rf.pending = nil
	return db.vfsFor(src).Remove(rf.name)
}
