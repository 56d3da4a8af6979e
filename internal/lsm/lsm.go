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
// A consistency point is one run file per partition: the checkpoint's
// From, To and Combined runs of a partition are sections of one file
// (FileSet), written and synced once. A merge's outputs are too, but for a
// run that leaves the store alone — under tiered retention a sealed
// Combined run, which expiry drops by itself — which is a file of its own.
// Whatever file a run is in, lsm plans, pins, merges and expires runs; a
// file is removed when the last version referencing any of its runs goes.
//
// The checkpoint is the commit, as in the paper's write-anywhere file
// system (Section 5.4): the manifest that names the live runs is the
// trailer of the checkpoint's last run file, written after its filters
// and synced with it in that file's one sync, every other file it names
// synced before. A commit that builds no run — an expiry, the commit a
// compaction or a clean close ends with — writes the same trailer as a
// commit file of its own. Open takes the newest commit whose trailer, and
// for a run file whose every page, checks: a crash mid-commit leaves the
// previous commit in place, and orphan files that Open collects. An edit
// that only reorganizes durable records — a merge's — may install in
// memory instead (Edit.Prepare): the live runs move, the committed manifest
// and the files it names stay until the next commit writes the live runs,
// and a crash before it reopens what that manifest names. The manifest
// records where in its file each run lies and the run's header, so that
// Open builds every reader from it and reads no run page, carries a
// checksum, and carries one opaque section for its caller
// (Options.Section — the engine's snapshot catalog), so state that decides
// what the runs mean changes in the same commit as the runs.
//
// The layer is policy-free: it stores opaque fixed-size records ordered by
// bytes.Compare whose first 8 bytes are the big-endian physical block
// number. The join, inheritance, masking, and purge logic live in
// internal/core.
package lsm

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/backlogfs/backlog/internal/btree"
	"github.com/backlogfs/backlog/internal/storage"
)

const (
	// legacyManifest is where binaries before the commit trailer kept the
	// manifest, replaced through legacyManifestTmp. This binary reads
	// neither: Open refuses a store whose commit is the legacy manifest,
	// and removes both beside a trailer commit, which an upgrade that
	// crashed before removing them leaves.
	legacyManifest    = "MANIFEST"
	legacyManifestTmp = "MANIFEST.tmp"

	// commitPrefix names the commit files of commits that build no run of
	// their own: commit.<id>.
	commitPrefix = "commit."

	// manifestVersion is the on-disk manifest format Commit writes: a JSON
	// body of per-run consistency-point windows ([min_cp, max_cp]),
	// override-record counts, where in its file each run lies, and the
	// caller's section, inside a checksummed envelope (sealManifest), in a
	// commit trailer (sealTrailer). It is the only version read: the one
	// before it was bare JSON in the legacy manifest.
	manifestVersion = 4

	// manifestMagic opens the envelope, which is followed by the version,
	// the body's length and the CRC-32C of those two and the body, each a
	// little-endian u32, then the body.
	manifestMagic  = "BKMANFST"
	manifestEnvLen = len(manifestMagic) + 12

	// A commit trailer is a manifest envelope and then a footer: its magic,
	// the file's layout before the trailer (btree.Layout: where its pages
	// end, where its filters end, which is where the envelope starts, and
	// the filters' CRC-32C), then the CRC-32C of the footer's bytes before
	// it, each number little-endian. A commit file holds only the trailer.
	trailerMagic     = "BKCOMMIT"
	trailerFooterLen = 8 + 8 + 8 + 4 + 4 // magic, pages end, filters end, filter CRC, CRC

	// dvVersion is the deletion-vector file format Write makes, and the only
	// one loadDV reads: the table's hidden records, sorted, inside the
	// manifest's envelope. Version 1 held the same records bare.
	dvVersion = 2

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
	// the run's distinct blocks, not by its table: a delta run's BLF2 at
	// one byte a block, a raw run's BLF1 at the power of two the paper's
	// halving rule reaches (RunBuilder.sizeFilter). A builder holds up to
	// the cap's count of blocks, 8 bytes each, until it sizes the filter.
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
	// Partitions is the number of partitions (>= 1). A partition is a
	// contiguous block range, the paper's horizontal partitioning
	// (Section 5.3): partition p holds blocks [p*PartitionSpan,
	// (p+1)*PartitionSpan), so a range query seeks one partition's runs at
	// a time and a sorted stream visits the partitions in ascending order.
	Partitions int
	// PartitionSpan is the number of physical blocks per partition;
	// blocks >= Partitions*PartitionSpan route to the last partition.
	// Required when Partitions > 1.
	PartitionSpan uint64
	// Cache is the shared page cache used by run readers, which a
	// checkpoint's run builders also fill with the pages they write, where
	// it has room (see DB.NewFileSet). May be nil.
	Cache *btree.Cache
	// RunFormat selects the leaf encoding for newly built runs:
	// btree.FormatRaw (also if zero) or btree.FormatDelta, the two formats
	// that can be written. Existing runs of every readable format — those
	// two and the previous delta format, v5 — open transparently
	// regardless of this setting (an older one is refused by name), and
	// every builder — the checkpoint flush and compaction go through a
	// FileSet — writes the configured format, so a database migrates run
	// by run as compaction rewrites them.
	// FormatDelta requires every table's RecordSize to be a multiple of 8
	// and at most btree.MaxDeltaRecordSize.
	RunFormat btree.Format
	// DecodeObserver, when non-nil, receives the wall time of the
	// validating pass over each compressed leaf page a query reads on a
	// cache miss (the engine wires it to the backlog_page_decode_ns
	// histogram). Merge scans decode a current-format leaf once,
	// validating as they stream, and report nothing here.
	DecodeObserver func(time.Duration)
	// Section, when non-nil, supplies the opaque section — valid JSON — that
	// every manifest carries beside the run sets. Edit.Write calls it while
	// it builds the next manifest, serialized against every other commit,
	// and stores what it returns: whatever the section serializes
	// becomes durable in the same commit as the edit, never before and
	// never after. With a nil Section the manifest gets no section of this
	// process's making (one found on disk is carried forward untouched).
	Section func() ([]byte, error)
}

// DB is a multi-table LSM store with a single atomic manifest.
//
// DB is not internally synchronized except for run-ID allocation (idMu)
// and view refcounting (viewMu): callers serialize structural operations
// (Commit, deletion-vector mutation) themselves, but may feed a FileSet's
// tables from multiple goroutines concurrently — the engine's parallel
// checkpoint flush relies on this — and may acquire and release
// Views concurrently with each other and with structural readers.
type DB struct {
	vfs   storage.VFS
	opts  Options
	cache *btree.Cache

	tables map[string]*Table
	m      manifest
	// commit is the file that carries m: a run file, a commit file, or ""
	// before the first commit.
	commit string

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
	// O(1). Install installs a successor and drops the current ref of the
	// old version; a run file is reclaimed when the last version
	// referencing any of its runs is destroyed. verStale records that a
	// deletion-vector mutation outside an Install made cur's snapshot lag
	// live state; the next AcquireView rebuilds it. Mutators write it
	// under the caller's structural exclusive lock, AcquireView reads and
	// clears it under viewMu plus at least the shared structural lock.
	cur      *version
	verStale bool
	// durable is the version the manifest on disk describes, pinned with a
	// reference of its own, as a View pins one: an install in memory
	// (Edit.Prepare) moves cur and leaves it, so the files of the runs the
	// install dropped stay on disk while the manifest names them. A written
	// edit's Install moves the pin to the version it installs. ahead
	// records that an install in memory has moved cur since. Both are
	// guarded by viewMu and the caller's structural lock, like cur.
	durable *version
	ahead   bool

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

// deferFile marks a run file the manifest no longer names but a pinned
// version still reads. Caller holds viewMu.
func (db *DB) deferFile(name string) {
	if db.deferred == nil {
		db.deferred = make(map[string]struct{})
	}
	db.deferred[name] = struct{}{}
}

// reclaim takes runs no version references any more out of the cache — no
// view can reach them, so their pages would only displace those of live
// runs — and off their files, and returns the files whose last run that
// was, for removeFiles. Caller holds viewMu.
func (db *DB) reclaim(doomed []*Run) (dead []*runFile) {
	for _, r := range doomed {
		db.cache.Drop(r.qreader.CacheID())
		if r.file.runs--; r.file.runs == 0 {
			delete(db.deferred, r.file.name)
			r.file.doomedBy = r.doomedBy
			dead = append(dead, r.file)
		}
	}
	return dead
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
	// runs[p] lists the live runs of partition p, oldest first. Install
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
	// collected by an edit that drops runs of the table, and the vector
	// written to its dv.* file by Edit.Write alone — see there when — and
	// Install swaps the result in only once the manifest has been committed,
	// or, for an install in memory, once Prepare has built it.
	dv       map[string]struct{}
	dvShared bool
	dvGen    uint64
	dvDirty  bool
	// dvAhead records that an install in memory collected entries the
	// vector file the manifest names still holds; the next commit that may
	// persist the vector does.
	dvAhead bool
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
	// Name is the file the run is in; the runs of one file are of different
	// tables, so (table, Name) names a run.
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
	// Pages and Filter are where in the file the run's pages (its header
	// first, if the file holds it) and its Bloom filter lie, for a run that
	// shares its file; both zero for a run that is its whole file.
	Pages, Filter storage.Extent
	// Header is the run's header as its reader holds it, which every commit
	// carries, so that Open builds the reader from it and reads no page of
	// the run (btree.OpenHeader); the manifest's checksum covers it. A
	// format-5 or -6 section after its file's first has no header in the
	// file, and its entry is the only place its header is. Nil only in the
	// entry of a run this process is building (RunBuilder.ref): a commit
	// whose entry carries none is refused (readCommit).
	Header *btree.Header
}

// whole reports whether the run is its whole file.
func (rm runManifest) whole() bool {
	return rm.Pages == storage.Extent{} && rm.Filter == storage.Extent{}
}

// grid is where a run that shares its file has the page grid its header
// describes: its own pages, or for the file's first run, whose header the
// file holds, every byte before the filters, where its own filter comes
// first (btree.FileWriter).
func (rm runManifest) grid() storage.Extent {
	g := rm.Pages
	if g.Off == 0 && (rm.Header == nil || rm.Header.FirstPage == 0) {
		g.Len = rm.Filter.Off
	}
	return g
}

// firstPage is the first page of a run of format f that its file holds,
// as the run's place implies (btree.FirstPageAt): a format-5 or -6 section
// after its file's first starts with its first leaf, page 1; every other
// run holds its header.
func (rm runManifest) firstPage(f btree.Format) uint64 {
	return btree.FirstPageAt(f, rm.Pages.Off)
}

// fits returns an error unless rd, the run's reader, describes the ranges the
// entry gives a run that shares its file: its grid, and its own pages and
// filter. A run that is its whole file has only its header's own check
// against the file's size (btree.Header).
func (rm runManifest) fits(rd *btree.Reader) error {
	if grid, h := rm.grid(), rd.Header(); !rm.whole() && (h.FilterOff != uint64(grid.Len) || rd.SizeBytes() != rm.Pages.Len+rm.Filter.Len) {
		return fmt.Errorf("its header describes a grid of %d bytes from page %d and %d bytes of its own, the manifest %d+%d+%d bytes",
			h.FilterOff, h.FirstPage, rd.SizeBytes(), grid.Len, rm.Pages.Len, rm.Filter.Len)
	}
	return nil
}

// view returns f, the run's file, as the run's own layout: f itself for a
// run that is its whole file, else a view of its grid and its filter.
func (rm runManifest) view(f storage.File) storage.File {
	if rm.whole() {
		return f
	}
	return storage.Extents(f, rm.grid(), rm.Filter)
}

// runManifestJSON is the wire form of runManifest. MinCP and MaxCP are
// omitted when equal to CP (the common case for level-0 flushes, where
// every record carries the flushed consistency point). At is where a run
// that shares its file lies in it — page offset, page length, filter
// offset, filter length — and is omitted for a run that is its whole file,
// keeping such a run's entry what version 3 wrote. Header is the run's
// header less what the entry holds already — format, record size, first
// leaf page, leaf pages, levels, root page, filter CRC — and for a run that
// is its whole file, which has no At, the filter's offset and length; the
// record count is Records. A binary that predates it ignores it. FirstPage
// is the header's FirstPage where it is not the one the run's place
// implies (runManifest.firstPage), which no writer makes and a format-6 run
// may not say: it is a key of its own, so that a binary that predates it
// parses the entry and refuses the run's format by name. A format-6 root's
// length is what the run's own pages leave it (btree.Header.WithOwnBytes):
// At's page length, or for a run that is its whole file the filter offset.
type runManifestJSON struct {
	Name      string   `json:"name"`
	Level     int      `json:"level"`
	Records   uint64   `json:"records"`
	MinBlock  uint64   `json:"min_block"`
	MaxBlock  uint64   `json:"max_block"`
	CP        uint64   `json:"cp"`
	MinCP     *uint64  `json:"min_cp,omitempty"`
	MaxCP     *uint64  `json:"max_cp,omitempty"`
	Overrides uint64   `json:"overrides,omitempty"`
	CPUnknown bool     `json:"cp_unknown,omitempty"`
	At        []int64  `json:"at,omitempty"`
	Header    []uint64 `json:"header,omitempty"`
	FirstPage *uint64  `json:"first_page,omitempty"`
}

// headerFields is how many numbers a carried header is on the wire for a
// run that shares its file; a whole file's adds its filter's two.
const headerFields = 7

func (rm runManifest) MarshalJSON() ([]byte, error) {
	w := runManifestJSON{
		Name: rm.Name, Level: rm.Level, Records: rm.Records,
		MinBlock: rm.MinBlock, MaxBlock: rm.MaxBlock, CP: rm.CP,
		CPUnknown: rm.CPUnknown,
	}
	if !rm.whole() {
		w.At = []int64{rm.Pages.Off, rm.Pages.Len, rm.Filter.Off, rm.Filter.Len}
	}
	if h := rm.Header; h != nil {
		w.Header = []uint64{uint64(h.Format), uint64(h.RecordSize), h.LeafStart, h.LeafPages, uint64(h.Levels), h.RootPage, uint64(h.FilterCRC)}
		if rm.whole() {
			w.Header = append(w.Header, h.FilterOff, h.FilterLen)
		}
		if h.FirstPage != rm.firstPage(h.Format) {
			w.FirstPage = &h.FirstPage
		}
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
	if w.FirstPage != nil && len(w.Header) == 0 {
		return fmt.Errorf("run %s starts at page %d and carries no header", w.Name, *w.FirstPage)
	}
	switch len(w.At) {
	case 0:
	case 4:
		rm.Pages = storage.Extent{Off: w.At[0], Len: w.At[1]}
		rm.Filter = storage.Extent{Off: w.At[2], Len: w.At[3]}
	default:
		return fmt.Errorf("run %s placed by %d numbers, not 4", w.Name, len(w.At))
	}
	if len(w.Header) > 0 {
		n := headerFields
		if rm.whole() {
			n += 2
		}
		if len(w.Header) != n {
			return fmt.Errorf("run %s carries a header of %d numbers, not %d", w.Name, len(w.Header), n)
		}
		hw := w.Header
		for _, i := range []int{0, 1, 4, 6} {
			if hw[i] > math.MaxUint32 {
				return fmt.Errorf("run %s carries header field %d = %d, past 32 bits", w.Name, i, hw[i])
			}
		}
		h := btree.Header{
			Format: btree.Format(hw[0]), RecordSize: int(hw[1]), Records: w.Records,
			LeafStart: hw[2], LeafPages: hw[3], Levels: uint32(hw[4]), RootPage: hw[5], FilterCRC: uint32(hw[6]),
			FirstPage: rm.firstPage(btree.Format(hw[0])),
		}
		if w.FirstPage != nil {
			if h.Format == btree.FormatDelta {
				return fmt.Errorf("run %s is of format %d, whose place alone says whether its file holds its header, and starts at page %d", w.Name, h.Format, *w.FirstPage)
			}
			h.FirstPage = *w.FirstPage
		}
		rm.Header = &h
		if rm.whole() {
			h.FilterOff, h.FilterLen = hw[7], hw[8]
			h = h.WithOwnBytes(int64(min(h.FilterOff, math.MaxInt64)))
		} else {
			h.FilterOff, h.FilterLen = uint64(rm.grid().Len), uint64(rm.Filter.Len)
			h = h.WithOwnBytes(rm.Pages.Len)
		}
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
	if opts.Partitions > 1 && opts.PartitionSpan == 0 {
		return nil, errors.New("lsm: PartitionSpan required with multiple partitions")
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
		if opts.RunFormat == btree.FormatDelta && (spec.RecordSize%8 != 0 || spec.RecordSize > btree.MaxDeltaRecordSize) {
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
	names, err := vfs.List()
	if err != nil {
		return nil, err
	}
	if err := db.loadManifest(names); err != nil {
		return nil, err
	}
	// IDs go on above every file of ours, an orphan included, so that a
	// commit file is newer by ID than every commit before it.
	db.nextID = db.m.NextID
	for _, name := range names {
		if id, ok := fileID(name); ok && id >= db.nextID {
			db.nextID = id + 1
		}
	}
	db.cur = db.newVersion()
	db.cur.refs++
	db.durable = db.cur
	if err := db.collectOrphans(names); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// Close releases the handle of every file a live run or a run the manifest
// names is in, once per file. The caller must have excluded structural
// operations; files a still-pinned view keeps alive past their runs' drop
// are closed when that view is released. The handles are read-only, so
// their Close errors carry nothing to report.
func (db *DB) Close() {
	closed := map[*runFile]bool{}
	for _, ver := range []*version{db.cur, db.durable} {
		for _, tv := range ver.tables {
			for _, part := range tv.runs {
				for _, r := range part {
					if !closed[r.file] {
						closed[r.file] = true
						r.file.f.Close()
					}
				}
			}
		}
	}
}

// Ahead reports whether the live runs or deletion vectors differ from
// what the manifest names: an install in memory (Edit.Prepare) has swapped
// runs in since the last commit, which the next written edit commits. The
// caller must hold the structural lock (shared suffices) or serialize
// against installs.
func (db *DB) Ahead() bool { return db.ahead }

// Table returns the named table, or nil if not configured.
func (db *DB) Table(name string) *Table { return db.tables[name] }

// CP returns the last committed consistency point number.
func (db *DB) CP() uint64 { return db.m.CP }

// CommitInRun reports whether the last commit rides a run file: a reopen
// then verifies that file's every page (see Open), which a commit file of
// its own would spare it.
func (db *DB) CommitInRun() bool { return strings.HasSuffix(db.commit, ".run") }

// Section returns the section the committed manifest carries, or nil. The
// caller must hold the structural lock (shared suffices) or serialize
// against commits, and must not modify it.
func (db *DB) Section() []byte { return db.m.Catalog }

// Partitions returns the number of partitions.
func (db *DB) Partitions() int { return db.opts.Partitions }

// PartitionOf returns the partition index responsible for a block.
func (db *DB) PartitionOf(block uint64) int {
	if db.opts.Partitions <= 1 {
		return 0
	}
	return int(min(block/db.opts.PartitionSpan, uint64(db.opts.Partitions-1)))
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
	// Name is the file the run is in, which the runs one checkpoint or one
	// merge wrote to a partition share (but for a run apart, see
	// FileSet.RunApart).
	Name      string
	Level     int
	Records   uint64
	SizeBytes int64
	// Format is the run's on-disk leaf encoding — btree.FormatRaw,
	// btree.FormatDelta or the previous, read-only delta format (v5) —
	// read from the run's own header.
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

// ErrCorrupt reports a manifest that fails its checksum, does not parse,
// or places runs where no writer puts them, or a file it names whose bytes
// no writer produces: a run whose header disagrees with its table, a
// deletion vector cut mid-record. Open refuses it and changes nothing on
// disk.
var ErrCorrupt = errors.New("lsm: corrupt manifest")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// sealTrailer returns the commit trailer of a manifest body, for a file
// laid out as l before it (the zero Layout for a commit file).
func sealTrailer(body []byte, l btree.Layout) []byte {
	le := binary.LittleEndian
	footer := le.AppendUint64(nil, uint64(l.Pages))
	footer = le.AppendUint64(footer, uint64(l.End))
	footer = le.AppendUint32(footer, l.FilterCRC)
	buf := append(sealManifest(manifestVersion, body), trailerMagic...)
	buf = append(buf, footer...)
	return le.AppendUint32(buf, crc32.Checksum(footer, castagnoli))
}

// errTorn marks a file that carries no whole commit: no trailer, a
// trailer whose checksums fail, or pages that fail theirs. Open passes
// over it to an older commit.
var errTorn = errors.New("lsm: no whole commit")

// readCommit reads the commit name carries, attributed to recovery: the
// trailer at the end of a commit file or of a run file, and for a run file
// every page and filter before it too, since one sync does not order the
// file's pages. A file whose trailer or pages fail their checksums wraps
// errTorn; a trailer that checks but does not decode is ErrCorrupt.
func (db *DB) readCommit(name string) (manifest, error) {
	f, err := db.vfsFor(storage.SrcRecovery).Open(name)
	if err != nil {
		return manifest{}, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return manifest{}, err
	}
	torn := func(format string, args ...any) (manifest, error) {
		return manifest{}, fmt.Errorf("%w: %s: "+format, append([]any{errTorn, name}, args...)...)
	}
	if size < int64(manifestEnvLen+trailerFooterLen) {
		return torn("%d bytes", size)
	}
	footer := make([]byte, trailerFooterLen)
	if _, err := f.ReadAt(footer, size-trailerFooterLen); err != nil {
		return manifest{}, err
	}
	le := binary.LittleEndian
	if string(footer[:len(trailerMagic)]) != trailerMagic || le.Uint32(footer[trailerFooterLen-4:]) != crc32.Checksum(footer[len(trailerMagic):trailerFooterLen-4], castagnoli) {
		return torn("no trailer footer")
	}
	l := btree.Layout{Pages: int64(le.Uint64(footer[8:])), End: int64(le.Uint64(footer[16:])), FilterCRC: le.Uint32(footer[24:])}
	if l.End < 0 || l.End > size-trailerFooterLen {
		return torn("an envelope at %d in a %d-byte file", l.End, size)
	}
	env := make([]byte, size-trailerFooterLen-l.End)
	if _, err := f.ReadAt(env, l.End); err != nil {
		return manifest{}, err
	}
	v, body, err := unseal(env)
	if err != nil {
		return torn("%v", err)
	}
	if v != manifestVersion {
		return manifest{}, versionRefused("the manifest "+name+" carries", v, manifestVersion)
	}
	var m manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return manifest{}, corrupt("%s: %v", name, err)
	}
	if m.Version != manifestVersion {
		return manifest{}, corrupt("%s: version %d in a version-%d envelope", name, m.Version, manifestVersion)
	}
	for table, tm := range m.Tables {
		for _, runs := range tm.Partitions {
			for _, rm := range runs {
				if rm.Header == nil {
					return manifest{}, retired(fmt.Sprintf("%s, a version-%d commit whose %s run in %s carries no header,", name, manifestVersion, table, rm.Name))
				}
			}
		}
	}
	if strings.HasSuffix(name, ".run") {
		secs, err := m.sections(name, l)
		if err != nil {
			return manifest{}, err
		}
		if err := btree.CheckFile(f, l, secs); errors.Is(err, btree.ErrCorrupt) {
			return torn("%v", err)
		} else if err != nil {
			return manifest{}, err
		}
	}
	return m, nil
}

// sections returns the runs m places in the file name that carries it, laid
// out as l, for btree.CheckFile: the commit's own runs, which lie within the
// file's pages, one after another. Runs that overlap or lie outside the
// pages are ErrCorrupt: the trailer checked, so it is no torn write that
// placed them.
func (m manifest) sections(name string, l btree.Layout) ([]btree.Section, error) {
	var secs []btree.Section
	for _, tm := range m.Tables {
		for _, runs := range tm.Partitions {
			for _, rm := range runs {
				if rm.Name != name {
					continue
				}
				s := btree.Section{Pages: rm.Pages, Header: *rm.Header}
				if rm.whole() {
					s.Pages = storage.Extent{Len: l.Pages}
				}
				secs = append(secs, s)
			}
		}
	}
	slices.SortFunc(secs, func(a, b btree.Section) int { return cmp.Compare(a.Pages.Off, b.Pages.Off) })
	var end int64
	for _, s := range secs {
		if s.Pages.Off < end || s.Pages.Len <= 0 || s.Pages.Len > l.Pages-s.Pages.Off {
			return nil, corrupt("%s carries a commit that places a run at %d+%d, after %d, in %d page bytes", name, s.Pages.Off, s.Pages.Len, end, l.Pages)
		}
		end = s.Pages.Off + s.Pages.Len
	}
	return secs, nil
}

// fileID returns the ID in the name of a file Open may find: a run file
// (<kind>.pNNN.<id>.run), a commit file or a vector file (dv.<table>.<id>).
func fileID(name string) (uint64, bool) {
	base := strings.TrimSuffix(name, ".run")
	if base == name && !strings.HasPrefix(name, commitPrefix) && !strings.HasPrefix(name, "dv.") {
		return 0, false
	}
	id, err := strconv.ParseUint(base[strings.LastIndexByte(base, '.')+1:], 10, 64)
	return id, err == nil
}

// findCommit returns the newest commit among names and the file that
// carries it. Every file that carries one — a commit file, a checkpoint's
// last run file — is created by the commit it carries, which is serialized
// against every other, so ID order is commit order: of the commit and run
// files, newest first, the first whose commit is whole wins. A run file
// with no trailer (a merge's, a checkpoint's other files) carries none, and
// a torn one, which only a crash before its commit point leaves, gives way
// to the commit before it. A store whose only commit is the legacy
// manifest is refused by its version.
func (db *DB) findCommit(names []string) (manifest, string, error) {
	var carriers []string
	for _, name := range names {
		if _, ok := fileID(name); ok && !strings.HasPrefix(name, "dv.") {
			carriers = append(carriers, name)
		}
	}
	slices.SortFunc(carriers, func(a, b string) int {
		ia, _ := fileID(a)
		ib, _ := fileID(b)
		return cmp.Compare(ib, ia)
	})
	for _, name := range carriers {
		m, err := db.readCommit(name)
		if err == nil {
			return m, name, nil
		}
		if !errors.Is(err, errTorn) {
			return manifest{}, "", err
		}
	}
	if !slices.Contains(names, legacyManifest) {
		return manifest{}, "", nil
	}
	buf, err := readAll(db.vfsFor(storage.SrcRecovery), legacyManifest)
	if err != nil {
		return manifest{}, "", fmt.Errorf("lsm: reading manifest: %w", err)
	}
	// The version is an envelope's field, or bare JSON's (version 3 and
	// before); bytes that are neither name version 0.
	var bare struct{ Version int }
	if len(buf) >= manifestEnvLen && string(buf[:len(manifestMagic)]) == manifestMagic {
		bare.Version = int(binary.LittleEndian.Uint32(buf[8:]))
	} else {
		_ = json.Unmarshal(buf, &bare)
	}
	return manifest{}, "", retired(fmt.Sprintf("the manifest in %s, version %d,", legacyManifest, bare.Version))
}

// retired is the refusal of what, a format this binary no longer reads,
// naming the last binary that reads it and writes the formats this one
// reads (internal/core/testdata/upgrade runs it).
func retired(what string) error {
	return fmt.Errorf("lsm: %s is no longer read: open the store once with a binary of commit 8d5575c, run Checkpoint and MaintainNow, and close it, as internal/core/testdata/upgrade does", what)
}

// versionRefused is the refusal of what, an envelope of version v, by a
// binary that reads version current alone: a newer version is
// btree.ErrNewerFormat, as a newer run format is.
func versionRefused(what string, v, current int) error {
	if v > current {
		return fmt.Errorf("lsm: %s version %d: %w (this binary reads version %d)", what, v, btree.ErrNewerFormat, current)
	}
	return fmt.Errorf("lsm: %s version %d, which this binary does not read (it reads version %d)", what, v, current)
}

// sealManifest wraps a manifest body in the envelope, whose checksum covers
// the version, the length and the body.
func sealManifest(version int, body []byte) []byte {
	buf := make([]byte, manifestEnvLen, manifestEnvLen+len(body))
	copy(buf, manifestMagic)
	binary.LittleEndian.PutUint32(buf[8:], uint32(version))
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(body)))
	buf = append(buf, body...)
	binary.LittleEndian.PutUint32(buf[16:], manifestCRC(buf))
	return buf
}

// unseal checks an envelope sealManifest made and returns its version and
// body. Its error, a flipped byte or a cut-off file, is the caller's to
// report as corruption.
func unseal(buf []byte) (version int, body []byte, err error) {
	if len(buf) < manifestEnvLen || string(buf[:8]) != manifestMagic {
		return 0, nil, fmt.Errorf("no envelope header in %d bytes", len(buf))
	}
	if n := binary.LittleEndian.Uint32(buf[12:]); uint64(n) != uint64(len(buf)-manifestEnvLen) {
		return 0, nil, fmt.Errorf("a %d-byte body in a %d-byte file", n, len(buf))
	}
	if binary.LittleEndian.Uint32(buf[16:]) != manifestCRC(buf) {
		return 0, nil, errors.New("checksum")
	}
	return int(binary.LittleEndian.Uint32(buf[8:])), buf[manifestEnvLen:], nil
}

// manifestCRC is the CRC-32C of an envelope's version, length and body.
func manifestCRC(buf []byte) uint32 {
	return crc32.Update(crc32.Checksum(buf[8:16], castagnoli), castagnoli, buf[manifestEnvLen:])
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// loadManifest reads the newest commit among the directory's names
// (findCommit) and opens what it names: every run file once — its layout
// checked against the file's size before any run of it is read — then
// every run, in its partition's order. On error every handle it opened is
// closed again.
func (db *DB) loadManifest(names []string) error {
	m, commit, err := db.findCommit(names)
	if err != nil {
		return err
	}
	if commit == "" {
		db.m = manifest{Version: manifestVersion, NextID: 1, Tables: map[string]tableManifest{}}
		return nil
	}
	byFile := map[string][]runManifest{}
	for name, tm := range m.Tables {
		if db.tables[name] == nil {
			return fmt.Errorf("lsm: manifest references unknown table %q", name)
		}
		if len(tm.Partitions) != db.opts.Partitions {
			return fmt.Errorf("lsm: table %q has %d partitions on disk, configured %d",
				name, len(tm.Partitions), db.opts.Partitions)
		}
		for p, runs := range tm.Partitions {
			for _, rm := range runs {
				if rm.Level < 0 || rm.Level > maxRunLevel {
					return corrupt("manifest puts run %s at level %d", rm.Name, rm.Level)
				}
				// A run's bounds are blocks of its own records, so under the
				// span it was written with both route to the partition that
				// lists it.
				for _, b := range []uint64{rm.MinBlock, rm.MaxBlock} {
					if q := db.PartitionOf(b); q != p {
						return fmt.Errorf("lsm: run %s of table %q is in partition %d on disk, but the configured partitioning routes its block %d to partition %d",
							rm.Name, name, p, b, q)
					}
				}
				byFile[rm.Name] = append(byFile[rm.Name], rm)
			}
		}
	}

	files := map[string]*runFile{}
	fail := func(err error) error {
		for _, rf := range files {
			rf.f.Close()
		}
		return err
	}
	for _, name := range slices.Sorted(maps.Keys(byFile)) {
		f, err := db.vfsFor(storage.SrcRecovery).Open(name)
		if err != nil {
			return fail(fmt.Errorf("lsm: opening run: %w", err))
		}
		files[name] = &runFile{name: name, f: f}
		size, err := f.Size()
		if err != nil {
			return fail(fmt.Errorf("lsm: sizing run file %s: %w", name, err))
		}
		if err := checkLayout(name, byFile[name], size); err != nil {
			return fail(err)
		}
	}
	db.m, db.commit = m, commit
	for name, tm := range m.Tables {
		t := db.tables[name]
		for p, runs := range tm.Partitions {
			for _, rm := range runs {
				r, err := db.openRun(t, rm, nil, files[rm.Name])
				if err != nil {
					return fail(err)
				}
				r.file.runs++
				t.runs[p] = append(t.runs[p], r)
			}
		}
		if tm.DVFile != "" {
			if err := t.loadDV(tm.DVFile, tm.DVCount); err != nil {
				return fail(err)
			}
		}
	}
	return nil
}

// checkLayout refuses a file whose runs the manifest places where no
// writer puts them: a run that is its whole file shares it with none; no
// section's pages or filter run past the end of the file or overlap
// another run's range; a section before format 6 starts on a page
// boundary and holds whole pages, at least its header page. Format-6
// sections are unaligned, so they are held to how a writer tiles a file
// instead: every page before every filter, the filters in the pages'
// order, and two sections either abutting in both their pages and their
// filters or in neither — the room between them a dead section's.
func checkLayout(name string, rms []runManifest, size int64) error {
	if len(rms) == 1 && rms[0].whole() {
		return nil // opening the run checks its header against the file
	}
	var exts []storage.Extent
	for _, rm := range rms {
		switch {
		case rm.whole():
			return corrupt("%s: a run that is the whole file shares it", name)
		case unaligned(rm):
		case rm.Pages.Off%storage.PageSize != 0:
			return corrupt("%s: pages at %d, off a page boundary", name, rm.Pages.Off)
		case rm.Pages.Len < storage.PageSize || rm.Pages.Len%storage.PageSize != 0:
			return corrupt("%s: a page range of %d bytes", name, rm.Pages.Len)
		}
		for _, e := range []storage.Extent{rm.Pages, rm.Filter} {
			if e.Off < 0 || e.Len < 0 || e.Off > size || e.Len > size-e.Off {
				return corrupt("%s: range %d+%d in a %d-byte file", name, e.Off, e.Len, size)
			}
			if e.Len > 0 {
				exts = append(exts, e)
			}
		}
	}
	slices.SortFunc(exts, func(a, b storage.Extent) int { return cmp.Compare(a.Off, b.Off) })
	for i := 1; i < len(exts); i++ {
		if prev := exts[i-1]; exts[i].Off < prev.Off+prev.Len {
			return corrupt("%s: ranges %d+%d and %d+%d overlap", name, prev.Off, prev.Len, exts[i].Off, exts[i].Len)
		}
	}
	if !slices.ContainsFunc(rms, unaligned) {
		return nil
	}
	secs := slices.SortedFunc(slices.Values(rms), func(a, b runManifest) int { return cmp.Compare(a.Pages.Off, b.Pages.Off) })
	for i := 1; i < len(secs); i++ {
		a, b := secs[i-1], secs[i]
		pagesAbut, filtersAbut := a.Pages.Off+a.Pages.Len == b.Pages.Off, a.Filter.Off+a.Filter.Len == b.Filter.Off
		switch {
		case b.Filter.Off < a.Filter.Off || b.Pages.Off+b.Pages.Len > secs[0].Filter.Off:
			return corrupt("%s: sections at %d and %d do not have their pages before their filters, in one order", name, a.Pages.Off, b.Pages.Off)
		case pagesAbut != filtersAbut:
			return corrupt("%s: sections at %d and %d leave a gap in their pages or their filters, not in both", name, a.Pages.Off, b.Pages.Off)
		}
	}
	return nil
}

// unaligned reports whether rm is a format-6 run, whose pages in a shared
// file need not start on a page boundary or be whole pages.
func unaligned(rm runManifest) bool {
	return rm.Header != nil && rm.Header.Format == btree.FormatDelta
}

// collectOrphans removes the files among names that the commit Open took
// neither carries nor names: leftovers of a crash before a commit point,
// commits older than it, and a legacy manifest an upgrade to a trailer
// commit left.
func (db *DB) collectOrphans(names []string) error {
	live := map[string]bool{}
	for _, name := range db.Files() {
		live[name] = true
	}
	rvfs := db.vfsFor(storage.SrcRecovery)
	for _, name := range names {
		if live[name] {
			continue
		}
		if !strings.HasSuffix(name, ".run") && !strings.HasPrefix(name, "dv.") && !strings.HasPrefix(name, commitPrefix) &&
			name != legacyManifest && name != legacyManifestTmp {
			continue // not ours
		}
		if err := rvfs.Remove(name); err != nil && !errors.Is(err, storage.ErrNotExist) {
			return err
		}
	}
	return nil
}

// Files returns the files the last commit needs — the file that carries it
// and every file its manifest names: every run file, once however many
// runs it holds, and every deletion-vector file — sorted. Open removes any
// other run, vector, commit or manifest file it finds. The caller must
// hold the structural lock (shared suffices).
func (db *DB) Files() []string {
	var names []string
	if db.commit != "" {
		names = append(names, db.commit)
	}
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
	slices.Sort(names)
	return slices.Compact(names)
}

// blockOf extracts the big-endian block number prefix of a record.
func blockOf(rec []byte) uint64 { return binary.BigEndian.Uint64(rec[:8]) }
