package lsm

import "slices"

// version is a refcounted snapshot of every table's run sets and deletion
// vectors — the LevelDB/RocksDB-style version set. The DB always holds
// one reference to the current version and one to the version the
// manifest describes (the same one but after an install in memory); every
// View holds one more. Refcounting is per version, so pinning and
// releasing a view is O(1) regardless of how many runs exist; the O(runs)
// reference accounting on the runs themselves happens once per Install,
// when a version is installed or destroyed.
type version struct {
	cp     uint64
	tables map[string]*tableView
	// refs counts holders (the DB's current and durable pointers plus
	// views), guarded by db.viewMu.
	refs int
}

// tableView is one table's snapshot: the run lists shared (not copied —
// Commit replaces them wholesale, never mutates in place) and the
// copy-on-write deletion vector as of the version's installation.
type tableView struct {
	t     *Table
	runs  [][]*Run
	dv    map[string]struct{}
	dvGen uint64
}

// newVersion snapshots the live state into a fresh version with one
// reference (the caller's), bumping every run's version refcount. The
// caller holds db.viewMu (or has exclusive access during Open) and must
// serialize against structural mutation.
func (db *DB) newVersion() *version {
	ver := &version{cp: db.m.CP, tables: make(map[string]*tableView, len(db.tables)), refs: 1}
	for name, t := range db.tables {
		for _, part := range t.runs {
			for _, r := range part {
				r.refs++
			}
		}
		// The version shares the map beyond this call: the next DV
		// mutation must copy instead of updating in place.
		t.dvShared = true
		ver.tables[name] = &tableView{t: t, runs: t.runs, dv: t.dv, dvGen: t.dvGen}
	}
	return ver
}

// unref drops one reference to the version; at zero the version is
// destroyed and every run only it referenced becomes reclaimable. The
// caller holds db.viewMu and takes the returned runs off their files
// (reclaim), handing the files that leaves empty to removeFiles after
// dropping it (file I/O stays out of the critical section).
func (ver *version) unref() (doomed []*Run) {
	ver.refs--
	if ver.refs > 0 {
		return nil
	}
	for _, tv := range ver.tables {
		for _, part := range tv.runs {
			for _, r := range part {
				r.refs--
				if r.refs == 0 {
					doomed = append(doomed, r)
				}
			}
		}
	}
	return doomed
}

// dropUnread takes the pages of the runs only the manifest's pin holds —
// those installs in memory dropped since the last commit — out of the
// cache once no view reads that version: until the next commit frees the
// runs, they would only displace the pages of live ones. Caller holds
// viewMu.
func (db *DB) dropUnread() {
	if !db.ahead || db.durable.refs > 1 {
		return
	}
	for _, tv := range db.durable.tables {
		for _, part := range tv.runs {
			for _, r := range part {
				if r.refs == 1 {
					db.cache.Drop(r.qreader.CacheID())
				}
			}
		}
	}
}

// removeFiles closes and deletes run files the last of whose runs no
// version references any more (reclaim), attributing each removal to the
// operation that doomed that run. Failures are not reported: the runs are
// already out of the manifest, so a file that could not be removed is an
// orphan the next Open collects.
func (db *DB) removeFiles(dead []*runFile) {
	for _, rf := range dead {
		db.removeFile(rf, rf.doomedBy)
	}
}

// View is a pinned version: an immutable snapshot of every table's run
// sets and deletion vectors that lets readers and compaction run against
// a consistent run list with no structural lock held. A Commit that
// supersedes a pinned run defers deleting the run file until the last
// view referencing it is released, so iterators stay valid across
// concurrent manifest transitions.
//
// Locking contract: AcquireView must be serialized against Commit and
// against deletion-vector mutations (the engine's structural lock, held
// shared, provides this); Release may be called from any goroutine at any
// time. A view's read methods are safe for concurrent use and touch no
// mutable DB state.
type View struct {
	db  *DB
	ver *version

	// released is guarded by db.viewMu; Release is idempotent.
	released bool
}

// AcquireView pins the current version in O(1). The caller must hold the
// structural lock (shared suffices) and must call Release exactly once
// when done; until then every run in the view stays readable even if a
// Commit supersedes it.
//
// A deletion-vector mutation outside an Install (block relocation) marks
// the current version stale; the next acquire rebuilds it from live state
// first, so new pins always observe the mutation while already-pinned
// views keep their snapshot.
func (db *DB) AcquireView() *View {
	db.viewMu.Lock()
	var dead []*runFile
	if db.verStale {
		next := db.newVersion()
		dead = db.reclaim(db.cur.unref())
		db.cur = next
		db.verStale = false
	}
	db.cur.refs++
	db.views++
	v := &View{db: db, ver: db.cur}
	db.viewMu.Unlock()
	db.removeFiles(dead)
	return v
}

// Release drops the view's reference. Run files superseded while the view
// was held are deleted when their last referencing version goes. Release
// is idempotent and nil-safe.
func (v *View) Release() {
	if v == nil {
		return
	}
	v.db.viewMu.Lock()
	var dead []*runFile
	if !v.released {
		v.released = true
		v.db.views--
		dead = v.db.reclaim(v.ver.unref())
		if v.ver == v.db.durable {
			v.db.dropUnread()
		}
	}
	v.db.viewMu.Unlock()
	v.db.removeFiles(dead)
}

// CP returns the committed consistency point the view was acquired at.
func (v *View) CP() uint64 { return v.ver.cp }

// Runs returns the pinned runs of (table, partition), oldest first. The
// slice is owned by the view; do not modify.
func (v *View) Runs(table string, partition int) []*Run {
	return v.ver.tables[table].runs[partition]
}

// Hides reports whether the view's deletion vector of table holds an entry
// in r's block range: a merge that read r would drop a record.
func (v *View) Hides(table string, r *Run) bool {
	for rec := range v.ver.tables[table].dv {
		if b := blockOf([]byte(rec)); b >= r.minBlock && b <= r.maxBlock {
			return true
		}
	}
	return false
}

// RunCount returns the total number of runs pinned by the view.
func (v *View) RunCount() int {
	var n int
	for _, tv := range v.ver.tables {
		for _, part := range tv.runs {
			n += len(part)
		}
	}
	return n
}

// Range returns a RangeIter over the table's records in the blocks [lo,
// last], lo <= last: the view's pinned runs merged with mem, sorted records
// of those blocks held outside the runs. Runs whose CP window lies entirely
// below horizon (Run.DroppableBelow) are not read: their records cannot
// survive masking against a snapshot graph whose oldest reachable CP is
// horizon. A zero horizon reads every run.
func (v *View) Range(table string, lo, last, horizon uint64, mem [][]byte) *RangeIter {
	return &RangeIter{db: v.db, tv: v.ver.tables[table], mem: mem, block: lo - 1, last: last, horizon: horizon}
}

// CollectBlock invokes visit for every record of the block across the
// view's pinned runs of the table, in ascending order, filtered by the
// pinned deletion vector: a RangeIter over the one block.
func (v *View) CollectBlock(table string, block uint64, visit func(rec []byte) bool) error {
	it := v.Range(table, block, block, 0, nil)
	if err := it.Advance(); err != nil {
		return err
	}
	for {
		rec, ok, err := it.Next()
		if err != nil || !ok || !visit(rec) {
			return err
		}
	}
}

// MergedIterOf returns a sorted, duplicate-free, deletion-vector-filtered
// stream over runs, a subset of the view's pinned runs of one table — the
// input to compaction, which merges against a pinned view with no
// structural lock held, and under tiered compaction only the runs that
// are not sealed below the reclaim horizon, leaving sealed runs eligible
// for drop-based expiry.
func (v *View) MergedIterOf(table string, runs []*Run) (RecIter, error) {
	return mergedIter(runs, v.ver.tables[table].dv)
}

// MergedIter is MergedIterOf over every pinned run of one partition.
func (v *View) MergedIter(table string, partition int) (RecIter, error) {
	return v.MergedIterOf(table, v.Runs(table, partition))
}

// UnchangedRuns reports whether every run in inputs is still live in
// (table, partition) and the table's deletion vector is unmodified since
// the snapshot — the validation every compaction performs before
// installing its result. Runs added or dropped outside the input set do
// not count: a checkpoint flush appending a level-0 run does not
// invalidate a merge of older runs. The caller must serialize it, and the
// commit that follows, against every other commit and deletion-vector
// mutation, so the comparison cannot race with either.
func (v *View) UnchangedRuns(table string, partition int, inputs []*Run) bool {
	tv := v.ver.tables[table]
	// Deletion vectors are copy-on-write with a generation counter: equal
	// generations mean no mutation since the snapshot.
	if tv.dvGen != tv.t.dvGen {
		return false
	}
	live := tv.t.runs[partition]
	for _, in := range inputs {
		if !slices.Contains(live, in) {
			return false
		}
	}
	return true
}
