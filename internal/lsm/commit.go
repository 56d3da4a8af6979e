package lsm

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/backlogfs/backlog/internal/storage"
)

// Edit describes an atomic manifest transition: new runs to install, old
// runs to drop and the CP number to record. All of it commits in a single
// manifest replacement, together with the caller's section as it is at that
// moment (Options.Section) — an empty edit commits the section alone — and
// that commit is the only place a table's deletion vector is pruned or
// persisted (see Commit).
//
// A commit is two steps, so that its I/O need not exclude readers: Write
// does every file operation, the manifest rename last, and Install swaps
// the result into memory. Between an edit's Write and its Install nothing
// else may commit or mutate a deletion vector (the engine's checkpoint
// guard serializes both); only Install needs the structural lock.
type Edit struct {
	db    *DB
	cp    uint64
	setCP bool
	add   []RunRef
	// drop maps a table to the names of the runs to drop, each to the
	// source its removal is attributed to (SrcUnknown: the edit's own).
	drop map[string]map[string]storage.Source

	dvCollected int // deletion-vector entries the last Commit collected

	// What Write prepared and Install swaps in.
	next        manifest
	newRuns     map[string][][]*Run
	droppedRuns []*Run
	nextDV      map[string]map[string]struct{}
	opened      []*Run

	// src is the subsystem committing the edit (checkpoint, compaction,
	// expiry); it attributes the I/O of installing added runs and of
	// removing dropped ones. Manifest and deletion-vector persistence is
	// always attributed to the manifest source regardless of src.
	src storage.Source
}

// NewEdit starts an empty edit.
func (db *DB) NewEdit() *Edit {
	return &Edit{db: db, drop: map[string]map[string]storage.Source{}}
}

// SetSource records the subsystem on whose behalf the edit commits; run
// installs and dropped-run removals are attributed to it.
func (e *Edit) SetSource(src storage.Source) *Edit {
	e.src = src
	return e
}

// SetCP records the consistency point number this edit commits.
func (e *Edit) SetCP(cp uint64) *Edit {
	e.cp, e.setCP = cp, true
	return e
}

// AddRun installs a finished run.
func (e *Edit) AddRun(ref RunRef) *Edit {
	e.add = append(e.add, ref)
	return e
}

// DropRun removes a run from a table (its file is deleted after commit).
func (e *Edit) DropRun(table, runName string) *Edit {
	e.dropAs(table, runName, storage.SrcUnknown)
	return e
}

// dropAs marks a run to drop, its removal attributed to src.
func (e *Edit) dropAs(table, runName string, src storage.Source) {
	if e.drop[table] == nil {
		e.drop[table] = map[string]storage.Source{}
	}
	e.drop[table][runName] = src
}

// DropRunsBelow marks for dropping every run of table whose CP window lies
// entirely below cp — the drop-based expiry path: no record is read or
// rewritten, the runs simply vanish from the manifest the Commit installs,
// and their files are reclaimed once the last pinning view releases them,
// the removal attributed to expiry whatever the edit's source. Runs with
// unknown windows or override records are skipped, and so are runs the
// edit already drops. Returns the number of runs and records marked. The
// caller serializes it against every commit, as it does Write.
func (e *Edit) DropRunsBelow(table string, cp uint64) (runs int, records uint64) {
	t := e.db.tables[table]
	if t == nil {
		return 0, 0
	}
	for _, part := range t.runs {
		for _, r := range part {
			if _, dropped := e.drop[table][r.name]; !dropped && r.DroppableBelow(cp) {
				e.dropAs(table, r.name, storage.SrcExpiry)
				runs++
				records += r.records
			}
		}
	}
	return runs, records
}

// CollectedDVEntries returns the number of deletion-vector entries the last
// Commit collected because the runs it dropped left them nothing to hide.
func (e *Edit) CollectedDVEntries() int { return e.dvCollected }

// Commit applies the edit in one call: Write, Install, then the
// reclamation Install returns — for callers with no structural lock to
// take around the swap. A non-nil error always means the edit did not
// commit (see Write).
func (e *Edit) Commit() error {
	if err := e.Write(); err != nil {
		return err
	}
	e.Install()()
	return nil
}

// Write does the edit's I/O: writes the deletion vectors it changes, opens
// the added runs, and writes, syncs and atomically renames the new manifest
// into place — the commit point. It changes nothing in memory: Install,
// which the caller must call next, does that. A non-nil error always means
// the edit did not commit: nothing on disk or in memory — the vectors
// included — has changed, and the files behind added runs have been
// removed, their written-through pages with them (AddRun transfers
// ownership, so callers never clean up after a failed Commit).
//
// The caller serializes Write against every other commit and every
// deletion-vector mutation until its Install; readers may run throughout.
//
// A deletion vector is pruned and persisted here and nowhere else; between
// commits DeleteRecord and UndeleteRecord only edit the in-memory map and
// mark it dirty. The next vector is built beside the live one and swapped
// in by Install, so there is never anything to undo.
//
//   - An edit that drops runs of a table (a merge's inputs, an expiry's
//     windows) prunes its vector: an entry that no surviving run of its
//     partition covers by block range hides nothing and is collected.
//     Surviving means live before the edit and not dropped by it. The runs
//     the edit adds do not count: a merge reads its inputs through the
//     vector, so its outputs cannot hold a record the vector names, and
//     counting them would keep every entry the merge just consumed. The
//     check reads no run data, and it looks at every partition, not only
//     the one the drops are in: an uncovered entry there hides nothing too.
//   - An edit that advances the CP persists a dirty vector. Dirty entries
//     come from block relocation, whose re-keyed records sit in the write
//     stores until the checkpoint that advances the CP flushes them; that
//     commit must carry the vector with them, or a crash after it
//     resurrects the relocated-away records next to their copies — and log
//     replay cannot re-hide them, because it rightly skips relocations the
//     committed checkpoint covers. No other edit may: hiding the old
//     records durably while the copies are not loses the references in a
//     crash. So an edit that drops runs of a table whose vector is dirty
//     without advancing the CP is refused; the engine defers merges and
//     expiry until the checkpoint has run.
func (e *Edit) Write() error {
	db := e.db
	// fail cleans up after a pre-commit-point error: the added runs' pages
	// leave the cache and their files, once each, the disk.
	var wroteDV []string
	var removed []*runFile
	fail := func(err error) error {
		for _, ref := range e.add {
			db.cache.Drop(ref.built.CacheID())
		}
		for _, ref := range e.add {
			if !slices.Contains(removed, ref.file) {
				db.removeFile(ref.file, ref.src)
				removed = append(removed, ref.file)
			}
		}
		for _, n := range wroteDV {
			_ = db.vfsFor(storage.SrcManifest).Remove(n)
		}
		return err
	}

	// Build the next manifest from in-memory state plus this edit.
	next := manifest{Version: manifestVersion, CP: db.m.CP, Tables: map[string]tableManifest{}, Catalog: db.m.Catalog}
	if db.opts.Section != nil {
		sec, err := db.opts.Section()
		if err != nil {
			return fail(fmt.Errorf("lsm: manifest section: %w", err))
		}
		next.Catalog = sec
	}
	if e.setCP {
		if e.cp < db.m.CP {
			// Rolling the manifest CP backwards would un-skip already
			// durable write-ahead-log records in the replay filter,
			// double-applying them after a crash. The engine validates
			// against this too; refusing here keeps a buggy caller from
			// corrupting recovery.
			return fail(fmt.Errorf("lsm: edit rolls CP backwards (%d -> %d)", db.m.CP, e.cp))
		}
		next.CP = e.cp
	}

	// Start from current runs minus drops. Dropped runs need no explicit
	// bookkeeping: they simply stop appearing in the next version, and
	// version refcounting reclaims their files once the last version
	// referencing them is destroyed.
	newRuns := map[string][][]*Run{}
	var droppedRuns []*Run
	for name, t := range db.tables {
		parts := make([][]*Run, db.opts.Partitions)
		for p, runs := range t.runs {
			for _, r := range runs {
				if _, ok := e.drop[name][r.name]; ok {
					droppedRuns = append(droppedRuns, r)
					continue
				}
				parts[p] = append(parts[p], r)
			}
		}
		newRuns[name] = parts
	}

	// Deletion vectors, by the two rules above. newRuns holds exactly the
	// survivors at this point — the added runs join it below.
	nextDV := map[string]map[string]struct{}{}
	dvMeta := map[string]tableManifest{} // DVFile and DVCount; Serialize fills in the runs
	e.dvCollected = 0
	for name, t := range db.tables {
		cur := db.m.Tables[name]
		dvMeta[name] = cur
		drops := len(e.drop[name]) > 0
		dv := t.dv
		if drops {
			dv = t.coveredDV(newRuns[name])
		}
		persistDirty := t.dvDirty && next.CP > db.m.CP
		if t.dvDirty && !persistDirty && drops {
			return fail(fmt.Errorf("lsm: edit drops runs of %q while its deletion vector is dirty", name))
		}
		if len(dv) == len(t.dv) && !persistDirty {
			continue
		}
		e.dvCollected += len(t.dv) - len(dv)
		nextDV[name] = dv
		var meta tableManifest
		if len(dv) > 0 {
			meta = tableManifest{DVFile: fmt.Sprintf("dv.%s.%010d", name, db.allocID()), DVCount: len(dv)}
			wroteDV = append(wroteDV, meta.DVFile)
			if err := t.writeDV(meta.DVFile, dv); err != nil {
				return fail(err)
			}
		}
		dvMeta[name] = meta
	}

	// Open added runs (files are already synced), with one handle per file.
	var opened []*Run
	for _, ref := range e.add {
		t := db.tables[ref.table]
		if t == nil {
			return fail(fmt.Errorf("lsm: commit references unknown table %q", ref.table))
		}
		if ref.file.f == nil {
			f, err := db.vfsFor(ref.src).Open(ref.file.name)
			if err != nil {
				return fail(fmt.Errorf("lsm: opening run: %w", err))
			}
			ref.file.f = f
		}
		r, err := db.openRun(t, ref.rm, ref.built, ref.file)
		if err != nil {
			return fail(err)
		}
		opened = append(opened, r)
		r.filter.Store(ref.filter)
		newRuns[ref.table][ref.partition] = append(newRuns[ref.table][ref.partition], r)
	}

	// Serialize.
	for name := range db.tables {
		tm := dvMeta[name]
		tm.Partitions = make([][]runManifest, db.opts.Partitions)
		for p, runs := range newRuns[name] {
			tm.Partitions[p] = make([]runManifest, 0, len(runs))
			for _, r := range runs {
				tm.Partitions[p] = append(tm.Partitions[p], runManifest{
					Name: r.name, Level: r.level, Records: r.records,
					MinBlock: r.minBlock, MaxBlock: r.maxBlock, CP: r.cp,
					MinCP: r.minCP, MaxCP: r.maxCP, Overrides: r.overrides,
					CPUnknown: r.cpUnknown, Pages: r.pageExt, Filter: r.filterExt,
				})
			}
		}
		next.Tables[name] = tm
	}

	// The persisted NextID is snapshotted after all of this commit's own
	// allocations, so it covers every ID handed out so far — including
	// concurrent builders whose edits may never commit (their files are
	// orphans for the next Open). The allocator itself never reads it
	// back, so a Commit can never roll IDs backwards under a concurrent
	// allocation.
	next.NextID = db.nextIDSnapshot()
	if err := writeManifest(db.vfsFor(storage.SrcManifest), next); err != nil {
		return fail(err)
	}
	e.next, e.newRuns, e.droppedRuns, e.nextDV, e.opened = next, newRuns, droppedRuns, nextDV, opened
	return nil
}

// Install swaps a written edit into memory: the manifest, every table's
// runs and deletion vector, and the version new views pin. It does no I/O
// and cannot fail; the caller holds the structural lock exclusively. The
// returned func deletes what the edit made garbage — dropped runs' files
// no view pins, replaced deletion-vector files — for the caller to run
// once it has released the lock.
//
// Reclamation of dropped runs is deferred: a dropped run stops appearing
// in the version Install installs, and its file is deleted when the last
// version referencing it is destroyed — by the returned func, if no View
// pins the previous version, else when the last pinning view is released —
// so readers iterating a pinned view never lose the files under them.
// Either way deletion is best-effort and never reported — leftovers are
// orphans collected by the next Open.
func (e *Edit) Install() (reclaim func()) {
	db := e.db
	// Stamp the dropper before the version swap: the file removal may
	// happen much later (a view release), and must be attributed to the
	// operation that doomed it.
	for _, r := range e.droppedRuns {
		src := e.drop[r.table.spec.Name][r.name]
		if src == storage.SrcUnknown {
			src = e.src
		}
		r.doomedBy = src
	}
	prev := db.m
	db.m = e.next
	db.curCP.Store(e.next.CP)
	db.viewMu.Lock()
	for name, t := range db.tables {
		t.runs = e.newRuns[name]
		dv, ok := e.nextDV[name]
		if !ok {
			// Not persisted by this edit: a dirty vector stays dirty, for
			// the next checkpoint.
			continue
		}
		if len(dv) != len(t.dv) {
			// Entries were collected into a fresh map; old versions keep
			// the one they snapshotted. The generation bump makes in-flight
			// optimistic compactions fail validation and retry against
			// current state.
			t.dv, t.dvShared = dv, false
			t.dvGen++
		}
		t.dvDirty = false
	}
	for _, r := range e.opened {
		r.file.runs++
	}
	old := db.cur
	db.cur = db.newVersion()
	// The fresh version captured all live state, including any pending
	// deletion-vector mutations.
	db.verStale = false
	dead := db.reclaim(old.unref())
	// Dropped runs that still carry references are pinned by an older
	// version some view holds: a file the manifest no longer names outlives
	// the drop, so track it as deferred until the last pin goes.
	var listed []string
	for _, r := range e.droppedRuns {
		if r.refs == 0 {
			continue
		}
		if listed == nil {
			listed = db.Files()
		}
		if _, ok := slices.BinarySearch(listed, r.file.name); !ok {
			db.deferFile(r.file.name)
		}
	}
	db.viewMu.Unlock()
	return func() {
		// Outside viewMu and the caller's lock: file removal must not
		// stall concurrent view pins or readers. dead holds the files of
		// runs no version references anymore (none, if a view still pins
		// the old version — the releasing view reclaims them then). That
		// removeFiles swallows its errors is what makes the invariant
		// "Commit returned an error ⟺ the edit did not commit" hold, which
		// the engine's retry paths rely on.
		db.removeFiles(dead)
		// Replaced deletion-vector files are read only at Open (versions
		// snapshot the in-memory maps, not the files), so they are deleted
		// eagerly, attributed like the writes that superseded them.
		for name := range e.nextDV {
			if f := prev.Tables[name].DVFile; f != "" {
				_ = db.vfsFor(storage.SrcManifest).Remove(f)
			}
		}
	}
}

func writeManifest(vfs storage.VFS, m manifest) error {
	data, err := encodeManifest(m)
	if err != nil {
		return err
	}
	// Remove a stale temp file from a previous failed commit, if any.
	if err := vfs.Remove(manifestTmpName); err != nil && !errors.Is(err, storage.ErrNotExist) {
		return err
	}
	if err := writeSynced(vfs, manifestTmpName, data); err != nil {
		return err
	}
	return vfs.Rename(manifestTmpName, manifestName)
}

// writeSynced creates name holding data and syncs it.
func writeSynced(vfs storage.VFS, name string, data []byte) error {
	f, err := vfs.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- Deletion vectors ---

// mutableDV returns the deletion-vector map a mutator may write to,
// copying it first if a pinned View may be reading the current one.
// Callers hold the structural lock exclusively (serializing all mutators
// against AcquireView); the copy is what keeps a pinned view's reads
// stable. With no view pinned the only version sharing the map is the
// current one, which every mutator marks stale, so nobody reads the map
// again before the next AcquireView rebuilds the version from it — a run
// of relocations then costs no copy at all.
func (t *Table) mutableDV() map[string]struct{} {
	if t.dvShared && t.db.ActiveViews() > 0 {
		cp := make(map[string]struct{}, len(t.dv))
		for rec := range t.dv {
			cp[rec] = struct{}{}
		}
		t.dv = cp
	}
	t.dvShared = false
	return t.dv
}

// DeleteRecord hides a record from all subsequent reads until a merge
// physically drops it. The change lives in memory, marked dirty, until the
// next Commit that advances the CP persists it.
func (t *Table) DeleteRecord(rec []byte) {
	if len(rec) != t.spec.RecordSize {
		return
	}
	t.mutableDV()[string(rec)] = struct{}{}
	t.dvGen++
	t.db.verStale = true
	t.dvDirty = true
}

// UndeleteRecord is the inverse of DeleteRecord: an entry for rec, if the
// vector has one, is removed, so a run that still holds the record shows
// it again — what moving a block back to where it came from needs. Dirty
// and persisted like a deletion.
func (t *Table) UndeleteRecord(rec []byte) {
	if _, hidden := t.dv[string(rec)]; !hidden {
		return
	}
	delete(t.mutableDV(), string(rec))
	t.dvGen++
	t.db.verStale = true
	t.dvDirty = true
}

// DVLen returns the number of records in the deletion vector.
func (t *Table) DVLen() int { return len(t.dv) }

// DVDirty reports whether the vector has unpersisted changes.
func (t *Table) DVDirty() bool { return t.dvDirty }

// coveredDV copies the vector without the entries that hide nothing: an
// entry stays only if some run of survivors — indexed by partition — covers
// its block by range.
func (t *Table) coveredDV(survivors [][]*Run) map[string]struct{} {
	kept := make(map[string]struct{}, len(t.dv))
	for rec := range t.dv {
		blk := blockOf([]byte(rec))
		for _, r := range survivors[t.db.PartitionOf(blk)] {
			if blk >= r.minBlock && blk <= r.maxBlock {
				kept[rec] = struct{}{}
				break
			}
		}
	}
	return kept
}

func (t *Table) writeDV(name string, dv map[string]struct{}) error {
	recs := make([]string, 0, len(dv))
	for r := range dv {
		recs = append(recs, r)
	}
	sort.Strings(recs)
	return writeSynced(t.db.vfsFor(storage.SrcManifest), name, []byte(strings.Join(recs, "")))
}

// loadDV reads the deletion vector file the manifest names, which must
// hold the count of records the manifest gives: a file cut by whole
// records would otherwise open as a smaller vector and un-hide the rest.
func (t *Table) loadDV(name string, count int) error {
	buf, err := readAll(t.db.vfsFor(storage.SrcRecovery), name)
	if err != nil {
		return err
	}
	rs := t.spec.RecordSize
	if len(buf)%rs != 0 {
		return corrupt("deletion vector %s has a partial record", name)
	}
	if n := len(buf) / rs; n != count {
		return corrupt("deletion vector %s holds %d records, the manifest counts %d", name, n, count)
	}
	for off := 0; off < len(buf); off += rs {
		t.dv[string(buf[off:off+rs])] = struct{}{}
	}
	t.dvDirty = false
	return nil
}
