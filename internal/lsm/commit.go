package lsm

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"github.com/backlogfs/backlog/internal/storage"
)

// Edit describes an atomic manifest transition: new runs to install, old
// runs to drop, the CP number to record, and deletion-vector changes. All
// of it commits in a single manifest replacement.
type Edit struct {
	db        *DB
	cp        uint64
	setCP     bool
	add       []RunRef
	drop      map[string][]string // table -> run names to drop
	replaceDV map[string]bool     // tables whose (possibly empty) DV should be persisted
	// gcDV marks tables whose deletion vector should be garbage-collected
	// at commit: entries whose block cannot belong to any surviving run
	// are removed and the pruned vector persisted in the same manifest
	// replacement (DropRunsBelow sets this). dvCollected counts entries
	// removed by the last Commit.
	gcDV        map[string]bool
	dvCollected int

	// src is the subsystem committing the edit (checkpoint, compaction,
	// expiry); it attributes the I/O of installing added runs and of
	// removing dropped ones. Manifest and deletion-vector persistence is
	// always attributed to the manifest source regardless of src.
	src storage.Source
}

// NewEdit starts an empty edit.
func (db *DB) NewEdit() *Edit {
	return &Edit{db: db, drop: map[string][]string{}, replaceDV: map[string]bool{}, gcDV: map[string]bool{}}
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
	e.drop[table] = append(e.drop[table], runName)
	return e
}

// DropRunsBelow marks for dropping every run of table whose CP window lies
// entirely below cp — the drop-based expiry path: no record is read or
// rewritten, the runs simply vanish from the manifest the Commit installs,
// and their files are reclaimed once the last pinning view releases them.
// Runs with unknown windows or override records are skipped. Deletion-
// vector entries that can only refer to dropped runs are garbage-collected
// in the same commit (see Commit). Returns the number of runs and records
// marked. The caller must hold the structural lock exclusively.
func (e *Edit) DropRunsBelow(table string, cp uint64) (runs int, records uint64) {
	t := e.db.tables[table]
	if t == nil {
		return 0, 0
	}
	for _, part := range t.runs {
		for _, r := range part {
			if r.DroppableBelow(cp) {
				e.DropRun(table, r.name)
				runs++
				records += r.records
			}
		}
	}
	if runs > 0 {
		e.gcDV[table] = true
	}
	return runs, records
}

// CollectedDVEntries returns the number of deletion-vector entries the
// last Commit garbage-collected on behalf of DropRunsBelow.
func (e *Edit) CollectedDVEntries() int { return e.dvCollected }

// FlushDV persists the current in-memory deletion vector of the table
// (which may be empty, dropping a previously persisted vector).
func (e *Edit) FlushDV(table string) *Edit {
	e.replaceDV[table] = true
	return e
}

// Commit applies the edit: writes dirty deletion vectors, writes and syncs
// the new manifest, atomically renames it into place, updates in-memory
// state, and finally reclaims dropped runs. A non-nil error always means
// the edit did not commit: the on-disk state is unchanged and the files
// behind added runs have been removed (AddRun transfers ownership, so
// callers never clean up after a failed Commit).
//
// Reclamation of dropped runs is deferred: a dropped run stops appearing
// in the version the commit installs, and its file is deleted when the
// last version referencing it is destroyed — immediately, if no View pins
// the previous version, else when the last pinning view is released — so
// readers iterating a pinned view never lose the files under them. Either
// way deletion is best-effort and never reported — leftovers are orphans
// collected by the next Open.
func (e *Edit) Commit() error {
	db := e.db
	// fail cleans up after a pre-commit-point error.
	var opened []*Run
	fail := func(err error) error {
		for _, r := range opened {
			r.file.Close()
		}
		for _, ref := range e.add {
			_ = db.vfsFor(ref.src).Remove(ref.rm.Name)
		}
		return err
	}

	// Build the next manifest from in-memory state plus this edit.
	next := manifest{Version: manifestVersion, CP: db.m.CP, Tables: map[string]tableManifest{}}
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

	dropSet := map[string]map[string]bool{}
	for table, names := range e.drop {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		dropSet[table] = m
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
				if dropSet[name][r.name] {
					// Stamp the dropper before the version swap: the file
					// removal may happen much later (a view release), and
					// must be attributed to the operation that doomed it.
					r.doomedBy = e.src
					droppedRuns = append(droppedRuns, r)
					continue
				}
				parts[p] = append(parts[p], r)
			}
		}
		newRuns[name] = parts
	}

	// Install added runs (opening readers now; files are already synced).
	for _, ref := range e.add {
		t := db.tables[ref.table]
		if t == nil {
			return fail(fmt.Errorf("lsm: commit references unknown table %q", ref.table))
		}
		r, err := db.openRun(t, ref.rm, ref.src)
		if err != nil {
			return fail(err)
		}
		opened = append(opened, r)
		r.filter.Store(ref.filter)
		newRuns[ref.table][ref.partition] = append(newRuns[ref.table][ref.partition], r)
	}

	// Persist requested deletion vectors.
	newDVFiles := map[string]string{}
	newDVCounts := map[string]int{}
	dvPruned := map[string]map[string]struct{}{}
	e.dvCollected = 0
	var dvToDelete []string
	for name, t := range db.tables {
		cur := db.m.Tables[name].DVFile
		dv := t.dv
		if e.gcDV[name] {
			// Runs were dropped below the reclaim horizon: deletion-vector
			// entries whose block no surviving run's range covers can only
			// have referred to dropped runs, so they are dead weight —
			// collect them in the same commit. Entries whose block a
			// surviving run may still hold are kept (conservative: the
			// block-range check never reads run data).
			pruned := make(map[string]struct{}, len(t.dv))
			for rec := range t.dv {
				blk := blockOf([]byte(rec))
				p := db.PartitionOf(blk)
				for _, r := range newRuns[name][p] {
					if blk >= r.minBlock && blk <= r.maxBlock {
						pruned[rec] = struct{}{}
						break
					}
				}
			}
			e.dvCollected += len(t.dv) - len(pruned)
			dvPruned[name] = pruned
			dv = pruned
		} else if !e.replaceDV[name] {
			newDVFiles[name] = cur
			newDVCounts[name] = db.m.Tables[name].DVCount
			continue
		}
		if len(dv) == 0 {
			newDVFiles[name] = ""
		} else {
			fname := fmt.Sprintf("dv.%s.%010d", name, db.allocID())
			if err := t.writeDV(fname, dv); err != nil {
				return fail(err)
			}
			newDVFiles[name] = fname
		}
		newDVCounts[name] = len(dv)
		if cur != "" && cur != newDVFiles[name] {
			dvToDelete = append(dvToDelete, cur)
		}
	}

	// Serialize.
	for name := range db.tables {
		tm := tableManifest{
			Partitions: make([][]runManifest, db.opts.Partitions),
			DVFile:     newDVFiles[name],
			DVCount:    newDVCounts[name],
		}
		if tm.DVFile == "" {
			tm.DVCount = 0
		}
		for p, runs := range newRuns[name] {
			tm.Partitions[p] = make([]runManifest, 0, len(runs))
			for _, r := range runs {
				tm.Partitions[p] = append(tm.Partitions[p], runManifest{
					Name: r.name, Level: r.level, Records: r.records,
					MinBlock: r.minBlock, MaxBlock: r.maxBlock, CP: r.cp,
					MinCP: r.minCP, MaxCP: r.maxCP, Overrides: r.overrides,
					CPUnknown: r.cpUnknown,
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

	// Point of no return: swap in-memory state and install the next
	// version. The version transition happens under viewMu so it is
	// atomic with respect to concurrent AcquireView/Release calls.
	db.m = next
	db.curCP.Store(next.CP)
	db.viewMu.Lock()
	for name, t := range db.tables {
		t.runs = newRuns[name]
		if pruned, ok := dvPruned[name]; ok {
			// The garbage-collected vector was persisted; install it as the
			// live map. Old versions keep the map they snapshotted. The
			// generation bump (content changed) makes in-flight optimistic
			// compactions fail validation and retry against current state.
			if len(pruned) != len(t.dv) {
				t.dvGen++
			}
			t.dv = pruned
			t.dvShared = false
			t.dvDirty = false
			continue
		}
		if !e.replaceDV[name] {
			// Not persisted by this edit: a dirty vector stays dirty, so
			// the next checkpoint flushes it.
			continue
		}
		if newDVFiles[name] == "" {
			// The vector was empty (nothing was written); shed the map.
			// Content is unchanged, so versions sharing the old (empty)
			// map and the generation counter are unaffected.
			t.dv = make(map[string]struct{})
			t.dvShared = false
		}
		t.dvDirty = false
	}
	old := db.cur
	db.cur = db.newVersion()
	// The fresh version captured all live state, including any pending
	// deletion-vector mutations.
	db.verStale = false
	doomed := old.unref()
	db.undeferAll(doomed)
	// Dropped runs that still carry references are pinned by an older
	// version some view holds: their files outlive the manifest drop, so
	// track them as deferred until the last pin goes.
	for _, r := range droppedRuns {
		if r.refs > 0 {
			db.deferRun(r.name)
		}
	}
	db.viewMu.Unlock()
	// Reclaim outside viewMu: file removal must not stall concurrent view
	// pins. doomed holds runs no version references anymore (none, if a
	// view still pins the old version — the releasing view reclaims them
	// then). That removeRuns swallows its errors is what makes the
	// invariant "Commit returned an error ⟺ the edit did not commit" hold,
	// which the engine's retry and deletion-vector-restore paths rely on.
	db.removeRuns(doomed)
	// Replaced deletion-vector files are read only at Open (versions
	// snapshot the in-memory maps, not the files), so they are deleted
	// eagerly, attributed like the writes that superseded them.
	for _, n := range dvToDelete {
		_ = db.vfsFor(storage.SrcManifest).Remove(n)
	}
	return nil
}

func writeManifest(vfs storage.VFS, m manifest) error {
	data, err := json.Marshal(&m)
	if err != nil {
		return err
	}
	// Remove a stale temp file from a previous failed commit, if any.
	if err := vfs.Remove(manifestTmpName); err != nil && !errors.Is(err, storage.ErrNotExist) {
		return err
	}
	f, err := vfs.Create(manifestTmpName)
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
	if err := f.Close(); err != nil {
		return err
	}
	return vfs.Rename(manifestTmpName, manifestName)
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

// DeleteRecord hides a record from all subsequent reads until the next
// compaction physically drops it. The change is durable after the next
// Commit with FlushDV.
func (t *Table) DeleteRecord(rec []byte) {
	if len(rec) != t.spec.RecordSize {
		return
	}
	t.mutableDV()[string(rec)] = struct{}{}
	t.dvGen++
	t.db.verStale = true
	t.dvDirty = true
}

// DVLen returns the number of records in the deletion vector.
func (t *Table) DVLen() int { return len(t.dv) }

// DVDirty reports whether the vector has unpersisted changes.
func (t *Table) DVDirty() bool { return t.dvDirty }

// ClearDVPartitionKeep removes deletion-vector entries routed to
// partition p (under either range or hash partitioning) and returns the
// removed records. A compaction calls this after physically dropping its
// input runs' deleted records, leaving other partitions' entries in
// place; if the commit then fails, the caller restores the returned
// records with RestoreDV so in-memory reads keep hiding them. Entries
// whose block keep reports true are left in place because they may hide
// records in runs the compaction did not rewrite. A nil keep clears every
// entry of the partition.
func (t *Table) ClearDVPartitionKeep(p int, keep func(block uint64) bool) []string {
	var cleared []string
	for rec := range t.dv {
		blk := blockOf([]byte(rec))
		if t.db.PartitionOf(blk) != p {
			continue
		}
		if keep != nil && keep(blk) {
			continue
		}
		cleared = append(cleared, rec)
	}
	if len(cleared) == 0 {
		return nil
	}
	dv := t.mutableDV()
	for _, rec := range cleared {
		delete(dv, rec)
	}
	t.dvGen++
	t.db.verStale = true
	t.dvDirty = true
	return cleared
}

// RestoreDV re-inserts deletion-vector entries removed by a Clear that was
// part of a commit that subsequently failed.
func (t *Table) RestoreDV(recs []string) {
	if len(recs) == 0 {
		return
	}
	dv := t.mutableDV()
	for _, rec := range recs {
		dv[rec] = struct{}{}
	}
	t.dvGen++
	t.db.verStale = true
	t.dvDirty = true
}

func (t *Table) writeDV(name string, dv map[string]struct{}) error {
	recs := make([]string, 0, len(dv))
	for r := range dv {
		recs = append(recs, r)
	}
	sort.Strings(recs)
	f, err := t.db.vfsFor(storage.SrcManifest).Create(name)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, len(recs)*t.spec.RecordSize)
	for _, r := range recs {
		buf = append(buf, r...)
	}
	if _, err := f.WriteAt(buf, 0); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (t *Table) loadDV(name string) error {
	f, err := t.db.vfsFor(storage.SrcRecovery).Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return err
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return err
	}
	rs := t.spec.RecordSize
	if int(size)%rs != 0 {
		return fmt.Errorf("lsm: deletion vector %s has partial record", name)
	}
	for off := 0; off < int(size); off += rs {
		t.dv[string(buf[off:off+rs])] = struct{}{}
	}
	t.dvDirty = false
	return nil
}
