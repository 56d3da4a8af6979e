package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/backlogfs/backlog/internal/btree"
	"github.com/backlogfs/backlog/internal/storage"
)

// Edit describes an atomic transition of the store: new runs to install,
// old runs to drop and the CP number to record. All of it takes effect in
// one swap, and a written edit commits in one file's sync: its manifest,
// together with the caller's section as it is at that moment
// (Options.Section) — an empty edit commits the section alone — is the
// trailer of the file that carries the commit (see Write), and that commit
// is the only place a deletion vector is persisted.
//
// An edit is installed in two steps, so that its I/O need not exclude
// readers: Write — or, for an edit that only reorganizes durable records,
// Prepare — does every file operation, and Install swaps the result into
// memory. A written edit is a commit: once Write has synced its trailer,
// the manifest names the live runs. A prepared edit is an install in
// memory: the live version moves and the committed manifest stays, naming
// what it named, until the next written edit commits the live runs with
// its own. Between an edit's Write or Prepare and its Install nothing else
// may install or mutate a deletion vector (the engine's checkpoint guard
// serializes all three); only Install needs the structural lock.
type Edit struct {
	db    *DB
	cp    uint64
	setCP bool
	add   []RunRef
	// drop maps a table to the names of the runs to drop, each to the
	// source its removal is attributed to (SrcUnknown: the edit's own).
	drop map[string]map[string]storage.Source

	dvCollected int // deletion-vector entries the drops collected

	// What Prepare and Write built and Install swaps in.
	newRuns     map[string][][]*Run
	droppedRuns []*Run
	opened      []*Run
	prunedDV    map[string]map[string]struct{} // the vectors the drops collected entries from
	wroteDV     []string                       // the vector files Write made
	savedDV     []string                       // the tables whose vector the manifest now names
	next        manifest
	written     bool
	// carrier is the file that carries the commit, once Write made or
	// chose it; trailed that the trailer's write has been issued, after
	// which a failed commit must remove that file first (see fail).
	carrier *runFile
	trailed bool

	// src is the subsystem installing the edit (checkpoint, compaction,
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

// CollectedDVEntries returns the number of deletion-vector entries the
// edit's drops collected because the runs they dropped left them nothing
// to hide.
func (e *Edit) CollectedDVEntries() int { return e.dvCollected }

// ErrUnsynced is returned (wrapped) by Write and Commit when the file that
// carries the commit was synced but the directory sync after it failed:
// the edit has committed, but a crash may lose that file's entry, and with
// it the commit.
var ErrUnsynced = errors.New("lsm: committed, but the directory sync failed")

// ErrLeftover is returned (wrapped) by Write and Commit when the edit did
// not commit but the file its trailer went to could not be removed: a
// crash before the next commit may reopen the store as the edit would have
// left it. The files the edit named stay with it.
var ErrLeftover = errors.New("lsm: a failed commit's file could not be removed")

// Commit applies the edit in one call: Write, Install, then the
// reclamation Install returns — for callers with no structural lock to
// take around the swap. A non-nil error means the edit did not commit
// (see Write), except one that wraps ErrUnsynced: the edit is installed,
// and nothing it made garbage is removed.
func (e *Edit) Commit() error {
	err := e.Write()
	if err != nil && !errors.Is(err, ErrUnsynced) {
		return err
	}
	reclaim := e.Install()
	if err == nil {
		reclaim()
	}
	return err
}

// Prepare readies the edit for an install in memory: it opens the added
// runs and builds the run lists and deletion vectors the edit leaves live,
// and writes nothing but a checkpoint file's held-back tail. Install then
// moves the live version and leaves the committed manifest as it is; the
// next written edit commits what Install swapped in, and until then the
// version the manifest describes stays pinned, so the files of the runs the
// edit drops stay on disk (see Install). That is sound only for an edit
// whose outputs hold nothing the manifest's runs do not — a merge's — so an
// edit that sets the CP must be written. A non-nil error means nothing
// changed, and the added runs' files are removed, as by a failed Write.
func (e *Edit) Prepare() error {
	if e.setCP {
		return e.fail(errors.New("lsm: an edit that sets the CP must be written"))
	}
	if err := e.settle(nil); err != nil {
		return e.fail(err)
	}
	return e.prepare(false)
}

// settle writes and syncs every added file whose final write a checkpoint's
// set held back, but carrier, which the commit's trailer finishes.
func (e *Edit) settle(carrier *runFile) error {
	for _, ref := range e.add {
		if rf := ref.file; rf.pending != nil && rf != carrier {
			err := rf.pending.Write(nil, storage.SrcUnknown)
			rf.pending = nil
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// fail cleans up after an error before the edit's commit point or install:
// the added runs' pages leave the cache, their files, once each, the disk,
// and so do the vector files and the commit file Write made. A carrier its
// trailer went to goes first: if it cannot be removed, the commit may yet
// be found, so the files it names stay too and the error wraps ErrLeftover.
func (e *Edit) fail(err error) error {
	db := e.db
	if e.trailed {
		if rerr := db.removeFile(e.carrier, storage.SrcManifest); rerr != nil && !errors.Is(rerr, storage.ErrNotExist) {
			return fmt.Errorf("%w: %w (removing %s: %v)", ErrLeftover, err, e.carrier.name, rerr)
		}
	}
	var removed []*runFile
	for _, ref := range e.add {
		db.cache.Drop(ref.built.CacheID())
		if !slices.Contains(removed, ref.file) {
			_ = db.removeFile(ref.file, ref.src)
			removed = append(removed, ref.file)
		}
	}
	for _, n := range e.wroteDV {
		_ = db.vfsFor(storage.SrcManifest).Remove(n)
	}
	return err
}

// prepare builds what Install swaps in: every table's live runs minus the
// drops plus the added runs, opened, and the deletion vectors the drops
// prune. advances tells whether the edit moves the CP forward, which is
// what lets it drop runs of a table whose vector is dirty.
func (e *Edit) prepare(advances bool) error {
	db := e.db
	// Dropped runs need no explicit bookkeeping: they simply stop appearing
	// in the next version, and version refcounting reclaims their files once
	// the last version referencing them is destroyed.
	e.newRuns, e.droppedRuns = map[string][][]*Run{}, nil
	for name, t := range db.tables {
		parts := make([][]*Run, db.opts.Partitions)
		for p, runs := range t.runs {
			for _, r := range runs {
				if _, ok := e.drop[name][r.name]; ok {
					e.droppedRuns = append(e.droppedRuns, r)
					continue
				}
				parts[p] = append(parts[p], r)
			}
		}
		e.newRuns[name] = parts
	}

	// An edit that drops runs of a table prunes its vector: an entry that no
	// surviving run of its partition covers by block range hides nothing and
	// is collected. newRuns holds exactly the survivors at this point — the
	// added runs join it below (see Write).
	e.prunedDV, e.dvCollected = map[string]map[string]struct{}{}, 0
	for name, t := range db.tables {
		if len(e.drop[name]) == 0 {
			continue
		}
		if t.dvDirty && !advances {
			return e.fail(fmt.Errorf("lsm: edit drops runs of %q while its deletion vector is dirty", name))
		}
		if dv := t.coveredDV(e.newRuns[name]); len(dv) != len(t.dv) {
			e.prunedDV[name] = dv
			e.dvCollected += len(t.dv) - len(dv)
		}
	}

	// Open added runs (files are already synced), with one handle per file.
	e.opened = nil
	for _, ref := range e.add {
		t := db.tables[ref.table]
		if t == nil {
			return e.fail(fmt.Errorf("lsm: edit references unknown table %q", ref.table))
		}
		if ref.file.f == nil {
			f, err := db.vfsFor(ref.src).Open(ref.file.name)
			if err != nil {
				return e.fail(fmt.Errorf("lsm: opening run: %w", err))
			}
			ref.file.f = f
		}
		r, err := db.openRun(t, ref.rm, ref.built, ref.file)
		if err != nil {
			return e.fail(err)
		}
		e.opened = append(e.opened, r)
		r.filter.Store(ref.filter)
		e.newRuns[ref.table][ref.partition] = append(e.newRuns[ref.table][ref.partition], r)
	}
	return nil
}

// Write does the edit's I/O: opens the added runs, writes the deletion
// vectors it persists, and writes the new manifest as the trailer of the
// file that carries the commit, whose one sync is the commit point, then
// syncs the directory once. The carrier is the checkpoint's run file whose
// final write its set held back (FileSet.Finish) — the trailer rides that
// write, after the file's filters — when that file is the newest entry the
// commit makes; otherwise, for an edit that builds no run of its own or
// that writes a deletion vector, it is a commit file of its own,
// commit.<id>. Every other file the manifest names is synced before it.
// Open takes the newest commit whose trailer checks (see there), so no
// older file needs to change. The manifest names every live run, those
// that installs in memory since the last commit swapped in included, and
// this edit's outcome. Write changes nothing in memory: Install, which the
// caller must call next, does that. A non-nil error means the edit did not
// commit: nothing on disk or in memory — the vectors included — has
// changed, and the files behind added runs have been removed, their
// written-through pages with them (AddRun transfers ownership, so callers
// never clean up after a failed Commit). There are two exceptions. An
// error that wraps ErrLeftover did not commit, but its carrier and the
// files it names are still there (see fail). An error that wraps
// ErrUnsynced has committed: the carrier is synced and names the added
// runs, whose files stay, so the caller must Install the edit as after a
// nil error. Until a later commit's directory sync succeeds, it should
// remove none of the files the previous commit names: Install's
// reclamation is for a commit known durable.
//
// The caller serializes Write against every other install and every
// deletion-vector mutation until its Install; readers may run throughout.
//
// A deletion vector is persisted here and nowhere else, and pruned here or
// in Prepare; between installs DeleteRecord and UndeleteRecord only edit
// the in-memory map and mark it dirty. The next vector is built beside the
// live one and swapped in by Install, so there is never anything to undo.
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
//     expiry until the checkpoint has run. A commit that does not advance
//     the CP leaves a dirty vector's file as the manifest names it.
//   - Any other commit persists a clean vector the manifest does not hold
//     yet: one its own drops pruned, or one an install in memory did.
func (e *Edit) Write() error {
	db := e.db
	next := manifest{Version: manifestVersion, CP: db.m.CP, Tables: map[string]tableManifest{}, Catalog: db.m.Catalog}
	if db.opts.Section != nil {
		sec, err := db.opts.Section()
		if err != nil {
			return e.fail(fmt.Errorf("lsm: manifest section: %w", err))
		}
		if next.Catalog = sec; len(sec) == 0 {
			next.Catalog = nil // as a reopen reads it
		}
	}
	if e.setCP {
		if e.cp < db.m.CP {
			// Rolling the manifest CP backwards would un-skip already
			// durable write-ahead-log records in the replay filter,
			// double-applying them after a crash. The engine validates
			// against this too; refusing here keeps a buggy caller from
			// corrupting recovery.
			return e.fail(fmt.Errorf("lsm: edit rolls CP backwards (%d -> %d)", db.m.CP, e.cp))
		}
		next.CP = e.cp
	}
	advances := next.CP > db.m.CP
	if err := e.prepare(advances); err != nil {
		return err
	}

	// Deletion vectors, by the rules above; a vector the commit does not
	// persist keeps the file the manifest names.
	e.wroteDV, e.savedDV = nil, nil
	for name, t := range db.tables {
		meta := db.m.Tables[name]
		dv, pruned := e.prunedDV[name]
		if !pruned {
			dv = t.dv
		}
		if t.dvDirty && !advances || !t.dvDirty && !pruned && !t.dvAhead {
			next.Tables[name] = tableManifest{DVFile: meta.DVFile, DVCount: meta.DVCount}
			continue
		}
		meta = tableManifest{}
		if len(dv) > 0 {
			meta = tableManifest{DVFile: fmt.Sprintf("dv.%s.%010d", name, db.allocID()), DVCount: len(dv)}
			e.wroteDV = append(e.wroteDV, meta.DVFile)
			if err := t.writeDV(meta.DVFile, dv); err != nil {
				return e.fail(err)
			}
		}
		e.savedDV = append(e.savedDV, name)
		next.Tables[name] = meta
	}

	// Serialize.
	for name := range db.tables {
		tm := next.Tables[name]
		tm.Partitions = make([][]runManifest, db.opts.Partitions)
		for p, runs := range e.newRuns[name] {
			tm.Partitions[p] = make([]runManifest, 0, len(runs))
			for _, r := range runs {
				h := r.qreader.Header()
				tm.Partitions[p] = append(tm.Partitions[p], runManifest{
					Name: r.name, Level: r.level, Records: r.records,
					MinBlock: r.minBlock, MaxBlock: r.maxBlock, CP: r.cp,
					MinCP: r.minCP, MaxCP: r.maxCP, Overrides: r.overrides,
					CPUnknown: r.cpUnknown, Pages: r.pageExt, Filter: r.filterExt,
					Header: &h,
				})
			}
		}
		next.Tables[name] = tm
	}

	// The carrier: a commit rides a run file only if no entry this commit
	// makes comes after that file's, so that a crash that keeps the
	// carrier's entry keeps every entry it names (see storage.CrashState).
	if len(e.wroteDV) == 0 {
		for _, ref := range e.add {
			if ref.file.pending != nil {
				e.carrier = ref.file
			}
		}
	}
	if err := e.settle(e.carrier); err != nil {
		return e.fail(err)
	}
	if e.carrier == nil {
		e.carrier = &runFile{name: fmt.Sprintf("%s%010d", commitPrefix, db.allocID())}
	}

	// The persisted NextID is snapshotted after all of this commit's own
	// allocations, so it covers every ID handed out so far — including
	// concurrent builders whose edits may never commit (their files are
	// orphans for the next Open). The allocator itself never reads it
	// back, so a Commit can never roll IDs backwards under a concurrent
	// allocation.
	next.NextID = db.nextIDSnapshot()
	body := appendManifest(nil, &next)
	var err error
	e.trailed = true
	if rf := e.carrier; rf.pending != nil {
		err = rf.pending.Write(sealTrailer(body, rf.layout), storage.SrcManifest)
		rf.pending = nil
	} else {
		err = writeSynced(db.vfsFor(storage.SrcManifest), rf.name, sealTrailer(body, btree.Layout{}))
	}
	if err != nil {
		return e.fail(err)
	}
	e.next, e.written = next, true
	// The entries of the carrier and of every file it names become
	// durable with the directory's.
	if err := db.vfs.SyncDir(); err != nil {
		return fmt.Errorf("%w: %w", ErrUnsynced, err)
	}
	return nil
}

// Install swaps a written or prepared edit into memory: every table's runs
// and deletion vector, the version new views pin and, for a written edit,
// the manifest. It does no I/O and cannot fail; the caller holds the
// structural lock exclusively. The returned func deletes what the edit made
// garbage — dropped runs' files nothing pins, replaced deletion-vector
// files, the previous commit's file when it holds no run — for the caller
// to run once it has released the lock.
//
// The DB pins the version the manifest describes, as a View pins one. A
// prepared edit leaves that pin where it is, so the runs the edit drops
// keep their files for as long as the manifest names them: a crash before
// the next commit reopens the store as that manifest describes it. A
// written edit moves the pin to the version it installs, which frees the
// runs every install since the previous commit dropped.
//
// Reclamation of dropped runs is deferred: a dropped run stops appearing
// in the version Install installs, and its file is deleted when the last
// version referencing it is destroyed — by the returned func, if neither a
// View nor the manifest's pin holds an older version, else when the last
// of those goes — so readers iterating a pinned view never lose the files
// under them. Either way deletion is best-effort and never reported —
// leftovers are orphans collected by the next Open.
func (e *Edit) Install() (reclaim func()) {
	db := e.db
	// Stamp the dropper before the version swap: the file removal may
	// happen much later (a view release, the next commit), and must be
	// attributed to the operation that doomed it.
	for _, r := range e.droppedRuns {
		src := e.drop[r.table.spec.Name][r.name]
		if src == storage.SrcUnknown {
			src = e.src
		}
		r.doomedBy = src
	}
	prev, prevCommit := db.m, db.commit
	if e.written {
		db.m, db.commit = e.next, e.carrier.name
	}
	db.viewMu.Lock()
	for name, t := range db.tables {
		t.runs = e.newRuns[name]
		if dv, ok := e.prunedDV[name]; ok {
			// Entries were collected into a fresh map; old versions keep
			// the one they snapshotted. The generation bump makes in-flight
			// optimistic compactions fail validation and retry against
			// current state.
			t.dv, t.dvShared, t.dvAhead = dv, false, true
			t.dvGen++
		}
	}
	for _, name := range e.savedDV {
		// Any other vector stays as it was: a dirty one dirty, for the
		// next checkpoint, and one an install in memory pruned ahead of
		// the manifest, for the next commit that may persist it.
		t := db.tables[name]
		t.dvDirty, t.dvAhead = false, false
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
	doomed := e.droppedRuns
	if e.written {
		// The runs the manifest named until now and this one does not are
		// freed with the old pin: those every install since the last
		// commit dropped.
		for _, tv := range db.durable.tables {
			for _, part := range tv.runs {
				doomed = append(doomed, part...)
			}
		}
		db.cur.refs++
		dead = append(dead, db.reclaim(db.durable.unref())...)
		db.durable = db.cur
	}
	db.ahead = !e.written
	db.dropUnread()
	// Dropped runs that still carry references are pinned by an older
	// version some view holds: a file the manifest no longer names outlives
	// the drop, so track it as deferred until the last pin goes.
	var listed []string
	for _, r := range doomed {
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
		mvfs := db.vfsFor(storage.SrcManifest)
		for _, name := range e.savedDV {
			if f := prev.Tables[name].DVFile; f != "" {
				_ = mvfs.Remove(f)
			}
		}
		// A commit in a run file goes with the file's runs; one in a file
		// of its own goes now.
		if e.written && prevCommit != "" && !strings.HasSuffix(prevCommit, ".run") {
			_ = mvfs.Remove(prevCommit)
		}
	}
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
// stable. With no view pinned the versions sharing the map are the current
// one, which every mutator marks stale, so nobody reads the map again
// before the next AcquireView rebuilds the version from it, and the one
// the manifest's pin holds, which nobody reads — a run of relocations then
// costs no copy at all.
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

// writeDV writes dv's records, sorted, to a file of their own inside the
// manifest's envelope (dvVersion), and syncs it.
func (t *Table) writeDV(name string, dv map[string]struct{}) error {
	recs := make([]string, 0, len(dv))
	for r := range dv {
		recs = append(recs, r)
	}
	sort.Strings(recs)
	return writeSynced(t.db.vfsFor(storage.SrcManifest), name, sealManifest(dvVersion, []byte(strings.Join(recs, ""))))
}

// loadDV reads the deletion vector file the manifest names: an envelope
// whose checksum holds. A file without one that holds the manifest's count
// of bare records is what version 1 wrote, refused by name. It must hold
// the count of records the manifest gives: a file cut by whole records
// would otherwise open as a smaller vector and un-hide the rest.
func (t *Table) loadDV(name string, count int) error {
	buf, err := readAll(t.db.vfsFor(storage.SrcRecovery), name)
	if err != nil {
		return err
	}
	rs := t.spec.RecordSize
	if !bytes.HasPrefix(buf, []byte(manifestMagic)) && len(buf) == count*rs {
		return retired(fmt.Sprintf("the deletion vector %s, version 1,", name))
	}
	v, buf, err := unseal(buf)
	if err != nil {
		return corrupt("deletion vector %s: %v", name, err)
	}
	if v != dvVersion {
		return versionRefused("the deletion vector "+name+" is", v, dvVersion)
	}
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
