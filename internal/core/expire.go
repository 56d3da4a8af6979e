package core

import (
	"bytes"
	"errors"
	"time"

	"github.com/backlogfs/backlog/internal/lsm"
	"github.com/backlogfs/backlog/internal/obs"
	"github.com/backlogfs/backlog/internal/storage"
)

// Drop-based snapshot expiry. When every snapshot that could reference a
// Combined run's records has been deleted, the run as a whole is garbage:
// masking (Section 4.2.1) would filter every record in it. Compaction
// eventually discovers that record by record, reading and rewriting the
// survivors; expiry instead drops whole runs by manifest edit — no record
// is ever read — once the run's consistency-point window [MinCP, MaxCP]
// falls entirely below the oldest CP still reachable from the catalog's
// snapshot/clone graph. Under RetainLive that is a clause of every commit
// (see commit), not a pass of its own. Runs become eligible through
// CP-tiered compaction, which seals finished windows instead of re-merging
// them (see compact.go).

// ExpireStats reports what one Expire call did.
type ExpireStats struct {
	// Horizon is the reclaim horizon used: the oldest CP still reachable
	// from the catalog (Infinity when no snapshot or zombie exists — then
	// only the live head pins records, and every sealed run is garbage).
	// Zero under RetainAll, which expires nothing.
	Horizon uint64
	// RunsDropped is the number of runs removed from the manifest.
	RunsDropped int
	// RecordsDropped is the number of records inside those runs; none of
	// them was read.
	RecordsDropped uint64
	// DVEntriesDropped counts deletion-vector entries garbage-collected in
	// the same manifest commit because the only runs that could contain
	// their records were dropped.
	DVEntriesDropped int
	// Deferred is set when the call ran at an unsafe moment — the Combined
	// deletion vector dirty, its entries not yet crash-durable — and
	// dropped nothing (a changed catalog is still committed). The next
	// checkpoint's install drops the runs itself.
	Deferred bool
}

// reclaimHorizon returns the expiry horizon of topo: the oldest
// consistency point still reachable from its snapshot/clone graph, or
// Infinity when nothing is retained (then only live-head records matter,
// and every completed interval is reclaimable). A Combined run whose window
// lies strictly below the horizon cannot contribute to any query result
// masked against topo — every record in it describes an interval that
// ended before the oldest snapshot.
func reclaimHorizon(topo *Topology) uint64 {
	if v, ok := topo.OldestReachable(); ok {
		return v
	}
	return Infinity
}

// Expire reaps zombie snapshots and commits now (see commit): under
// RetainLive it atomically drops every Combined run whose consistency-point
// window falls entirely below the reclaim horizon, and it commits a catalog
// change no commit has carried. The drop is one manifest edit: no run is
// read or rewritten, deletion-vector entries pointing only into dropped
// runs are garbage-collected in the same commit, and the run files
// themselves are deleted only after the last pinned view referencing them
// is released — concurrent queries and compactions keep iterating their
// snapshots unharmed.
//
// An Expire issued while a checkpoint flushes waits for that checkpoint to
// commit, as every commit does, and then applies retention. It drops
// nothing (returning Deferred with no error) while the Combined table's
// deletion vector is dirty: a dirty vector's entries are paired with
// not-yet-durable write-store records (see RelocateBlock), and persisting a
// pruned copy early would let a crash resurrect relocated-away records. The
// next checkpoint's install, which persists the vector, drops the runs
// itself.
func (e *Engine) Expire() (ExpireStats, error) {
	if o := e.obs; o != nil {
		start := o.opStart(obs.OpExpire, -1, 0, 0)
		st, err := e.expire()
		o.opEnd(obs.OpExpire, -1, 0, 0, start, o.expire, err)
		return st, err
	}
	return e.expire()
}

func (e *Engine) expire() (ExpireStats, error) {
	e.catalog.ReapZombies()
	return e.commitNow(commitEmpty)
}

// commitNow is the commit Expire, Compact and Close end with: an empty
// edit, which writes the live runs and catalog — the merges installed in
// memory since the last commit among them — and writes nothing when the
// manifest holds them already and no run is droppable, unless kind is
// commitClose and the last commit rides a checkpoint's run file: then a
// commit file of its own spares the next Open verifying that file.
func (e *Engine) commitNow(kind commitKind) (ExpireStats, error) {
	e.cpMu.Lock()
	defer e.cpMu.Unlock()
	st, err := e.commit(e.db.NewEdit().SetSource(storage.SrcManifest), kind)
	if errors.Is(err, lsm.ErrUnsynced) {
		err = nil // committed; commit noted the durability error
	}
	return st, err
}

// commitKind tells commit which of the engine's two commits it makes. A
// merge's install is not a commit: it swaps the live runs in memory and
// rides the next commit (see compactJob).
type commitKind int

const (
	commitCheckpoint commitKind = iota // a checkpoint's install
	commitEmpty                        // commitNow's
	commitClose                        // commitNow's at Close
)

// commit makes the engine's one manifest commit. Every commit carries the
// live runs — the merges installed in memory since the last commit with
// them, whose inputs' files the commit frees — and the live catalog
// (lsm.Options.Section); under RetainLive it also drops, in
// the same commit, the Combined runs below the live topology's reclaim
// horizon. A checkpoint's install always may: it advances the CP, so
// lsm.Edit.Write persists a dirty deletion vector with the drops. Any other
// commit drops runs only with a clean Combined vector, and reports Deferred
// otherwise.
//
// Callers hold cpMu, which serializes every commit and every
// deletion-vector mutation — so no commit overlaps a checkpoint's flush,
// and the state the edit is built from holds still while its I/O runs with
// no structural lock held. The lock is taken exclusively only for the swap
// (lsm.Edit.Install), which for a checkpoint also drops the frozen
// generation; files the commit made garbage are removed after it.
//
// A commit whose directory sync failed after its trailer was synced
// (lsm.ErrUnsynced) has committed: it installs, returns that error, and
// records it as the sticky durability error, which the next checkpoint to
// commit clears. It removes none of the files it made garbage: a crash may
// yet lose the new commit's entry, and the next Open collects them. A
// commit that failed but could not remove the file its trailer went to
// (lsm.ErrLeftover) records that as the sticky error too: a crash before
// the next commit may reopen the store at it.
func (e *Engine) commit(edit *lsm.Edit, kind commitKind) (st ExpireStats, err error) {
	var runs int
	var recs uint64
	if e.expiryEnabled() {
		if kind == commitCheckpoint || !e.db.Table(TableCombined).DVDirty() {
			st.Horizon = reclaimHorizon(e.catalog.Topology())
			runs, recs = edit.DropRunsBelow(TableCombined, st.Horizon)
		} else {
			st.Deferred = true
		}
	}
	if kind != commitCheckpoint && runs == 0 && !e.db.Ahead() && bytes.Equal(e.catalog.Topology().data, e.db.Section()) &&
		(kind == commitEmpty || !e.db.CommitInRun()) {
		return st, nil
	}
	err = edit.Write()
	unsynced := errors.Is(err, lsm.ErrUnsynced)
	if errors.Is(err, lsm.ErrLeftover) {
		e.noteWALErr(err)
	}
	if err != nil && !unsynced {
		return st, err
	}
	start := time.Now()
	e.mu.Lock()
	reclaim := edit.Install()
	if kind == commitCheckpoint {
		for _, s := range e.shards {
			s.frozen = nil
		}
	}
	e.mu.Unlock()
	if kind == commitCheckpoint && e.obs != nil {
		e.obs.cpInstall.ObserveDuration(time.Since(start))
	}
	if unsynced {
		e.noteWALErr(err)
	} else {
		reclaim()
	}
	if runs == 0 {
		return st, err
	}
	st.RunsDropped, st.RecordsDropped, st.DVEntriesDropped = runs, recs, edit.CollectedDVEntries()
	e.stats.expiries.Add(1)
	e.stats.runsExpired.Add(uint64(runs))
	e.stats.recordsExpired.Add(recs)
	return st, err
}
